import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402


@pytest.fixture(scope="session")
def lib():
    return bench_run._load_library()
