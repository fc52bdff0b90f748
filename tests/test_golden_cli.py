"""Golden CLI corpus: stdout, stderr and exit code of small requests across
every subcommand, pinned byte for byte in ``tests/data/cli_golden.json``.

A refactor that should keep the output unchanged must pass this test as it
stands.  The two ``*_max_rel_err`` floats of ``eval`` depend on the
platform's ``exp`` and are masked before storing and before comparing.

To rebuild the corpus after an intended change of output, run

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff of the data file.
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

from polychar.cli import run

_GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

_REQUESTS = [
    # char
    ["char", "A1", "0"],
    ["char", "A1", "3"],
    ["char", "A2", "0", "0"],
    ["char", "A2", "1", "1"],
    ["char", "A2", "2", "1", "--table"],
    ["char", "B2", "1", "1"],
    ["char", "B2", "2", "0"],
    ["char", "C2", "1", "1"],
    ["char", "G2", "1", "0"],
    ["char", "G2", "1", "1"],
    ["char", "G2", "0", "1", "--table"],
    ["char", "A3", "1", "0", "1"],
    ["char", "B3", "1", "0", "0"],
    ["char", "C3", "0", "0", "1"],
    ["char", "D3", "0", "1", "1"],
    # bsum
    ["bsum", "A1", "4"],
    ["bsum", "A2", "2", "1"],
    ["bsum", "A2", "1", "1", "--table"],
    ["bsum", "A2", "1", "1", "--method", "both"],
    ["bsum", "A2", "2", "0", "--method", "both", "--table"],
    ["bsum", "B2", "2", "1", "--method", "both"],
    ["bsum", "B2", "1", "1", "--method", "oracle"],
    ["bsum", "G2", "1", "0", "--method", "both"],
    ["bsum", "G2", "2", "1"],
    ["bsum", "A3", "1", "1", "1", "--method", "both"],
    ["bsum", "B3", "1", "0", "1", "--method", "oracle"],
    ["bsum", "C3", "0", "1", "0", "--method", "oracle", "--table"],
    ["bsum", "D4", "1", "0", "0", "1", "--method", "oracle"],
    ["bsum", "A4", "1", "0", "0", "1", "--method", "oracle"],
    ["bsum", "C3", "1", "1", "0"],
    ["bsum", "B3", "1", "0", "0", "--method", "both"],
    # verify
    ["verify", "--algebra", "A1", "--max-label", "3"],
    ["verify", "--algebra", "A2", "--max-label", "1"],
    ["verify", "--algebra", "B2", "--max-label", "1"],
    ["verify", "--algebra", "G2", "--max-label", "1", "--table"],
    ["verify", "--algebra", "A3", "--max-label", "1"],
    ["verify", "--algebra", "A2", "--max-label", "2", "--table"],
    # eval
    ["eval", "--algebra", "A1", "--lam", "3", "--sigma-count", "2"],
    ["eval", "--algebra", "A2", "--lam", "1", "1", "--sigma-count", "2"],
    ["eval", "--algebra", "B2", "--lam", "1", "0", "--sigma-count", "3", "--seed", "5"],
    ["eval", "--algebra", "C2", "--lam", "0", "1", "--sigma-count", "2"],
    ["eval", "--algebra", "G2", "--lam", "1", "1", "--sigma-count", "2", "--table"],
    ["eval", "--algebra", "A3", "--lam", "1", "0", "0", "--sigma-count", "2"],
    ["eval", "--algebra", "D3", "--lam", "0", "1", "0", "--sigma-count", "2"],
    ["eval", "--sigma-count", "2"],
    ["eval", "--sigma-count", "2", "--table"],
    # expand
    ["expand", "A1", "3"],
    ["expand", "A2", "2", "1"],
    ["expand", "B2", "2", "2"],
    ["expand", "C2", "1", "1"],
    ["expand", "G2", "1", "1", "--table"],
    ["expand", "A3", "1", "0", "1"],
    ["expand", "B3", "0", "1", "0"],
    ["expand", "D3", "0", "1", "1"],
    # vertices
    ["vertices", "A2", "1", "0"],
    ["vertices", "B2", "1", "1", "--table"],
    ["vertices", "C2", "0", "1"],
    ["vertices", "G2", "1", "1"],
    ["vertices", "A3", "1", "0", "0"],
    ["vertices", "D4", "0", "1", "0", "0"],
    ["vertices", "C3", "0", "0", "1", "--table"],
    # refusals by size
    ["vertices", "B8", "1", "1", "1", "1", "1", "1", "1", "1"],
    ["bsum", "A1", "1000000000", "--method", "oracle"],
    ["char", "A4", "1", "0", "0", "0"],  # not refused: char builds no Weyl table
    ["eval", "--algebra", "A1", "--lam", "2000", "--sigma-count", "2"],
    # usage errors and bad input
    [],
    ["char", "A2", "x"],
    ["char", "A2", "1", "1", "--bogus"],
    ["char", "A2", "1"],
    ["char", "E6", "1", "1"],
    ["char", "B1", "1"],
    ["char", "D2", "1", "1"],
    ["char", "G3", "1", "1", "1"],
    ["char", "A9", "1", "1", "1", "1", "1", "1", "1", "1", "1"],
    ["char", "A0", "1"],
    ["char", "2A", "1"],
    ["bsum", "A2", "-1", "0"],
    ["vertices", "A2", "-1", "0"],
    ["eval", "--algebra", "A2"],
    ["eval", "--algebra", "A2", "--lam", "1"],
    ["eval", "--algebra", "A2", "--lam", "1", "1", "--sigma-count", "0"],
    ["verify", "--algebra", "B3"],
    ["verify", "--algebra", "A2", "--max-label", "-1"],
]

_MASKS = (
    # eval's relative errors, in the JSON payload
    (re.compile(r'"(brion|weyl)_max_rel_err":[^,}]+'), r'"\1_max_rel_err":"*"'),
    # eval --table rows: algebra [lambda] brion_err weyl_err pass
    (re.compile(r"^(\S+ \[[^]]*\]) \S+ \S+ (True|False)$", re.M), r"\1 * * \2"),
)


def _mask(text: str) -> str:
    for pattern, repl in _MASKS:
        text = pattern.sub(repl, text)
    return text


def _run(argv) -> dict:
    """One in-process request; a fixed terminal width keeps argparse's usage
    lines from wrapping differently from one terminal to another."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    return {
        "argv": list(argv),
        "stdout": _mask(out.getvalue()),
        "stderr": _mask(err.getvalue()),
        "code": code,
    }


def _first_difference(expected: str, actual: str) -> str:
    want, got = expected.splitlines(), actual.splitlines()
    for n, (a, b) in enumerate(zip(want, got), 1):
        if a != b:
            return f"line {n}:\n  expected {a!r}\n  actual   {b!r}"
    if len(want) != len(got):
        return f"expected {len(want)} lines, got {len(got)}"
    return f"line endings differ: expected {expected[-1:]!r}, got {actual[-1:]!r}"


_CORPUS = json.loads(_GOLDEN.read_text(encoding="utf-8")) if _GOLDEN.exists() else []


def test_corpus_covers_every_request():
    assert [case["argv"] for case in _CORPUS] == _REQUESTS


@pytest.mark.parametrize(
    "case", _CORPUS, ids=[" ".join(case["argv"]) or "(no arguments)" for case in _CORPUS]
)
def test_cli_output_matches_golden(case):
    got = _run(case["argv"])
    for stream in ("stdout", "stderr"):
        assert got[stream] == case[stream], (
            f"{stream} of {case['argv']} differs at "
            + _first_difference(case[stream], got[stream])
        )
    assert got["code"] == case["code"]


if __name__ == "__main__":
    corpus = [_run(argv) for argv in _REQUESTS]
    _GOLDEN.parent.mkdir(exist_ok=True)
    _GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} requests to {_GOLDEN}", file=sys.stderr)
