"""What importing the CLI costs: ``import polychar.cli`` in a fresh
interpreter loads neither ``dataclasses`` (with ``inspect``) nor
``fractions`` (with ``decimal``), and the exact values that are Fractions
still come out as Fractions."""

import json
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import polychar.cli
loaded = sorted({"dataclasses", "inspect", "fractions", "decimal"} & (set(sys.modules) - before))
from polychar.rootsys import build_root_system
g2 = build_root_system("G2")
inner = g2.inner((0, 1), (0, 1))
form = g2.quadratic_form
print(json.dumps({
    "loaded": loaded,
    "inner": [type(inner).__name__, str(inner)],
    "form": [[[type(x).__name__, str(x)] for x in row] for row in form],
}))
"""


def test_cli_import_loads_no_dataclasses_or_fractions():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _CHILD, str(_SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert out["inner"] == ["Fraction", "2/3"]
    assert out["form"] == [
        [["Fraction", "2"], ["Fraction", "1"]],
        [["Fraction", "1"], ["Fraction", "2/3"]],
    ]
