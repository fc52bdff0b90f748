"""What importing the CLI costs: ``import polychar.cli`` in a fresh
interpreter loads neither ``dataclasses`` (with ``inspect``), ``fractions``
(with ``decimal``), ``json`` nor ``random``, and no ``char``, ``bsum`` or
``expand`` run loads them; the exact values that are Fractions still come
out as Fractions, and ``eval`` loads ``random`` and ``json`` when it runs.

The child runs as ``python -I -S``: a site ``.pth`` that imports ``random``
would otherwise hide a regression.  It records ``sys.modules`` before it
imports anything else, and prints a Python literal, not JSON."""

import ast
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import io, sys
sys.path.insert(0, sys.argv[1])
DEFERRED = {"dataclasses", "inspect", "fractions", "decimal", "json", "random"}
before = set(sys.modules)
import polychar.cli
out = {"import": sorted(DEFERRED & (set(sys.modules) - before))}
stdout = sys.stdout
for argv in (["char", "A2", "1", "1"], ["bsum", "A2", "1", "1", "--method", "both"],
             ["expand", "A2", "2", "1"],
             ["eval", "--algebra", "A2", "--lam", "1", "0", "--sigma-count", "3"]):
    before = set(sys.modules)
    sys.stdout = io.StringIO()
    code = polychar.cli.run(argv)
    sys.stdout = stdout
    out[argv[0]] = (code, sorted(DEFERRED & (set(sys.modules) - before)))
from polychar.rootsys import build_root_system
g2 = build_root_system("G2")
inner = g2.inner((0, 1), (0, 1))
out["inner"] = [type(inner).__name__, str(inner)]
out["form"] = [[[type(x).__name__, str(x)] for x in row] for row in g2.quadratic_form]
print(repr(out))
"""


@lru_cache(maxsize=None)
def _child() -> dict:
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _CHILD, str(_SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return ast.literal_eval(proc.stdout)


def test_cli_import_loads_no_dataclasses_or_fractions():
    out = _child()
    assert out["import"] == []
    for name in ("char", "bsum", "expand"):
        assert out[name] == (0, [])
    assert out["inner"] == ["Fraction", "2/3"]
    assert out["form"] == [
        [["Fraction", "2"], ["Fraction", "1"]],
        [["Fraction", "1"], ["Fraction", "2/3"]],
    ]


def test_eval_run_loads_random_and_json():
    # the deferred imports are reached, so the empty lists above are not vacuous
    assert _child()["eval"] == (0, ["json", "random"])
