"""What importing the CLI costs: ``import polychar.cli`` in a fresh
interpreter loads neither ``dataclasses`` (with ``inspect``), ``fractions``
(with ``decimal``), ``json``, ``random`` nor ``argparse``, and no plain
``char``, ``bsum`` or ``expand`` run loads them; ``RootSystem.inner`` loads
``fractions`` when it is first called and still returns a Fraction,
``eval`` loads ``random`` and ``json`` when it runs, and a command line the
plain parse declines (``-h``, an abbreviation) loads ``argparse``.

The child runs as ``python -I -S``: a site ``.pth`` that imports ``random``
would otherwise hide a regression.  It records ``sys.modules`` before it
imports anything else, and prints a Python literal, not JSON.

What importing the package gives: ``polychar.__all__`` names exactly the
public names ``polychar/__init__.py`` imports, so ``from polychar import *``
binds each of them."""

import ast
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import polychar

_SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import ast, io, sys
sys.path.insert(0, sys.argv[1])
DEFERRED = {"dataclasses", "inspect", "fractions", "decimal", "json", "random", "argparse"}
before = set(sys.modules)
import polychar.cli
out = {"import": sorted(DEFERRED & (set(sys.modules) - before))}
stdout = sys.stdout
for argv in (["char", "A2", "1", "1"], ["bsum", "A2", "1", "1", "--method", "both"],
             ["expand", "A2", "2", "1"],
             ["eval", "--algebra", "A2", "--lam", "1", "0", "--sigma-count", "3"],
             *ast.literal_eval(sys.argv[2])):
    before = set(sys.modules)
    sys.stdout = io.StringIO()
    code = polychar.cli.run(argv)
    sys.stdout = stdout
    out[" ".join(argv)] = (code, sorted(DEFERRED & (set(sys.modules) - before)))
from polychar.rootsys import build_root_system
g2 = build_root_system("G2")
before = set(sys.modules)
inner = g2.inner((0, 1), (0, 1))
out["inner"] = [type(inner).__name__, str(inner), "fractions" in set(sys.modules) - before]
print(repr(out))
"""


@lru_cache(maxsize=None)
def _child(extra=()) -> dict:
    """What the child saw, after the plain runs and then ``extra``, a tuple
    of command lines."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _CHILD, str(_SRC), repr(extra)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return ast.literal_eval(proc.stdout)


def test_cli_import_loads_no_dataclasses_or_fractions():
    out = _child()
    assert out["import"] == []
    for argv in ("char A2 1 1", "bsum A2 1 1 --method both", "expand A2 2 1"):
        assert out[argv] == (0, [])
    # the first exact inner product loads fractions, on demand
    assert out["inner"] == ["Fraction", "2/3", True]


def test_eval_run_loads_random_and_json():
    # the deferred imports are reached, so the empty lists above are not vacuous
    assert _child()["eval --algebra A2 --lam 1 0 --sigma-count 3"] == (0, ["json", "random"])


@pytest.mark.parametrize("argv", [("char", "-h"), ("bsum", "A2", "1", "1", "--meth", "both")],
                         ids=" ".join)
def test_a_declined_command_line_loads_argparse(argv):
    # each in its own child, after the plain runs: the parser is built, and
    # argparse loaded, for this line alone
    assert _child((argv,))[" ".join(argv)] == (0, ["argparse"])


def test_all_names_what_the_package_imports():
    names = polychar.__all__
    assert names == sorted(set(names))  # sorted, no duplicates
    assert all(hasattr(polychar, name) for name in names)
    star: dict = {}
    exec("from polychar import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    tree = ast.parse(Path(polychar.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} == set(names)
