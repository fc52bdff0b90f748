"""Hashed output corpus and reachability guard.

``tests/data/cli_hashes.json`` lists about 850 requests, one per line,
each with the sha256 of its output: the golden corpus's requests
(`test_golden_cli`), the three benchmark workloads' request lists at seeds
1-3 (kept here as argv lists), ``--table`` and ``--out`` requests (a
``--out`` with no file name among them), a ``vertices`` request whose
labels need fields wider than 8 bytes, the size refusals made mid-walk
and by the point budget, and command lines that only argparse parses:
abbreviated options, ``--x=y``, ``--``, options before positionals,
repeated options, negative labels, bad ints, missing values and ``-h`` on
every subcommand.  A request's hash is taken over the JSON list [stdout,
stderr, exit code], with ``eval``'s ``*_max_rel_err`` floats masked as the
golden corpus masks them; a request that names ``--out OUT`` writes to a
temporary file instead, and that file's text joins the list.

The requests run in one fresh interpreter under ``sys.setprofile``, which
records every call into the package from its first import on.  So the
same run also shows which of the package's functions and methods no
request reaches; `_UNREACHED` names each of them and says why it stays.

To rewrite the hashes after an intended change of output, run

    PYTHONPATH=src python tests/test_output_corpus.py

and list the requests whose lines changed in CHANGES.md.  A new request
goes in as a line with any sha256, before the rewrite.
"""

import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import types
from functools import cached_property, lru_cache
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_HASHES = _HERE / "data" / "cli_hashes.json"

# functions and methods that no request of the corpus calls, by module and
# qualified name, with the reason each stays in the package
_PUBLIC_ARITHMETIC = "public arithmetic of the library's FormalSum"
_VALUE_PROTOCOL = "value-class protocol: compares, shows, pickles and stays frozen"
_TRACER_NAME = "bound by benchmarks/tracing.py until the benchmark stops rebinding it"
_UNREACHED = {
    "formal.FormalSum.__add__": _PUBLIC_ARITHMETIC,
    "formal.FormalSum.__sub__": _PUBLIC_ARITHMETIC + " (the CLI subtracts only on a mismatch)",
    "formal.FormalSum.__neg__": _PUBLIC_ARITHMETIC,
    "formal.FormalSum.scale": _PUBLIC_ARITHMETIC,
    "formal.FormalSum.terms": _PUBLIC_ARITHMETIC,
    "formal.FormalSum.__repr__": _PUBLIC_ARITHMETIC,
    "_frozen.Frozen.__eq__": _VALUE_PROTOCOL,
    "_frozen.Frozen.__repr__": _VALUE_PROTOCOL,
    "_frozen.Frozen.__reduce__": _VALUE_PROTOCOL,
    "_frozen.Frozen.__setattr__": _VALUE_PROTOCOL,
    "_frozen.Frozen.__delattr__": _VALUE_PROTOCOL,
    "rootsys.RootSystem.__reduce__": _VALUE_PROTOCOL,
    "cli.main": "the console entry point; the corpus calls cli.run in-process",
    "polysum.character_freudenthal": "independent reference route for char",
    "polysum.polytope_member": _TRACER_NAME,
    "rootsys.RootSystem.root_coords_of_weight": _TRACER_NAME,
    "rootsys.RootSystem.inner": _TRACER_NAME,
    "demazure.apply_d_simple": _TRACER_NAME,
    "demazure.apply_d_root": _TRACER_NAME,
    "demazure.apply_r_simple": _TRACER_NAME,
}


def _load() -> list:
    return json.loads(_HASHES.read_text(encoding="utf-8"))


def _output(argv, run, mask) -> str:
    """The sha256 of one in-process request: over [stdout, stderr, exit
    code], and the text it wrote when it names ``--out OUT``.  Only a
    token that does not start with "-" after ``--out`` is a file name: it
    is swapped for a temporary file's path, and swapped back in what the
    request printed, so an error that quotes it hashes the same anywhere."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        k = argv.index("--out") + 1 if "--out" in argv else len(argv)
        name = argv[k] if k < len(argv) and not argv[k].startswith("-") else None
        if name is not None:
            argv = [*argv[:k], path, *argv[k + 1:]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        shown = (out.getvalue(), err.getvalue())
        record = [*(mask(text.replace(path, name or path)) for text in shown), code]
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                record.append(mask(fh.read()))
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def _package_functions() -> dict:
    """Every function and method the package's modules define, by module
    (without the package prefix) and qualified name, to its code object:
    cached functions and properties unwrapped, properties by their
    accessors."""
    found = {}

    def add(obj, module):
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, cached_property):
            obj = obj.func
        if isinstance(obj, property):
            for accessor in (obj.fget, obj.fset, obj.fdel):
                if accessor is not None:
                    add(accessor, module)
        elif isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            found[f"{module.__name__[len('polychar.'):]}.{obj.__qualname__}"] = obj.__code__
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            for member in vars(obj).values():
                add(member, module)

    for name, module in list(sys.modules.items()):
        if name.startswith("polychar."):
            for obj in vars(module).values():
                add(obj, module)
    return found


def _sweep(requests) -> tuple:
    """Run the requests in order, in this process, under ``sys.setprofile``
    set before the package is imported: their hashes, and the sorted names
    of the package's functions that none of them called."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    os.environ["COLUMNS"] = "80"  # argparse's usage lines, as the golden corpus has them
    sys.setprofile(profile)
    try:
        from polychar.cli import run
        from test_golden_cli import _mask

        hashes = [_output(argv, run, _mask) for argv in requests]
    finally:
        sys.setprofile(None)
    unreached = sorted(name for name, code in _package_functions().items() if code not in codes)
    return hashes, unreached


@lru_cache(maxsize=None)
def _fresh_sweep() -> tuple:
    """`_sweep` over the corpus in a fresh interpreter, so that no cache
    the other tests filled hides a call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_HERE.parent / "src"),
                                                       env.get("PYTHONPATH")]))
    warnings = [f"-W{option}" for option in sys.warnoptions]
    done = subprocess.run([sys.executable, *warnings, __file__, "--sweep"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    hashes, unreached = json.loads(done.stdout)
    return tuple(hashes), tuple(unreached)


def test_corpus_holds_the_golden_requests_and_the_refusals():
    from test_golden_cli import _REQUESTS

    argvs = [case["argv"] for case in _load()]
    assert argvs[:len(_REQUESTS)] == _REQUESTS
    for request in ("expand A3 40 40 40", "bsum G2 3000 3000", "bsum G2 300 300 --method demazure",
                    "char A8 3 3 3 3 3 3 3 3", "verify --algebra A3 --max-label 12",
                    "verify --algebra G2 --max-label 40",
                    "vertices A2 4611686018427387904 4611686018427387904",
                    # parsed by argparse, not by the table
                    "bsum A2 1 1 --meth both", "bsum A2 1 1 --method=both", "char -- A2 1 1",
                    "bsum --method both A2 1 1", "bsum A2 1 1 --method oracle --method both",
                    "char A2 -1 0", "char A2 1 x", "bsum A2 1 1 --method", "eval -h",
                    "char A2 1 1 --out", "char A2 1 1 --out --table"):
        assert request.split() in argvs, request
    assert any("--out" in argv for argv in argvs)
    assert len(set(map(tuple, argvs))) == len(argvs)


def test_every_output_matches_its_hash():
    corpus = _load()
    hashes, _unreached = _fresh_sweep()
    changed = [" ".join(case["argv"]) for case, got in zip(corpus, hashes) if got != case["sha256"]]
    assert len(hashes) == len(corpus)
    assert changed == [], f"{len(changed)} requests changed output, first: {changed[:5]}"


def test_every_unreached_function_is_listed_with_its_reason():
    # a function no request reaches must be listed, and a listed one that
    # a request reaches (or that is gone) must leave the list
    _hashes, unreached = _fresh_sweep()
    assert list(unreached) == sorted(_UNREACHED), (
        f"unreached but not listed: {sorted(set(unreached) - set(_UNREACHED))}; "
        f"listed but reached, or gone: {sorted(set(_UNREACHED) - set(unreached))}")


if __name__ == "__main__":
    corpus = _load()
    hashes, unreached = _sweep([case["argv"] for case in corpus])
    if sys.argv[1:] == ["--sweep"]:
        print(json.dumps([hashes, unreached]))
    else:
        lines = [json.dumps({"argv": case["argv"], "sha256": h}) for case, h in zip(corpus, hashes)]
        _HASHES.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
        print(f"wrote {len(lines)} hashes to {_HASHES}", file=sys.stderr)
