"""Hashed output corpus and reachability guard.

``tests/data/cli_hashes.json`` lists about 870 requests, one per line,
each with the sha256 of its output: the golden corpus's requests
(`test_golden_cli`), the three benchmark workloads' request lists at seeds
1-3 (kept here as argv lists), ``--table`` and ``--out`` requests (a
``--out`` with no file name among them), requests at the edges of the
packed codecs' widths, of Freudenthal's fold order, of ``eval``'s shared
tables and chunks and of the float range, the size refusals made mid-walk
and by the point budget, the rank and sample caps, and command lines that
only argparse parses: abbreviated options, ``--x=y``, ``--``, options
before positionals, repeated options, negative labels, bad ints, missing
values and ``-h`` on every subcommand.  `_PINNED` names the requests the
corpus must hold, each with what it pins.  A request's hash is taken over
the JSON list [stdout, stderr, exit code], with ``eval``'s
``*_max_rel_err`` floats masked as the golden corpus masks them; a request
that names ``--out OUT`` writes to a temporary file instead, and that
file's text joins the list.

The requests run in one fresh interpreter under ``sys.setprofile``, which
records every call into the package from its first import on.  So the
same run also shows which of the package's functions and methods no
request reaches; `_UNREACHED` names each of them and says why it stays.
The same run also hashes each ``eval`` request unmasked, and the test
process runs those requests again: two processes must print the same
bytes, float errors included.

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


# requests the corpus must hold, each with what it pins: an order that must
# not reach the output, a codec's width, tables that one process shares
# between algebras or points, a refusal, or a command line only argparse
# parses.  An order or a table that changes the bytes shows as a changed
# hash, and, for eval's unmasked floats, as a difference between processes
_CORES = ("the operator cores fill packed dicts in another order than tuple dicts would; "
          "that order must not reach the output")
_NO_WEYL_TABLE = "char past rank 3, with no Weyl table"
_SHARED = "one sample's exponentials, factors and vertex-cone sums, shared by the evaluators"
_AT_CAP = "refused at the real point cap; the message gives the walk's exact count"
_ARGPARSE = "parsed by argparse, not by the table"
_PINNED = {
    "char G2 8 8": _CORES,
    "char C3 3 3 1": _CORES,
    "bsum B2 6 5 --method demazure": _CORES,
    "bsum G2 6 5 --method demazure": _CORES,
    "expand C3 3 3 1": "the straightening route keys its depth buckets by packed ints; their "
                       "order must not reach expand's output",
    "expand C3 3 3 1 --table": "the order of expand's coefficient dict must not reach its table",
    "bsum G2 3 2 --method both": "the oracle's sum is filled in orbit-walk order, which must not "
                                 "reach the output",
    "vertices B3 1 1 1": "the vertices are an orbit, a frozenset, whose order must not reach "
                         "the output",
    "verify --algebra A3 --max-label 1": "a rank-3 sweep: each weight's two sums in one process",
    "verify --algebra G2 --max-label 2 --table": "the clock must not reach verify's table",
    "char A4 1 1 1 1": _NO_WEYL_TABLE,
    "char D8 1 0 1 0 0 0 0 0": _NO_WEYL_TABLE,
    # codec-width edges
    "expand A2 64 63": "lam's hull fits 1-byte fields and the step past it does not; expand "
                       "now packs lam + rho, in 2-byte fields from A2 (62, 62) on",
    "bsum A1 127 --method both": "the oracle's fields are 2 bytes wide",
    "bsum C3 63 0 0 --method oracle": "the oracle's fields are 2 bytes wide",
    "bsum C3 62 0 0 --method oracle": "1-byte fields, whose orbits reach label 124; in place of "
                                      "C3 0 31 31 at the same edge, which prints 23 MB in 2.6 s "
                                      "(C3 0 31 32 is past the point cap)",
    "bsum G2 41 0 --method both": "G2's brackets translate packed ints on e^lam's codec, at its "
                                  "one-byte edge",
    "verify --algebra G2 --max-label 7": "the G2 weights whose brackets used to end on a wider "
                                         "codec",
    "verify --algebra A1 --max-label 130": "each codec builds its own root table: the one-byte "
                                           "ones up to A1 125, the two-byte ones from A1 126 on, "
                                           "in one process",
    # fold-order edges
    "expand G2 21 21": "the straightening route folds k + nu + rho near every wall and reuses "
                       "each fold it memoised",
    "expand D4 2 2 2 2": "26 % of Freudenthal's fold lookups repeat one string weight",
    # tables that switch algebras, and eval's samples and chunks
    "eval": "the defaults check A2, G2 and A3 in one process: the one-entry tables switch "
            "algebras",
    "eval --algebra G2 --lam 2 2 --sigma-count 30": _SHARED,
    "eval --algebra C3 --lam 2 2 3 --sigma-count 30 --seed 3": _SHARED + ", at |W| = 48",
    "eval --algebra G2 --lam 2 2 --sigma-count 2000": "4 chunks of 601 points (109 terms)",
    # the float range
    "eval --algebra A1 --lam 1343 --sigma-count 3 --seed 2": "the last A1 label whose sums fit "
                                                             "floats at this seed",
    "eval --algebra A1 --lam 1344 --sigma-count 3 --seed 2": "a sum past the float range is bad "
                                                             "input (exit 2)",
    # refusals
    "expand A3 40 40 40": _AT_CAP + ", made mid-walk",
    "bsum G2 3000 3000": _AT_CAP + ", made mid-walk",
    "verify --algebra A3 --max-label 12": _AT_CAP + " (the point budget's sweep total)",
    "char A8 3 3 3 3 3 3 3 3": _AT_CAP + " (the point budget, one lam counted on its walk)",
    "bsum G2 300 300 --method demazure": "refused by the point cap on the operator route",
    "verify --algebra G2 --max-label 40": "refused by the point budget's sweep total",
    "eval --algebra A4 --lam 1 0 0 1": "the Weyl group's rank cap (exit 2)",
    "eval --algebra A1 --lam 1 --sigma-count 10001": "the cap on eval's points (exit 2)",
    "eval --algebra C3 --lam 0 0 0 --seed 10": "a known failure: its two evaluations disagree "
                                               "(exit 1)",
    "vertices A2 4611686018427387904 4611686018427387904": "labels that need fields wider than "
                                                           "8 bytes",
    "char A2 1 1 --out": "--out with no file name",
    "char A2 1 1 --out --table": "--out with no file name",
    "bsum A2 1 1 --meth both": _ARGPARSE,
    "bsum A2 1 1 --method=both": _ARGPARSE,
    "char -- A2 1 1": _ARGPARSE,
    "bsum --method both A2 1 1": _ARGPARSE,
    "bsum A2 1 1 --method oracle --method both": _ARGPARSE,
    "char A2 -1 0": _ARGPARSE,
    "char A2 1 x": _ARGPARSE,
    "bsum A2 1 1 --method": _ARGPARSE,
    "eval -h": _ARGPARSE,
}


def _load() -> list:
    return json.loads(_HASHES.read_text(encoding="utf-8"))


def _record(argv, run) -> list:
    """One in-process request's [stdout, stderr, exit code], and the text
    it wrote when it names ``--out OUT``.  Only a token that does not start
    with "-" after ``--out`` is a file name: it is swapped for a temporary
    file's path, and swapped back in what the request printed, so an error
    that quotes it reads the same anywhere."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        k = argv.index("--out") + 1 if "--out" in argv else len(argv)
        name = argv[k] if k < len(argv) and not argv[k].startswith("-") else None
        if name is not None:
            argv = [*argv[:k], path, *argv[k + 1:]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        record = [*(text.replace(path, name or path) for text in (out.getvalue(), err.getvalue())),
                  code]
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                record.append(fh.read())
    return record


def _digest(record, mask=str) -> str:
    """The sha256 of a `_record`, each of its texts passed through ``mask``
    (unchanged by default)."""
    return hashlib.sha256(json.dumps(
        [mask(x) if isinstance(x, str) else x for x in record]).encode()).hexdigest()


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
    set before the package is imported: their masked hashes, the unmasked
    hash of each ``eval`` request (None for the others), and the sorted
    names of the package's functions that none of them called."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    os.environ["COLUMNS"] = "80"  # argparse's usage lines, as the golden corpus has them
    sys.setprofile(profile)
    try:
        from polychar.cli import run
        from test_golden_cli import _mask

        hashes, exact = [], []
        for argv in requests:
            record = _record(argv, run)
            hashes.append(_digest(record, _mask))
            exact.append(_digest(record) if argv[:1] == ["eval"] else None)
    finally:
        sys.setprofile(None)
    unreached = sorted(name for name, code in _package_functions().items() if code not in codes)
    return hashes, exact, unreached


@lru_cache(maxsize=None)
def _sweep_process() -> subprocess.Popen:
    """`_sweep` over the corpus, started in a fresh interpreter, so that no
    cache the other tests filled hides a call.  It draws its own
    string-hash seed, so an output that hangs on one differs from this
    process's."""
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_HERE.parent / "src"),
                                                       env.get("PYTHONPATH")]))
    warnings = [f"-W{option}" for option in sys.warnoptions]
    return subprocess.Popen([sys.executable, *warnings, __file__, "--sweep"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@lru_cache(maxsize=None)
def _fresh_sweep() -> tuple:
    """The fresh sweep's masked hashes, unmasked ``eval`` hashes and
    unreached names, once it has finished."""
    out, err = _sweep_process().communicate()
    assert _sweep_process().returncode == 0, err
    return tuple(map(tuple, json.loads(out)))


def test_corpus_holds_the_golden_requests_and_the_refusals():
    from test_golden_cli import _REQUESTS

    argvs = [case["argv"] for case in _load()]
    assert argvs[:len(_REQUESTS)] == _REQUESTS
    missing = [request for request in _PINNED if request.split() not in argvs]
    assert missing == []
    assert any("--out" in argv for argv in argvs)
    assert len(set(map(tuple, argvs))) == len(argvs)


def test_every_eval_output_is_the_same_bytes_in_two_processes(monkeypatch):
    # the masked hashes cannot see the bits of eval's *_max_rel_err: each
    # eval request, run here while the fresh sweep runs, must print exactly
    # what the sweep saw
    from polychar.cli import run

    _sweep_process()
    monkeypatch.setenv("COLUMNS", "80")
    evals = [case["argv"] for case in _load() if case["argv"][:1] == ["eval"]]
    got = [_digest(_record(argv, run)) for argv in evals]
    _hashes, exact, _unreached = _fresh_sweep()
    want = [h for h in exact if h is not None]
    differ = [" ".join(argv) for argv, a, b in zip(evals, got, want) if a != b]
    assert len(want) == len(evals) > 300
    assert differ == [], f"{len(differ)} eval requests differ, first: {differ[:5]}"


def test_every_output_matches_its_hash():
    corpus = _load()
    hashes, _exact, _unreached = _fresh_sweep()
    changed = [" ".join(case["argv"]) for case, got in zip(corpus, hashes) if got != case["sha256"]]
    assert len(hashes) == len(corpus)
    assert changed == [], f"{len(changed)} requests changed output, first: {changed[:5]}"


def test_every_unreached_function_is_listed_with_its_reason():
    # a function no request reaches must be listed, and a listed one that
    # a request reaches (or that is gone) must leave the list
    _hashes, _exact, unreached = _fresh_sweep()
    assert list(unreached) == sorted(_UNREACHED), (
        f"unreached but not listed: {sorted(set(unreached) - set(_UNREACHED))}; "
        f"listed but reached, or gone: {sorted(set(_UNREACHED) - set(unreached))}")


if __name__ == "__main__":
    corpus = _load()
    hashes, exact, unreached = _sweep([case["argv"] for case in corpus])
    if sys.argv[1:] == ["--sweep"]:
        print(json.dumps([hashes, exact, unreached]))
    else:
        lines = [json.dumps({"argv": case["argv"], "sha256": h}) for case, h in zip(corpus, hashes)]
        _HASHES.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
        print(f"wrote {len(lines)} hashes to {_HASHES}", file=sys.stderr)
