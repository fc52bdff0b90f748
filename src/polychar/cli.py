"""Command-line front end.

Every subcommand prints one canonical JSON payload (sorted keys, no
whitespace) so identical inputs give byte-identical output.  ``--table``
swaps stdout to a readable rendering; ``--out FILE`` writes the JSON to a
file either way.  The handlers only compute: each returns its payload, and
`run` writes it, the one place output leaves the program.  Lattice sums
(``char``, ``bsum``, ``expand``) reach `_emit` as canonical text already
written by the one sum writer, `formal.terms_json_text`, in one ``%`` over
their sorted labels (a packed sum decodes its sorted keys' labels in one
pass and builds no exponent tuple); that text must equal what
``json.dumps`` would print.  The other payloads are objects that `_emit`
passes through ``json.dumps``.  ``json`` is imported there, in `_canon`, so
importing this module and running ``char``, ``bsum`` or ``expand`` never load
it; ``verify``, ``eval`` and ``vertices`` load it when they print.

Parsing: each subcommand is declared once, as data (`_COMMANDS`): its help,
its handler and its arguments as they are handed to ``add_argument``.  A
command line that names a subcommand and has the plain shape the CLI
documents is read off a table derived from that declaration
(`_parse_plain`), into the values ``parse_args`` would give.  Any other
command line goes to the argparse parser built from the same declaration
(`_build_parser`), so help, usage errors and abbreviations stay argparse's.
``argparse`` is imported there, so a plain command line neither loads it
nor builds a parser.

Exit codes: 0 when the command (and any check it performs) succeeds, 1 when
a comparison or tolerance check fails, 2 on usage errors or bad input, and
141 (128 + SIGPIPE) when the reader closes stdout early.
"""

import functools
import os
import sys
from types import SimpleNamespace

from . import polysum
from .demazure import character_demazure
from .formal import FormalSum, terms_json_text
from .polysum import (
    DEFAULT_SEED,
    CrossCheckError,
    GenericityError,
    PolytopeSizeError,
    _check_polytope_size,
    _formula,
    formula_against_oracle,
    numeric_formula_check,
    polytope_expansion,
    polytope_sum_demazure,
    polytope_sum_oracle,
    verify_polytope_formula,
)
from .rootsys import build_root_system, check_weight
from .weyl import orbit, orbit_size

_EVAL_DEFAULTS = (
    ("A2", (1, 0)),
    ("A2", (1, 1)),
    ("A2", (2, 1)),
    ("G2", (1, 1)),
    ("A3", (1, 1, 1)),
)


def _canon(obj) -> str:
    import json  # deferred: only dict payloads need it (module docstring)

    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _emit(args, payload, render) -> None:
    """Write the JSON payload, as it is when it is text already and through
    `_canon` otherwise; ``render()`` builds the ``--table`` text, so it runs
    only when that text is printed."""
    text = payload if isinstance(payload, str) else _canon(payload)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
        if not args.table:
            return
    print(render() if args.table else text)


def _sum_table(s: FormalSum) -> str:
    lines = ["weight -> coeff"]
    for w, c in s.items_sorted():
        lines.append(f"{list(w)} -> {c}")
    lines.append(f"({len(s)} weights, coefficient sum {s.coefficient_sum()})")
    return "\n".join(lines)


# Each handler returns (payload, render, code): the JSON object or its
# canonical text, the zero-argument callable that builds the --table text,
# and the exit code.
def _sum_result(s: FormalSum) -> tuple:
    return s.to_json_text(), lambda: _sum_table(s), 0


def _cmd_char(args) -> tuple:
    rs = build_root_system(args.algebra)
    lam = check_weight(rs, args.labels, dominant=True)
    _check_polytope_size(rs, lam)
    return _sum_result(character_demazure(rs, lam))


def _cmd_bsum(args) -> tuple:
    rs = build_root_system(args.algebra)
    if args.method == "oracle":
        return _sum_result(polytope_sum_oracle(rs, args.labels).sum)
    if args.method == "demazure":
        _formula(rs)  # without a formula, refused before the size guard
        lam = check_weight(rs, args.labels, dominant=True)
        _check_polytope_size(rs, lam)
        return _sum_result(polytope_sum_demazure(rs, lam))
    formula, oracle, diff = formula_against_oracle(rs, args.labels)
    match = diff.is_zero()
    # --table reads only the two coefficient sums, so each sum is dropped
    # once its text is built and the payload is written beside the texts
    # alone; an equal formula sum has the oracle's text, and only a
    # mismatch writes its own
    points = (oracle.coefficient_sum(), formula.coefficient_sum()) if args.table else None
    formula_text = None if match else formula.to_json_text()
    del formula
    oracle_text = oracle.to_json_text()
    del oracle
    # the keys in sorted order, as _canon writes them
    payload = '{"demazure":%s,"diff":%s,"match":%s,"oracle":%s}' % (
        oracle_text if match else formula_text,
        diff.to_json_text(),
        "true" if match else "false",
        oracle_text,
    )

    def table() -> str:
        return "\n".join(
            [
                f"match: {match}",
                f"oracle points: {points[0]}",
                f"demazure coefficient sum: {points[1]}",
            ]
        )

    return payload, table, 0 if match else 1


def _cmd_verify(args) -> tuple:
    rs = build_root_system(args.algebra)
    reports = verify_polytope_formula(rs, args.max_label)
    n_bad = sum(1 for r in reports if not r["match"])

    def table() -> str:
        lines = ["formula algebra lambda match n_points"]
        for r in reports:
            lines.append(
                f"{r['formula']} {r['algebra']} {r['lambda']} "
                f"{'ok' if r['match'] else 'MISMATCH'} {r['n_points']}"
            )
        lines.append(f"{len(reports)} comparisons, {n_bad} mismatches")
        return "\n".join(lines)

    return reports, table, 0 if n_bad == 0 else 1


def _cmd_eval(args) -> tuple:
    if (args.algebra is None) != (args.lam is None):
        raise ValueError("--algebra and --lam must be given together")
    if args.algebra is not None:
        cases = [(args.algebra, tuple(args.lam))]
    else:
        cases = [(name, lam) for name, lam in _EVAL_DEFAULTS]
    results = []
    for name, lam in cases:
        rs = build_root_system(name)
        checks = f"numeric checks of {rs.name} lambda {list(lam)}"
        try:
            results.append(numeric_formula_check(rs, lam, args.sigma_count, args.seed))
        except OverflowError as exc:  # labels push e^{<mu, sigma>} past floats: bad input
            raise ValueError(f"{checks} overflow floats ({exc})") from exc
        except CrossCheckError as exc:  # a failed check, not bad input: `run` exits 1
            raise CrossCheckError(f"{checks} seed {args.seed} failed: {exc}") from exc
    payload = results[0] if args.algebra is not None else results

    def table() -> str:
        lines = ["algebra lambda brion_err weyl_err pass"]
        for r in results:
            lines.append(
                f"{r['algebra']} {r['lambda']} {r['brion_max_rel_err']:.3e} "
                f"{r['weyl_max_rel_err']:.3e} {r['pass']}"
            )
        return "\n".join(lines)

    return payload, table, 0 if all(r["pass"] for r in results) else 1


def _cmd_expand(args) -> tuple:
    rs = build_root_system(args.algebra)
    terms = polytope_expansion(rs, args.labels).items()  # sorted by weight

    def table() -> str:
        lines = ["dominant weight -> coeff"]
        for w, c in terms:
            lines.append(f"{list(w)} -> {c}")
        return "\n".join(lines)

    labels = [x for w, _c in terms for x in w]
    return terms_json_text(labels, [c for _w, c in terms], rs.rank), table, 0


def _cmd_vertices(args) -> tuple:
    rs = build_root_system(args.algebra)
    lam = check_weight(rs, args.labels, dominant=True)
    if (size := orbit_size(rs, lam)) > polysum._POINT_CAP:
        raise PolytopeSizeError(
            f"the orbit of {list(lam)} has {size} points; cap is {polysum._POINT_CAP}"
        )
    payload = [list(v) for v in sorted(orbit(rs, lam))]

    def table() -> str:
        lines = [str(v) for v in payload]
        lines.append(f"({len(payload)} vertices)")
        return "\n".join(lines)

    return payload, table, 0


def _weight(algebra_help=None, labels_help=None) -> tuple:
    """The positionals of a subcommand that takes a weight: the algebra's
    name, then the weight's labels."""
    return (("algebra", {"help": algebra_help}),
            ("labels", {"nargs": "+", "type": int, "help": labels_help}))


# Each subcommand once, by name in help-listing order: its help, its
# handler and its own arguments as (flag, add_argument options); every
# subcommand takes --out and --table after them.  `_build_parser` hands
# these entries to argparse, `_PLAIN` is read off them, and `run` calls
# the handler the parsed "command" names.
_COMMON = (
    ("--out", {"metavar": "FILE", "help": "also write the JSON payload to FILE"}),
    ("--table", {"action": "store_true", "help": "print a readable table instead of JSON"}),
)
_COMMANDS = {
    "char": ("irreducible character as exact JSON", _cmd_char,
             _weight("algebra name such as A2, B3, G2", "dominant weight labels")),
    "bsum": ("lattice sum over the weight polytope", _cmd_bsum, (
        *_weight(),
        ("--method", {"choices": ("oracle", "demazure", "both"), "default": "demazure",
                      "help": "enumerator, operator formula, or both with a comparison"}),
    )),
    "verify": ("sweep the operator formula against the enumerator", _cmd_verify, (
        ("--algebra", {"default": "B2"}),
        ("--max-label", {"type": int, "default": 3}),
    )),
    "eval": ("numeric cross-checks at seeded generic points", _cmd_eval, (
        ("--algebra", {}),
        ("--lam", {"nargs": "+", "type": int}),
        ("--sigma-count", {"type": int, "default": 20}),
        ("--seed", {"type": int, "default": DEFAULT_SEED}),
    )),
    "expand": ("character as a combination of polytope sums", _cmd_expand, _weight()),
    "vertices": ("Weyl orbit of a dominant weight", _cmd_vertices, _weight()),
}


def _plain_entry(name, arguments) -> tuple:
    """The table `_parse_plain` reads for the subcommand ``name``: its
    positionals as (dest, convert, many) in order, its options as (dest,
    convert, nargs, choices) by flag, a flag that takes no value with nargs
    0, and the namespace's defaults, ``command`` included."""
    positionals, options, defaults = [], {}, {"command": name}
    for flag, spec in (*arguments, *_COMMON):
        convert = spec.get("type", str)
        if not flag.startswith("-"):
            positionals.append((flag, convert, spec.get("nargs") == "+"))
            continue
        dest = flag[2:].replace("-", "_")
        switch = spec.get("action") == "store_true"
        options[flag] = (dest, convert, 0 if switch else spec.get("nargs"), spec.get("choices"))
        defaults[dest] = spec.get("default", False if switch else None)
    return tuple(positionals), options, defaults


_PLAIN = {name: _plain_entry(name, arguments)
          for name, (_help, _handler, arguments) in _COMMANDS.items()}


def _parse_plain(argv) -> SimpleNamespace | None:
    """The values ``parse_args(argv)`` would give, when ``argv`` names a
    subcommand and the rest has the plain shape the CLI documents; else
    None.  The shape: the positionals first, in one run;
    then each option spelled in full, at most once; every value and every
    positional a token that does not start with "-", converted by its type
    and within its choices.  Anything else (``-h``, ``--``, ``--x=y``,
    abbreviations, options before positionals, repeats, negative numbers,
    bad values, leftovers) is argparse's to parse, or to refuse."""
    table = _PLAIN.get(argv[0]) if argv else None
    if table is None:
        return None
    positionals, options, values = table
    values = dict(values)
    end = len(argv)
    i = 1
    while i < end and not argv[i].startswith("-"):
        i += 1
    try:
        k = 1
        for dest, convert, many in positionals:
            if k >= i:
                return None
            j = i if many else k + 1  # a "+" positional takes the rest of the run
            got = [convert(token) for token in argv[k:j]]
            values[dest] = got if many else got[0]
            k = j
        if k != i:
            return None
        unseen = dict(options)  # each option once: a repeat finds no entry
        while i < end:
            entry = unseen.pop(argv[i], None)
            if entry is None:
                return None
            dest, convert, nargs, choices = entry
            i += 1
            if nargs == 0:
                values[dest] = True
                continue
            k = i
            while i < end and not argv[i].startswith("-"):
                i += 1
                if nargs is None:  # one value
                    break
            if i == k:
                return None
            got = [convert(token) for token in argv[k:i]]
            if choices is not None and any(value not in choices for value in got):
                return None
            values[dest] = got if nargs == "+" else got[0]
    except ValueError:  # a bad int: argparse's to refuse
        return None
    return SimpleNamespace(**values)


# Built on the first command line `_parse_plain` declines, and kept:
# parsing leaves the parser unchanged.
@functools.cache
def _build_parser():
    import argparse  # deferred: a plain command line needs no parser (module docstring)

    parser = argparse.ArgumentParser(prog="polychar", description=(
        "Exact characters and weight-polytope lattice sums for simple "
        "Lie algebras, with enumerated and numeric cross-checks."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in (*arguments, *_COMMON):
            p.add_argument(flag, **spec)
    return parser


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if (args := _parse_plain(argv)) is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    _help, handler, _arguments = _COMMANDS[args.command]
    try:
        payload, render, code = handler(args)
        _emit(args, payload, render)
        return code
    except (ValueError, PolytopeSizeError, GenericityError, CrossCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, CrossCheckError) else 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (`| head`).  Point stdout at devnull so the
        # interpreter's final flush of what is still buffered stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
    sys.exit(code)
