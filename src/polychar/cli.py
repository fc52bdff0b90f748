"""Command-line front end.

Every subcommand prints one canonical JSON payload (sorted keys, no
whitespace) so identical inputs give byte-identical output.  ``--table``
swaps stdout to a readable rendering; ``--out FILE`` writes the JSON to a
file either way.  The handlers only compute: each returns its payload, and
`run` writes it, the one place output leaves the program.  Lattice sums
(``char``, ``bsum``, ``expand``) reach `_emit` as canonical text already
written from their sorted terms (`formal.terms_json_text`), which must equal
what ``json.dumps`` would print; the other payloads are objects that `_emit`
passes through ``json.dumps``.  ``json`` is imported there, in `_canon`, so
importing this module and running ``char``, ``bsum`` or ``expand`` never load
it; ``verify``, ``eval`` and ``vertices`` load it when they print.

Exit codes: 0 when the command (and any check it performs) succeeds, 1 when
a comparison or tolerance check fails, 2 on usage errors or bad input, and
141 (128 + SIGPIPE) when the reader closes stdout early.
"""

import argparse
import functools
import os
import sys

from . import polysum
from .demazure import character_demazure
from .formal import FormalSum, terms_json_text
from .polysum import (
    DEFAULT_SEED,
    CrossCheckError,
    GenericityError,
    PolytopeSizeError,
    _check_support_size,
    formula_against_oracle,
    gamma_sequence,
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

    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, payload, render) -> None:
    """Write the JSON payload, as it is when it is text already and through
    `_canon` otherwise; ``render()`` builds the ``--table`` text, so it runs
    only when that text is printed."""
    text = payload if isinstance(payload, str) else _canon(payload)
    if args.out:
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
    _check_support_size(rs, (lam,), f"the polytope of {list(lam)}")
    return _sum_result(character_demazure(rs, lam))


def _cmd_bsum(args) -> tuple:
    rs = build_root_system(args.algebra)
    if args.method == "oracle":
        return _sum_result(polytope_sum_oracle(rs, args.labels).sum)
    if args.method == "demazure":
        gamma_sequence(rs)  # without a formula, refused before the size guard
        lam = check_weight(rs, args.labels, dominant=True)
        _check_support_size(rs, (lam,), f"the polytope of {list(lam)}")
        return _sum_result(polytope_sum_demazure(rs, lam))
    formula, oracle, diff = formula_against_oracle(rs, args.labels)
    match = diff.is_zero()
    oracle_text = oracle.to_json_text()
    # the keys in sorted order, as _canon writes them; an equal formula sum
    # has the oracle's text
    payload = '{"demazure":%s,"diff":%s,"match":%s,"oracle":%s}' % (
        oracle_text if match else formula.to_json_text(),
        diff.to_json_text(),
        "true" if match else "false",
        oracle_text,
    )

    def table() -> str:
        return "\n".join(
            [
                f"match: {match}",
                f"oracle points: {oracle.coefficient_sum()}",
                f"demazure coefficient sum: {formula.coefficient_sum()}",
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
    terms = sorted(polytope_expansion(rs, args.labels).items())

    def table() -> str:
        lines = ["dominant weight -> coeff"]
        for w, c in terms:
            lines.append(f"{list(w)} -> {c}")
        return "\n".join(lines)

    return terms_json_text(terms), table, 0


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


# Built on the first run and kept: parse_args leaves the parser unchanged.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polychar",
        description=(
            "Exact characters and weight-polytope lattice sums for simple "
            "Lie algebras, with enumerated and numeric cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --out and --table come last on every subcommand, after its own options
    def common(p, handler):
        p.add_argument("--out", metavar="FILE", help="also write the JSON payload to FILE")
        p.add_argument(
            "--table", action="store_true", help="print a readable table instead of JSON"
        )
        p.set_defaults(handler=handler)

    def weight(p, algebra_help=None, labels_help=None):
        p.add_argument("algebra", help=algebra_help)
        p.add_argument("labels", nargs="+", type=int, help=labels_help)

    p = sub.add_parser("char", help="irreducible character as exact JSON")
    weight(p, "algebra name such as A2, B3, G2", "dominant weight labels")
    common(p, _cmd_char)

    p = sub.add_parser("bsum", help="lattice sum over the weight polytope")
    weight(p)
    p.add_argument(
        "--method",
        choices=("oracle", "demazure", "both"),
        default="demazure",
        help="enumerator, operator formula, or both with a comparison",
    )
    common(p, _cmd_bsum)

    p = sub.add_parser("verify", help="sweep the operator formula against the enumerator")
    p.add_argument("--algebra", default="B2")
    p.add_argument("--max-label", type=int, default=3)
    common(p, _cmd_verify)

    p = sub.add_parser("eval", help="numeric cross-checks at seeded generic points")
    p.add_argument("--algebra")
    p.add_argument("--lam", nargs="+", type=int)
    p.add_argument("--sigma-count", type=int, default=20)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p, _cmd_eval)

    p = sub.add_parser("expand", help="character as a combination of polytope sums")
    weight(p)
    common(p, _cmd_expand)

    p = sub.add_parser("vertices", help="Weyl orbit of a dominant weight")
    weight(p)
    common(p, _cmd_vertices)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        payload, render, code = args.handler(args)
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
