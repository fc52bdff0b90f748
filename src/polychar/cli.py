"""Command-line front end.

Every subcommand prints one canonical JSON payload (sorted keys, no
whitespace) so identical inputs give byte-identical output.  ``--table``
swaps stdout to a readable rendering; ``--out FILE`` writes the JSON to a
file either way.

Exit codes: 0 when the command (and any check it performs) succeeds, 1 when
a comparison or tolerance check fails, 2 on usage errors or bad input, and
141 (128 + SIGPIPE) when the reader closes stdout early.
"""

import argparse
import functools
import json
import os
import sys

from .demazure import character_demazure
from .formal import FormalSum
from .polysum import (
    _POINT_CAP,
    DEFAULT_SEED,
    GenericityError,
    PolytopeSizeError,
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
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, payload, render) -> None:
    """Write the JSON payload; ``render()`` builds the ``--table`` text, so
    it runs only when that text is printed."""
    text = _canon(payload)
    if getattr(args, "out", None):
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


def _cmd_char(args) -> int:
    rs = build_root_system(args.algebra)
    s = character_demazure(rs, args.labels)
    _emit(args, s.to_json_obj(), lambda: _sum_table(s))
    return 0


def _cmd_bsum(args) -> int:
    rs = build_root_system(args.algebra)
    if args.method == "oracle":
        s = polytope_sum_oracle(rs, args.labels).sum
        _emit(args, s.to_json_obj(), lambda: _sum_table(s))
        return 0
    if args.method == "demazure":
        s = polytope_sum_demazure(rs, args.labels)
        _emit(args, s.to_json_obj(), lambda: _sum_table(s))
        return 0
    formula = polytope_sum_demazure(rs, args.labels)
    oracle = polytope_sum_oracle(rs, args.labels).sum
    diff = formula - oracle
    match = diff.is_zero()
    payload = {
        "oracle": oracle.to_json_obj(),
        "demazure": formula.to_json_obj(),
        "diff": diff.to_json_obj(),
        "match": match,
    }

    def table() -> str:
        return "\n".join(
            [
                f"match: {match}",
                f"oracle points: {oracle.coefficient_sum()}",
                f"demazure coefficient sum: {formula.coefficient_sum()}",
            ]
        )

    _emit(args, payload, table)
    return 0 if match else 1


def _cmd_verify(args) -> int:
    rs = build_root_system(args.algebra)
    reports = verify_polytope_formula(rs, args.max_label)
    payload = [r.to_json_obj() for r in reports]
    n_bad = sum(1 for r in reports if not r.match)

    def table() -> str:
        lines = ["formula algebra lambda match n_points millis"]
        for r in reports:
            lines.append(
                f"{r.formula} {r.algebra} {list(r.lam)} "
                f"{'ok' if r.match else 'MISMATCH'} {r.n_points} {r.millis:.1f}"
            )
        lines.append(f"{len(reports)} comparisons, {n_bad} mismatches")
        return "\n".join(lines)

    _emit(args, payload, table)
    return 0 if n_bad == 0 else 1


def _cmd_eval(args) -> int:
    if (args.algebra is None) != (args.lam is None):
        raise ValueError("--algebra and --lam must be given together")
    if args.algebra is not None:
        cases = [(args.algebra, tuple(args.lam))]
    else:
        cases = [(name, lam) for name, lam in _EVAL_DEFAULTS]
    results = []
    for name, lam in cases:
        rs = build_root_system(name)
        try:
            results.append(numeric_formula_check(rs, lam, args.sigma_count, args.seed))
        except OverflowError as exc:
            # large labels push e^{<mu, sigma>} past the float range: bad input
            raise ValueError(
                f"numeric checks of {rs.name} lambda {list(lam)} overflow floats ({exc})"
            ) from exc
    payload = results[0] if args.algebra is not None else results

    def table() -> str:
        lines = ["algebra lambda brion_err weyl_err pass"]
        for r in results:
            lines.append(
                f"{r['algebra']} {r['lambda']} {r['brion_max_rel_err']:.3e} "
                f"{r['weyl_max_rel_err']:.3e} {r['pass']}"
            )
        return "\n".join(lines)

    _emit(args, payload, table)
    return 0 if all(r["pass"] for r in results) else 1


def _cmd_expand(args) -> int:
    rs = build_root_system(args.algebra)
    payload = polytope_expansion(rs, args.labels).to_json_obj()

    def table() -> str:
        lines = ["dominant weight -> coeff"]
        for entry in payload:
            lines.append(f"{entry['w']} -> {entry['c']}")
        return "\n".join(lines)

    _emit(args, payload, table)
    return 0


def _cmd_vertices(args) -> int:
    rs = build_root_system(args.algebra)
    lam = check_weight(rs, args.labels, dominant=True)
    if (size := orbit_size(rs, lam)) > _POINT_CAP:
        raise PolytopeSizeError(
            f"the orbit of {list(lam)} has {size} points; cap is {_POINT_CAP}"
        )
    verts = sorted(orbit(rs, lam))
    payload = [list(v) for v in verts]

    def table() -> str:
        lines = [str(v) for v in payload]
        lines.append(f"({len(verts)} vertices)")
        return "\n".join(lines)

    _emit(args, payload, table)
    return 0


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

    def common(p):
        p.add_argument("--out", metavar="FILE", help="also write the JSON payload to FILE")
        p.add_argument(
            "--table", action="store_true", help="print a readable table instead of JSON"
        )

    p = sub.add_parser("char", help="irreducible character as exact JSON")
    p.add_argument("algebra", help="algebra name such as A2, B3, G2")
    p.add_argument("labels", nargs="+", type=int, help="dominant weight labels")
    common(p)
    p.set_defaults(handler=_cmd_char)

    p = sub.add_parser("bsum", help="lattice sum over the weight polytope")
    p.add_argument("algebra")
    p.add_argument("labels", nargs="+", type=int)
    p.add_argument(
        "--method",
        choices=("oracle", "demazure", "both"),
        default="demazure",
        help="enumerator, operator formula, or both with a comparison",
    )
    common(p)
    p.set_defaults(handler=_cmd_bsum)

    p = sub.add_parser("verify", help="sweep the operator formula against the enumerator")
    p.add_argument("--algebra", default="B2")
    p.add_argument("--max-label", type=int, default=3)
    common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("eval", help="numeric cross-checks at seeded generic points")
    p.add_argument("--algebra")
    p.add_argument("--lam", nargs="+", type=int)
    p.add_argument("--sigma-count", type=int, default=20)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("expand", help="character as a combination of polytope sums")
    p.add_argument("algebra")
    p.add_argument("labels", nargs="+", type=int)
    common(p)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("vertices", help="Weyl orbit of a dominant weight")
    p.add_argument("algebra")
    p.add_argument("labels", nargs="+", type=int)
    common(p)
    p.set_defaults(handler=_cmd_vertices)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, PolytopeSizeError, GenericityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
