"""Output checks and canonical output for benchmark requests.

Checks run outside the timed region and each one uses a route the library
already has, independent of the route that produced the output:

* ``char``: equals ``character_freudenthal``; coefficient sum equals
  ``weyl_dimension``.
* ``expand``: against ``character_demazure``.  Every dominant weight mu of
  the character must have multiplicity equal to the sum of the expansion
  coefficients at the dominant weights above mu, and every expansion weight
  must be a dominant weight of the character.
* ``bsum --method both`` and ``verify``: their own ``match`` flags, which
  must agree with the diff.  For ``bsum`` the diff is also re-derived as
  formula minus oracle, and the oracle must be a 0/1 point set containing
  lambda; verify reports hold no sums, so they get neither check, and a
  sweep must cover its label grid in order.  A mismatch is expected only for
  the known G2 defect: first label >= 1 and every diff coefficient -1.  That
  case exits 1; anything else that mismatches is a failure.
* ``eval``: its ``pass`` flag, and the payload echoes the request.

``canonical`` gives the bytes two runs of one request must share.  It drops
``millis`` from ``verify`` reports: that key is wall-clock time inside the
canonical JSON, a known determinism bug of the CLI.
"""

import json
from itertools import product


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def _labels_after(argv, start):
    out = []
    for tok in argv[start:]:
        if tok.startswith("--"):
            break
        out.append(int(tok))
    return tuple(out)


def canonical(argv, stdout: str) -> str:
    """Stdout with the wall-clock ``millis`` key removed from verify reports."""
    if argv[0] != "verify":
        return stdout
    reports = json.loads(stdout)
    for report in reports:
        report.pop("millis", None)
    return json.dumps(reports, sort_keys=True, separators=(",", ":"))


def _known_red(algebra, lam, diff) -> bool:
    return (
        algebra == "G2"
        and lam[0] >= 1
        and bool(diff)
        and all(entry["c"] == -1 for entry in diff)
    )


def _sum_dict(entries) -> dict:
    return {tuple(e["w"]): e["c"] for e in entries}


def _check_char(lib, algebra, lam, payload):
    rs = lib.build_root_system(algebra)
    if payload != lib.character_freudenthal(rs, lam).to_json_obj():
        return "character differs from the Freudenthal character"
    if sum(e["c"] for e in payload) != lib.weyl_dimension(rs, lam):
        return "coefficient sum differs from the Weyl dimension"
    return None


def _check_expand(lib, algebra, lam, payload):
    rs = lib.build_root_system(algebra)
    character = lib.character_demazure(rs, lam).terms
    dominant = {w: c for w, c in character.items() if min(w) >= 0}
    coeffs = _sum_dict(payload)
    if any(nu not in dominant for nu in coeffs):
        return "expansion names a weight outside the character's dominant weights"

    def above(nu, mu):
        gap = rs.root_coords_of_weight(tuple(a - b for a, b in zip(nu, mu)))
        return gap is not None and min(gap) >= 0

    for mu, mult in dominant.items():
        if sum(c for nu, c in coeffs.items() if above(nu, mu)) != mult:
            return f"expansion does not reproduce the multiplicity at {list(mu)}"
    return None


def _check_comparison(algebra, lam, report) -> tuple:
    """(error or None, mismatched) for one formula-vs-oracle comparison.

    Only ``bsum`` reports carry the oracle and formula sums to re-derive the
    diff from; ``verify`` reports are checked on their match flag alone.
    """
    oracle = _sum_dict(report["oracle"]) if "oracle" in report else None
    if oracle is not None:
        if any(c != 1 for c in oracle.values()) or tuple(lam) not in oracle:
            return "oracle sum is not a 0/1 point set containing lambda", False
        formula = _sum_dict(report["demazure"])
        diff = {w: formula.get(w, 0) - oracle.get(w, 0) for w in set(formula) | set(oracle)}
        if {w: c for w, c in diff.items() if c} != _sum_dict(report["diff"]):
            return "diff is not formula minus oracle", False
    if report["match"] != (report["diff"] == []):
        return "match flag disagrees with the diff", False
    if report["match"]:
        return None, False
    if _known_red(algebra, lam, report["diff"]):
        return None, True
    return f"unexpected mismatch at {list(lam)}", True


def check(lib, argv, code, stdout: str):
    """None when the request's exit code and output are right, else a reason.

    ``lib`` is a namespace holding the library functions the checks use.
    """
    command = argv[0]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return f"stdout is not JSON (exit code {code})"
    if command in ("char", "expand"):
        if code != 0:
            return f"exit code {code}, expected 0"
        lam = _labels_after(argv, 2)
        fn = _check_char if command == "char" else _check_expand
        return fn(lib, argv[1], lam, payload)
    if command == "bsum":
        lam = _labels_after(argv, 2)
        error, mismatched = _check_comparison(argv[1], lam, payload)
        if error:
            return error
        expected = 1 if mismatched else 0
        return None if code == expected else f"exit code {code}, expected {expected}"
    if command == "verify":
        algebra = _option(argv, "--algebra")
        max_label = int(_option(argv, "--max-label"))
        grid = list(product(range(max_label + 1), repeat=int(algebra[1:])))
        if [tuple(r["lambda"]) for r in payload] != grid:
            return "verify reports do not cover the label grid in order"
        mismatched = False
        for report in payload:
            if report["algebra"] != algebra or report["n_points"] < 1:
                return f"malformed report at {report['lambda']}"
            error, bad = _check_comparison(algebra, report["lambda"], report)
            if error:
                return error
            mismatched = mismatched or bad
        expected = 1 if mismatched else 0
        return None if code == expected else f"exit code {code}, expected {expected}"
    if command == "eval":
        if code != 0:
            return f"exit code {code}, expected 0"
        echo = (
            payload["algebra"] == _option(argv, "--algebra")
            and payload["lambda"] == list(_labels_after(argv, argv.index("--lam") + 1))
            and payload["sigma_count"] == int(_option(argv, "--sigma-count"))
            and payload["seed"] == int(_option(argv, "--seed"))
        )
        if not echo:
            return "eval payload does not echo the request"
        return None if payload["pass"] is True else "eval reports pass = false"
    return f"no check for subcommand {command!r}"
