"""Seeded request lists for the benchmark workloads.

Every request is an argv tuple for ``polychar.cli.run``.  A workload is a
fixed recipe of strata; each stratum names a subcommand, an algebra (or a
pair of sibling algebras of matching cost), a label cap and the label sums
its slots use.  The seed picks, for every slot, one weight among those with
that label sum, the sibling algebra where there is a choice, the ``eval``
sampling seed, and the order of the whole list.  Holding each slot's label
sum fixed keeps the work in a list nearly the same from seed to seed, so
run-to-run spread measures the program rather than the draw.

Where a label sum still leaves the cost free to vary widely (the heavy G2,
A3, B3/C3 and B2 ``expand`` slots), a stratum names the label sum from
which its slots are drawn from a stream that ignores the seed.  Those slots
are the list's tail, which sets much of ``wall_s`` and most of
``request_p90_ms``; the seed still picks every other slot, every ``eval``
sampling seed and the order.

No request leaves the library's limits: rank <= 3 (full Weyl group) and
bounding boxes far below the enumerator's point cap.
"""

import random
from itertools import product

# Verify grids: (algebra, max label).  Fixed: a grid sweep is the same
# request whatever the seed.
VERIFY_GRIDS = (("A1", 12), ("A2", 4), ("B2", 3), ("G2", 2), ("A3", 1))

# (subcommand, algebras, label cap, label sums[, first seed-independent
# label sum]); one request per label sum.  Several algebras in a stratum are
# siblings and the draw picks one of them per slot.
STRATA = {
    "verify-sweep": (
        ("bsum", ("A1",), 20, range(8, 21)),
        ("bsum", ("A2",), 7, range(2, 14)),
        ("bsum", ("A2",), 7, range(4, 14)),
        ("bsum", ("A2",), 7, range(6, 13)),
        ("bsum", ("B2",), 7, range(2, 13)),
        ("bsum", ("B2",), 7, range(4, 13)),
        ("bsum", ("B2",), 7, range(6, 12)),
        ("bsum", ("G2",), 7, range(2, 12), 6),
        ("bsum", ("G2",), 7, range(3, 12), 6),
        ("bsum", ("A3",), 4, range(2, 9), 5),
        ("bsum", ("A3",), 4, range(3, 9), 5),
        ("bsum", ("A3",), 4, range(4, 9), 5),
    ),
    "char-expand": (
        ("char", ("A2",), 8, range(6, 17)),
        ("char", ("A2",), 8, range(8, 17)),
        ("char", ("B2",), 8, range(6, 17)),
        ("char", ("B2",), 8, range(8, 15)),
        ("char", ("G2",), 8, range(6, 15), 10),
        ("char", ("A3",), 3, range(3, 10)),
        ("char", ("A3",), 3, range(4, 10)),
        ("char", ("B3", "C3"), 3, range(3, 8), 6),
        ("char", ("B3", "C3"), 3, range(4, 8), 6),
        ("expand", ("A2",), 8, range(6, 17)),
        ("expand", ("A2",), 8, range(8, 17)),
        ("expand", ("B2",), 8, range(6, 16), 13),
        ("expand", ("G2",), 8, range(4, 11), 7),
        ("expand", ("A3",), 3, range(3, 10)),
        ("expand", ("A3",), 3, range(4, 10)),
        ("expand", ("B3", "C3"), 3, range(2, 7), 5),
        ("expand", ("B3", "C3"), 3, range(3, 7), 5),
    ),
    "numeric-eval": (
        *[("eval", ("A1",), 2, range(0, 3))] * 6,
        *[("eval", ("A2",), 2, range(0, 5))] * 8,
        *[("eval", ("B2",), 2, range(0, 5))] * 5,
        *[("eval", ("G2",), 2, range(0, 5), 2)] * 3,
        ("eval", ("A3",), 2, range(0, 3), 1),
    ),
}

WORKLOADS = tuple(STRATA)

# Generic points per eval request.
SIGMA_COUNT = 30


def _rank(algebra: str) -> int:
    return int(algebra[1:])


def _weight(rng: random.Random, rank: int, cap: int, total: int) -> tuple:
    choices = [lam for lam in product(range(cap + 1), repeat=rank) if sum(lam) == total]
    return rng.choice(choices)


def generate(workload: str, seed: int) -> list:
    """The request list of ``workload`` for ``seed``, as argv tuples."""
    if workload not in STRATA:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    fixed = random.Random(workload)
    requests = []
    if workload == "verify-sweep":
        for algebra, max_label in VERIFY_GRIDS:
            requests.append(("verify", "--algebra", algebra, "--max-label", str(max_label)))
    for command, algebras, cap, totals, *fixed_from in STRATA[workload]:
        for total in totals:
            draw = fixed if fixed_from and total >= fixed_from[0] else rng
            algebra = draw.choice(algebras)
            labels = [str(x) for x in _weight(draw, _rank(algebra), cap, total)]
            if command == "bsum":
                requests.append(("bsum", algebra, *labels, "--method", "both"))
            elif command == "eval":
                requests.append(
                    ("eval", "--algebra", algebra, "--lam", *labels,
                     "--sigma-count", str(SIGMA_COUNT), "--seed", str(rng.randrange(10**6)))
                )
            else:
                requests.append((command, algebra, *labels))
    rng.shuffle(requests)
    return requests


def algebras(requests) -> list:
    """Distinct algebras the requests touch, sorted."""
    names = set()
    for argv in requests:
        if "--algebra" in argv:
            names.add(argv[argv.index("--algebra") + 1])
        else:
            names.add(argv[1])
    return sorted(names)
