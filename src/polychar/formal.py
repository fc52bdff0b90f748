"""Finite integer combinations of formal exponentials e^mu, keyed by weight.

A FormalSum is an element of the group ring Z[P]: a dict from exponent
tuples to nonzero integer coefficients.  All algebra here is exact; the only
numeric door is `evaluate`, which substitutes a real point, checked by
`check_point`, for the exponent pairing.
"""

import math
from functools import lru_cache
from types import MappingProxyType

from .rootsys import RootSystem, dot_float


def _check_exponent(weight) -> tuple:
    """The exponent as a tuple, after checking each entry is of type int
    (bools and floats are refused)."""
    w = tuple(weight)
    if not all(type(x) is int for x in w):
        raise TypeError(f"exponent {w} has a non-integer entry")
    return w


def terms_json_text(items) -> str:
    """Canonical JSON text of a sequence of (exponent, coefficient) pairs,
    whose exponents are integer tuples of one length, in the order given:
    byte for byte what ``json.dumps([{"w": list(w), "c": c}, ...],
    sort_keys=True, separators=(",", ":"))`` prints, without building the
    dicts."""
    if not items:
        return "[]"
    # one term, filled with (coefficient, *exponent): keys sorted, no spaces
    fmt = '{"c":%d,"w":[' + ",".join(["%d"] * len(items[0][0])) + "]}"
    return "[" + ",".join([fmt % ((c,) + w) for w, c in items]) + "]"


class FormalSum:
    """Immutable Z-linear combination of exponentials, zero terms pruned.

    The canonical (lexicographic) term order is sorted on first use and kept:
    the terms never change, so it cannot go stale."""

    __slots__ = ("_rank", "_terms", "_sorted")

    def __init__(self, rank: int, terms=()):
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict = {}
        for weight, coeff in items:
            w = _check_exponent(weight)
            if len(w) != rank:
                raise ValueError(f"exponent {w} has length {len(w)}, expected rank {rank}")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError(f"coefficient {coeff!r} is not an integer")
            c = acc.get(w, 0) + coeff
            if c:
                acc[w] = c
            elif w in acc:
                del acc[w]
        self._rank = rank
        self._terms = acc
        self._sorted = None

    @classmethod
    def _of(cls, rank: int, terms: dict) -> "FormalSum":
        """Trusted constructor: takes ownership of ``terms``, which must map
        rank-length tuples to nonzero ints.  Nothing is checked or copied."""
        out = cls.__new__(cls)
        out._rank = rank
        out._terms = terms
        out._sorted = None
        return out

    @classmethod
    def zero(cls, rank: int) -> "FormalSum":
        return cls(rank)

    @classmethod
    def exp(cls, weight) -> "FormalSum":
        """The single exponential e^weight."""
        w = tuple(weight)
        return cls(len(w), {w: 1})

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def coefficient(self, weight) -> int:
        return self._terms.get(tuple(weight), 0)

    def coefficient_sum(self) -> int:
        """Sum of all coefficients (the value of the sum at the origin)."""
        return sum(self._terms.values())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _canonical(self) -> tuple:
        """The terms in lexicographic exponent order, as a shared tuple."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._terms.items()))
        return self._sorted

    def items_sorted(self) -> list:
        """Terms in lexicographic exponent order (the canonical order), as a
        new list."""
        return list(self._canonical())

    def add(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            raise TypeError(f"cannot add FormalSum and {type(other).__name__}")
        return self._merge(other, 1)

    def _merge(self, other: "FormalSum", sign: int) -> "FormalSum":
        """self + sign * other in one pass over other's terms."""
        if other._rank != self._rank:
            raise ValueError(f"rank mismatch: {self._rank} vs {other._rank}")
        merged = dict(self._terms)
        pop = merged.pop
        for w, c in other._terms.items():
            t = pop(w, 0) + sign * c
            if t:
                merged[w] = t
        return FormalSum._of(self._rank, merged)

    def scale(self, factor: int) -> "FormalSum":
        if not isinstance(factor, int) or isinstance(factor, bool):
            raise TypeError("scale factor must be an integer")
        if factor == 0:
            return FormalSum.zero(self._rank)
        return FormalSum._of(self._rank, {w: factor * c for w, c in self._terms.items()})

    def mul_exp(self, shift) -> "FormalSum":
        """Multiply by e^shift, i.e. translate every exponent."""
        s = _check_exponent(shift)
        if len(s) != self._rank:
            raise ValueError(f"shift {s} has length {len(s)}, expected rank {self._rank}")
        return FormalSum._of(
            self._rank, {tuple(a + b for a, b in zip(w, s)): c for w, c in self._terms.items()}
        )

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._merge(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._rank == other._rank and self._terms == other._terms

    def __repr__(self):
        body = ", ".join(f"{w}: {c}" for w, c in self._canonical()[:6])
        if len(self._terms) > 6:
            body += ", ..."
        return f"FormalSum(rank={self._rank}, {{{body}}})"

    def to_json_obj(self) -> list:
        """JSON form: [{"w": [...], "c": n}, ...] sorted lexicographically by w."""
        return [{"w": list(w), "c": c} for w, c in self._canonical()]

    def to_json_text(self) -> str:
        """`to_json_obj` as canonical JSON text (sorted keys, no whitespace),
        written straight from the sorted terms."""
        return terms_json_text(self._canonical())

    @classmethod
    def from_json_obj(cls, obj, rank: int | None = None) -> "FormalSum":
        """Inverse of `to_json_obj`; entries pass through to the
        constructor's checks."""
        entries = [(tuple(item["w"]), item["c"]) for item in obj]
        if rank is None:
            if not entries:
                raise ValueError("cannot infer rank of an empty serialized sum")
            rank = len(entries[0][0])
        return cls(rank, entries)


def check_point(rs: RootSystem, sigma) -> tuple[float, ...]:
    """An evaluation point of ``rs`` as floats, after checking its length.
    Finiteness is checked once per point, by `exp_table`."""
    if len(sigma) != rs.rank:
        raise ValueError(f"sigma {tuple(sigma)} has wrong length for {rs.name}")
    return tuple(float(x) for x in sigma)


@lru_cache(maxsize=1)
def exp_table(rs: RootSystem, sig) -> tuple:
    """The exponential table of a checked point ``sig`` of ``rs``: the pair
    (``form_float(sig)``, a dict from integer weight w to
    math.exp(dot_float(w, form_float(sig)))), the dict filled by its readers
    on first lookup of each weight.

    `evaluate` and the vertex-cone evaluators all read this one table, and
    `eval` visits its points one at a time, so it keeps one point.  Raises
    ValueError, and keeps nothing, when a coordinate of ``sig`` is NaN or
    infinite.
    """
    if not all(map(math.isfinite, sig)):
        raise ValueError(f"sigma {sig} has a non-finite coordinate")
    return rs.form_float(sig), {}


def evaluate(rs: RootSystem, s: FormalSum, sigma) -> float:
    """Numeric value of ``s`` at ``sigma``: sum of coeff * exp(<w, sigma>).

    ``sigma`` lives in fundamental-weight coordinates and the pairing runs
    through the algebra's quadratic form.  Each exponential comes from the
    point's table (`exp_table`): a weight met before at this point, by
    another sum or by the vertex-cone evaluators, costs one lookup, and an
    exponential that overflows raises OverflowError and is not stored.
    Terms accumulate in lexicographic exponent order, so equal inputs give
    bit-equal outputs.
    """
    if s.rank != rs.rank:
        raise ValueError(f"sum has rank {s.rank}, algebra {rs.name} has rank {rs.rank}")
    covector, exps = exp_table(rs, check_point(rs, sigma))
    get = exps.get
    total = 0.0
    for w, c in s._canonical():
        e = get(w)
        if e is None:
            e = exps[w] = math.exp(dot_float(w, covector))
        total += c * e
    return total
