"""Finite integer combinations of formal exponentials e^mu, keyed by weight.

A FormalSum is an element of the group ring Z[P]: a dict from exponent
tuples to nonzero integer coefficients.  All algebra here is exact; the only
numeric door is `evaluate`, which substitutes a real point, checked by
`check_point`, for the exponent pairing.
"""

import math
from types import MappingProxyType

from .rootsys import RootSystem, dot_float


class FormalSum:
    """Immutable Z-linear combination of exponentials, zero terms pruned."""

    __slots__ = ("_rank", "_terms")

    def __init__(self, rank: int, terms=()):
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict = {}
        for weight, coeff in items:
            w = tuple(weight)
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

    @classmethod
    def _of(cls, rank: int, terms: dict) -> "FormalSum":
        """Trusted constructor: takes ownership of ``terms``, which must map
        rank-length tuples to nonzero ints.  Nothing is checked or copied."""
        out = cls.__new__(cls)
        out._rank = rank
        out._terms = terms
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

    def items_sorted(self):
        """Terms in lexicographic exponent order (the canonical order)."""
        return sorted(self._terms.items())

    def add(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            raise TypeError(f"cannot add FormalSum and {type(other).__name__}")
        if other._rank != self._rank:
            raise ValueError(f"rank mismatch: {self._rank} vs {other._rank}")
        merged = dict(self._terms)
        for w, c in other._terms.items():
            t = merged.get(w, 0) + c
            if t:
                merged[w] = t
            elif w in merged:
                del merged[w]
        return FormalSum._of(self._rank, merged)

    def scale(self, factor: int) -> "FormalSum":
        if not isinstance(factor, int) or isinstance(factor, bool):
            raise TypeError("scale factor must be an integer")
        if factor == 0:
            return FormalSum.zero(self._rank)
        return FormalSum._of(self._rank, {w: factor * c for w, c in self._terms.items()})

    def mul_exp(self, shift) -> "FormalSum":
        """Multiply by e^shift, i.e. translate every exponent."""
        s = tuple(shift)
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
        return self.add(other.scale(-1))

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._rank == other._rank and self._terms == other._terms

    def __repr__(self):
        body = ", ".join(f"{w}: {c}" for w, c in self.items_sorted()[:6])
        if len(self._terms) > 6:
            body += ", ..."
        return f"FormalSum(rank={self._rank}, {{{body}}})"

    def to_json_obj(self) -> list:
        """JSON form: [{"w": [...], "c": n}, ...] sorted lexicographically by w."""
        return [{"w": list(w), "c": c} for w, c in self.items_sorted()]

    @classmethod
    def from_json_obj(cls, obj, rank: int | None = None) -> "FormalSum":
        """Inverse of `to_json_obj`.  Exponent entries must be integers (not
        bools); coefficients pass through to the constructor's check."""
        entries = []
        for item in obj:
            w = tuple(item["w"])
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in w):
                raise TypeError(f"exponent {w} has a non-integer entry")
            entries.append((w, item["c"]))
        if rank is None:
            if not entries:
                raise ValueError("cannot infer rank of an empty serialized sum")
            rank = len(entries[0][0])
        return cls(rank, entries)


def check_point(rs: RootSystem, sigma) -> tuple[float, ...]:
    """An evaluation point of ``rs`` as floats, after checking its length."""
    if len(sigma) != rs.rank:
        raise ValueError(f"sigma {tuple(sigma)} has wrong length for {rs.name}")
    return tuple(float(x) for x in sigma)


def evaluate(rs: RootSystem, s: FormalSum, sigma) -> float:
    """Numeric value of ``s`` at ``sigma``: sum of coeff * exp(<w, sigma>).

    ``sigma`` lives in fundamental-weight coordinates and the pairing runs
    through the algebra's quadratic form, whose float row sums at ``sigma``
    are computed once for all terms.  Terms accumulate in lexicographic
    exponent order, so equal inputs give bit-equal outputs.
    """
    if s.rank != rs.rank:
        raise ValueError(f"sum has rank {s.rank}, algebra {rs.name} has rank {rs.rank}")
    covector = rs.form_float(check_point(rs, sigma))
    total = 0.0
    for w, c in s.items_sorted():
        total += c * math.exp(dot_float(w, covector))
    return total
