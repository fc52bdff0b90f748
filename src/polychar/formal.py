"""Finite integer combinations of formal exponentials e^mu, keyed by weight.

A FormalSum is an element of the group ring Z[P]: a dict from exponent
tuples to nonzero integer coefficients.  All algebra here is exact; the only
numeric door is `evaluate`, which substitutes a real point, checked by
`check_point`, for the exponent pairing.

The Demazure operators (`demazure`) work on a packed form instead: each
exponent is one int, its labels in fixed-width fields, the first label most
significant, each label stored plus half the field's range so that every
field is nonnegative.  Packing is linear, so a step down a root string is
one subtraction, and packed ints sort in the lexicographic order of their
tuples.  A codec (`_Codec`) holds the field width for one root system.  It
is derived per sum, by the rule below, and never refuses: ints are
unbounded, so any exponent fits some width.

Bound.  Every operator output lies in conv(W . support), and for mu in the
support and w in W, |<w mu, alpha_j^vee>| = |<mu, w^-1 alpha_j^vee>| is the
pairing of mu with a coroot, at most c_max * |mu|_1, where c_max is the
largest coefficient of a positive coroot over the simple coroots.  A label's
absolute value is convex, so the same bound holds on the whole hull, and the
hull of any output lies inside the input's (it is W-invariant).  Two sums of
one codec add within it too: the points whose W-images all have labels
within the fields form a convex W-invariant set, which holds both hulls and
so the hull of their union.

One rule sizes every codec: its fields hold c_max * |mu|_1 for every
support point mu, plus the largest label of a positive root, both found once
per root system.  So no operator's arithmetic ever carries between fields,
and every W-image of a weight one root step past the hull, w mu + w beta,
still reads back: `polysum`'s dominant-weight walk and Freudenthal strings
form such weights, and read them with ``top`` (dominance), ``unpack`` and
``fold`` (the dominant representative).

A sum holds its terms in one form at a time: keyed by tuples, or packed
with its codec.  An operator packs its input in place and returns a sum of
the same codec; reading the terms unpacks a sum in place, in canonical order
when its JSON or `evaluate` has sorted them already, else in its packed
dict's order.  Two sums add packed only when they share one codec; any
other pair adds on tuples, so no codec is ever widened.  Two sums of one
codec compare their packed dicts; any other pair compares on tuples.

The Weyl orbit walk (`_Codec.orbit`) runs on the same packed ints, so the
oracle's polytope sum and Freudenthal's character are packed sums of
lam's codec, the codec of e^lam and so of the operator formulas' sums.
"""

import math
import struct
from functools import lru_cache
from operator import lshift
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


# struct codes of the field widths struct unpacks directly, by byte count;
# one struct.iter_unpack over these decodes a char-expand pass's results
# faster than reading the fields one by one (BENCH_22.json, "decode_paths");
# only that bulk decode uses struct: `_Codec.unpack` reads one weight's fields
_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


class _Codec:
    """Packing of one root system's exponents into ints with fields of
    ``nbytes`` bytes (module docstring).  ``pack`` and ``unpack_all`` are
    inverse on exponents whose labels lie in [-offset, offset).

    ``base``, the packed zero weight, sets each field's top bit and no
    other, and a field's top bit is set exactly when its label is >= 0; so
    ``top``, the same int, tests dominance in one AND: a packed weight is
    dominant iff ``p & top == top``."""

    __slots__ = ("rs", "nbytes", "shifts", "mask", "offset", "base", "top", "_row", "_steps",
                 "_children")

    def __init__(self, rs: RootSystem, nbytes: int):
        width = 8 * nbytes
        self.rs = rs
        self.nbytes = nbytes
        self.shifts = tuple(width * j for j in reversed(range(rs.rank)))
        self.mask = (1 << width) - 1
        self.offset = 1 << (width - 1)
        self.base = self.top = sum(self.offset << s for s in self.shifts)
        code = _STRUCT_CODES.get(nbytes)
        self._row = struct.Struct(">" + code * rs.rank) if code else None
        # a field's top bit -> (its shift, the packed difference of its simple root)
        self._steps = {s + width - 1: (s, self.delta(root.weight_coords))
                       for s, root in zip(self.shifts, rs.simple_roots)}
        # per field, first to last: (its shift, the packed difference of its
        # simple root, the top bits of the fields before it)
        self._children = tuple((s, step, self.top >> (s + width) << (s + width))
                               for s, step in self._steps.values())

    def delta(self, weight) -> int:
        """The packed difference of a weight: pack(mu + weight) is
        pack(mu) + delta(weight)."""
        return sum(map(lshift, weight, self.shifts))

    def pack(self, weight) -> int:
        return self.base + self.delta(weight)

    def pairing(self, labels) -> tuple:
        """How to pair a packed exponent p with an integer covector, given
        by its labels: the (shift, label) pairs of its nonzero labels and
        the constant that removes the fields' offsets, so that the pairing
        is ``lift + sum(cv * (p >> shift & mask))`` over the pairs."""
        fields = tuple((sh, cv) for sh, cv in zip(self.shifts, labels) if cv)
        return fields, -self.offset * sum(labels)

    def fold(self, q: int) -> int:
        """The packed dominant weight of the Weyl orbit of a packed weight
        q: `weyl.dominant_representative` on packed ints.

        A step reflects at the first negative label, as that function does.
        The negative labels are the fields whose top bit is clear, so the
        highest bit of ``top & ~q`` names the first of them, and s_i sends q
        to ``q - n * step_i``, with n the label and step_i the packed
        difference of alpha_i.  Every weight met is a Weyl image of q, so
        the fold is exact when q's whole orbit lies in the fields: for q in
        the hull the codec was sized for, or one root step past it (module
        docstring)."""
        top, mask, offset, steps = self.top, self.mask, self.offset, self._steps
        neg = top & ~q
        while neg:
            s, step = steps[neg.bit_length() - 1]
            q -= ((q >> s & mask) - offset) * step
            neg = top & ~q
        return q

    def orbit(self, p: int) -> list:
        """Each point of the Weyl orbit of a packed dominant weight p once,
        packed: reverse search (Avis and Fukuda, 1996) on the tree in which
        a weight's parent is its image under `fold`'s one step, the
        reflection at its first negative label.

        A child of q is s_i q = q - n * step_i for a field i whose label n
        is positive.  Off the diagonal the Cartan entries are <= 0, so s_i
        raises every other label, and s_i q has label -n at i: its parent
        is q exactly when the fields before i keep their top bits, one AND
        with the mask of those bits.  Exact when p lies in the hull the
        codec was sized for, which holds its whole orbit."""
        mask, offset, children = self.mask, self.offset, self._children
        points = [p]
        for q in points:  # the list grows as the walk reaches new points
            for s, step, before in children:
                n = (q >> s & mask) - offset
                if n > 0:
                    c = q - n * step
                    if c & before == before:
                        points.append(c)
        return points

    def unpack(self, p) -> tuple:
        """The exponent tuple of one packed int, read field by field; struct
        serves only the bulk decode of `unpack_all`."""
        mask, offset = self.mask, self.offset
        return tuple([(p >> s & mask) - offset for s in self.shifts])

    def unpack_all(self, keys) -> list:
        """The exponent tuples of packed ints, in their order.  For a width
        that struct reads, XOR with ``base`` flips each field's top bit,
        which turns offset fields into two's-complement ones that the bytes
        decode directly; wider fields are read one by one (`unpack`)."""
        if self._row is None:
            return list(map(self.unpack, keys))
        size = self.nbytes * self.rs.rank
        base = self.base
        data = b"".join([(p ^ base).to_bytes(size, "big") for p in keys])
        return list(self._row.iter_unpack(data))


@lru_cache(maxsize=None)  # one per root system and width in use
def _codec(rs: RootSystem, nbytes: int) -> _Codec:
    return _Codec(rs, nbytes)


@lru_cache(maxsize=None)  # one per root system
def _label_bounds(rs: RootSystem) -> tuple:
    """c_max, the largest coefficient of a positive coroot, and the largest
    label of a positive root: the two terms of the codecs' sizing rule."""
    return (max(map(max, rs.coroots.values())),
            max(max(map(abs, root.weight_coords)) for root in rs.positive_roots))


def _codec_for(rs: RootSystem, weights) -> _Codec:
    """The narrowest codec of rs whose fields hold c_max * |mu|_1 for every
    weight mu given, plus the largest label of a positive root (module
    docstring): 1, 2, 4 or 8 bytes, which struct decodes, while one of them
    suffices."""
    c_max, root_label = _label_bounds(rs)
    bound = c_max * max((sum(map(abs, w)) for w in weights), default=0) + root_label
    need = (bound.bit_length() + 8) // 8  # the bound's bits and a sign bit
    return _codec(rs, next((n for n in _STRUCT_CODES if n >= need), need))


class FormalSum:
    """Immutable Z-linear combination of exponentials, zero terms pruned.

    Its terms are one dict, in one form (module docstring): keyed by
    exponent tuples, with ``_codec`` None, or packed by ``_codec``.  Reading
    the terms turns a packed sum into a tuple sum in place, and an operator
    turns its input into a packed sum.  Neither changes the value, so the
    canonical (lexicographic) term order, sorted on first use and kept,
    never goes stale.  Two sums of one codec add and compare packed; any
    other pair adds and compares on tuples."""

    __slots__ = ("_rank", "_terms", "_sorted", "_codec")

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
        self._sorted = self._codec = None

    @classmethod
    def _of(cls, rank: int, terms: dict, codec: _Codec | None = None) -> "FormalSum":
        """Trusted constructor: takes ownership of ``terms``, which must map
        rank-length tuples to nonzero ints, or with a ``codec`` its packed
        ints, every label of conv(W . support) within its fields.  Nothing
        is checked or copied."""
        out = cls.__new__(cls)
        out._rank = rank
        out._terms = terms
        out._sorted = None
        out._codec = codec
        return out

    def _tuples(self) -> dict:
        """The terms keyed by exponent tuples, a packed sum unpacked in place
        first: from the canonical terms when they are sorted already, else
        in the packed dict's order."""
        codec = self._codec
        if codec is not None:
            packed = self._terms
            if self._sorted is not None:
                self._terms = dict(self._sorted)
            else:
                self._terms = dict(zip(codec.unpack_all(packed), packed.values()))
            self._codec = None
        return self._terms

    def _packed_for(self, rs: RootSystem) -> tuple:
        """(packed terms, codec) for the operators of ``rs``: a tuple sum, or
        a sum packed for another root system, is packed in place first, with
        a codec derived from its terms (`_codec_for`)."""
        codec = self._codec
        if codec is None or codec.rs is not rs:
            terms = self._tuples()
            codec = _codec_for(rs, terms)
            self._terms = {codec.pack(w): c for w, c in terms.items()}
            self._codec = codec
        return self._terms, codec

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
        return MappingProxyType(self._tuples())

    def coefficient(self, weight) -> int:
        return self._tuples().get(tuple(weight), 0)

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
        """The terms in lexicographic exponent order, as a shared tuple.  A
        packed sum sorts its ints, whose order is the tuples' order, and
        unpacks them in one pass."""
        if self._sorted is None:
            terms, codec = self._terms, self._codec
            if codec is None:
                self._sorted = tuple(sorted(terms.items()))
            else:
                keys = sorted(terms)
                self._sorted = tuple(zip(codec.unpack_all(keys), map(terms.__getitem__, keys)))
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
        """self + sign * other in one pass over other's terms: packed when
        both sides are packed by one codec, else on tuples."""
        if other._rank != self._rank:
            raise ValueError(f"rank mismatch: {self._rank} vs {other._rank}")
        codec = self._codec
        if codec is other._codec:
            merged, items = dict(self._terms), other._terms.items()
        else:
            codec = None
            merged, items = dict(self._tuples()), other._tuples().items()
        pop = merged.pop
        for w, c in items:
            t = pop(w, 0) + sign * c
            if t:
                merged[w] = t
        return FormalSum._of(self._rank, merged, codec)

    def scale(self, factor: int) -> "FormalSum":
        if not isinstance(factor, int) or isinstance(factor, bool):
            raise TypeError("scale factor must be an integer")
        if factor == 0:
            return FormalSum.zero(self._rank)
        return FormalSum._of(self._rank, {w: factor * c for w, c in self._tuples().items()})

    def mul_exp(self, shift) -> "FormalSum":
        """Multiply by e^shift, i.e. translate every exponent.  The result
        holds tuples: a translate can leave the codec's hull."""
        s = _check_exponent(shift)
        if len(s) != self._rank:
            raise ValueError(f"shift {s} has length {len(s)}, expected rank {self._rank}")
        return FormalSum._of(
            self._rank, {tuple(a + b for a, b in zip(w, s)): c for w, c in self._tuples().items()}
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
        if self._rank != other._rank:
            return False
        if self._codec is not None and self._codec is other._codec:
            return self._terms == other._terms
        return self._tuples() == other._tuples()

    def __repr__(self):
        body = ", ".join(f"{w}: {c}" for w, c in self._canonical()[:6])
        if len(self) > 6:
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
