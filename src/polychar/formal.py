"""Finite integer combinations of formal exponentials e^mu, keyed by weight.

A FormalSum is an element of the group ring Z[P]: a dict from exponent
tuples to nonzero integer coefficients.  All algebra here is exact; the only
numeric door is `evaluate`, which substitutes each point of a real
sample, checked by `check_sample`, for the exponent pairing.

The Demazure operators (`demazure`) work on a packed form instead: each
exponent is one int, its labels in fixed-width fields, the first label most
significant, each label stored plus half the field's range so that every
field is nonnegative.  Packing is linear, so a step down a root string is
one subtraction, and packed ints sort in the lexicographic order of their
tuples.  A codec (`_Codec`) holds the field width for one root system and
one packed zero, ``top``, whose bits are the fields' top bits: it tests
dominance, and flipping those bits makes the fields two's-complement for
the bulk decode, `_Codec.unpack_flat`, which reads a whole sequence of
packed ints in one struct round trip.  A codec is derived per sum, by the
rule below, and never refuses: ints are unbounded, so any exponent fits
some width.

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
form such weights, and read them with ``top`` (dominance) and
``straighten`` (the dominant representative).  `polysum`'s straightening
route packs by the codec of lam + rho, and every weight it folds lies in
conv(W(lam + rho)) (docs/expand.md).

A sum holds its terms in one form, fixed when it is built: keyed by
tuples, or packed with its codec.  No function changes a sum it is given.
An operator reads a packed copy of a tuple input (`_packed_for`) and
returns a sum packed by that copy's codec; reading the terms of a packed
sum builds a new tuple dict, in canonical order, and the sum stays packed.
Two sums add packed only when they share one codec; any other pair adds on
tuples, so no codec is ever widened.  Two sums of one codec compare their
packed dicts; any other pair compares on tuples.

One accumulator, `_accumulate`, adds signed terms into a dict, optionally
moved by a packed step, and drops each entry that cancels: `+`, `-` and
`add` run it on a copy of the left operand, the operator d on its fresh
output, and the polytope formula's brackets on their staged parts.  Only
the constructor, which checks each term it is given, keeps a loop of its
own.

The Weyl orbit walk (`_Codec.orbit`) runs on the same packed ints, one
level of its search at a time, so the oracle's polytope sum and
Freudenthal's character are packed sums of lam's codec, the codec of e^lam
and so of the operator formulas' sums.
"""

import math
import struct
from functools import lru_cache
from operator import lshift
from types import MappingProxyType

from .rootsys import RootSystem, covector_at, dot_float


def terms_json_text(labels, coeffs, rank: int) -> str:
    """Canonical JSON text of a sum's terms, given in their order as one
    flat sequence of exponent labels, ``rank`` to a term, and their
    coefficients: one int when every term has that value, as every
    polytope sum's do, or else the sequence of the coefficients in term
    order.  Byte for byte what ``json.dumps([{"w": w, "c": c}, ...],
    sort_keys=True, separators=(",", ":"))`` prints.  The one sum writer:
    each coefficient value has one term pattern with the value written in,
    the format string is those patterns in term order, and only the labels
    go through its one ``%``.  One value repeats one pattern; no per-term
    tuple, dict or string is built, and the coefficients are not scanned
    for a single value here: the caller knows."""
    n = len(labels) // rank
    if not n:
        return "[]"
    # a term's exponent part, keys sorted and no spaces: ',"w":[%d,%d]}'
    exponent = ',"w":[' + ",".join(["%d"] * rank) + "]}"
    if isinstance(coeffs, int):
        term = '{"c":%d' % coeffs + exponent
        text = "[" + term + ("," + term) * (n - 1) + "]"
    else:
        patterns = {c: '{"c":%d' % c + exponent for c in set(coeffs)}
        text = "[" + ",".join(map(patterns.__getitem__, coeffs)) + "]"
    return text % tuple(labels)


# signed struct codes of the widths struct reads, by byte count (upper case
# for unsigned): `_Codec.unpack_flat`, the bulk decode, packs each key into
# unsigned words, one of at most 8 bytes or, for a wider key, as many 8-byte
# words as it needs, and reads their fields back signed, a fixed number of C
# calls for the whole sequence; `_Codec.unpack` reads one weight's fields,
# and fields past 8 bytes, one by one
_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
# the bytes a field or key needs -> the narrowest width struct reads that holds it
_WIDTHS = {need: next(n for n in _STRUCT_CODES if n >= need) for need in range(1, 9)}
# each byte with its top bit flipped: offset fields <-> two's-complement ones
_FLIP = bytes(b ^ 0x80 for b in range(256))


class _Codec:
    """Packing of one root system's exponents into ints with fields of
    ``nbytes`` bytes (module docstring).  ``pack`` and ``unpack_all`` are
    inverse on exponents whose labels lie in [-offset, offset).

    ``top``, the packed zero weight, sets each field's top bit and no
    other, and a field's top bit is set exactly when its label is >= 0; so
    the same int tests dominance in one AND: a packed weight is dominant
    iff ``p & top == top``.  With those bits flipped, a packed int has
    two's-complement fields, which `unpack_flat`, the bulk decode, reads
    with struct; `unpack_all` regroups its labels.

    ``roots`` is the codec's root table, built here once, the one place a
    root's packed constants are derived: for each positive root, keyed by
    its simple-root coordinates in `RootSystem.positive_roots` order, the
    tuple (step, fields, lift, height).  ``step`` is the root's packed
    difference, ``p - step`` the packed weight one root lower.  ``fields``
    and ``lift`` pair a packed exponent with the root's coroot: the
    (shift, label) pairs of its nonzero coroot labels and the constant that
    removes the fields' offsets, so that the pairing is ``lift + sum(cv *
    (p >> shift & mask))`` over the pairs.  ``height`` is the root's.  The
    operators, the dominant-weight walk, Freudenthal's strings, G2's
    translate, `straighten` and `orbit` read their steps from it."""

    __slots__ = ("rs", "nbytes", "shifts", "mask", "offset", "top", "roots", "_steps",
                 "_children")

    def __init__(self, rs: RootSystem, nbytes: int):
        width = 8 * nbytes
        self.rs = rs
        self.nbytes = nbytes
        self.shifts = shifts = tuple(width * j for j in reversed(range(rs.rank)))
        self.mask = (1 << width) - 1
        self.offset = offset = 1 << (width - 1)
        self.top = sum(offset << s for s in shifts)
        self.roots = {}
        for root in rs.positive_roots:
            labels = rs.coroots[root.root_coords]
            fields = tuple((sh, cv) for sh, cv in zip(shifts, labels) if cv)
            self.roots[root.root_coords] = (self.delta(root.weight_coords), fields,
                                            -offset * sum(labels), root.height)
        # a field's top bit -> (its shift, the packed step of its simple root)
        simple_steps = [self.roots[root.root_coords][0] for root in rs.simple_roots]
        self._steps = {s + width - 1: (s, step) for s, step in zip(shifts, simple_steps)}
        # per field, first to last: (its shift, the packed step of its simple
        # root, the top bits of the fields before it)
        self._children = tuple((s, step, self.top >> (s + width) << (s + width))
                               for s, step in zip(shifts, simple_steps))

    def delta(self, weight) -> int:
        """The packed difference of a weight: pack(mu + weight) is
        pack(mu) + delta(weight)."""
        return sum(map(lshift, weight, self.shifts))

    def pack(self, weight) -> int:
        return self.top + self.delta(weight)

    def straighten(self, q: int) -> tuple:
        """The packed dominant weight of the Weyl orbit of a packed weight
        q, `weyl.dominant_representative` on packed ints, with what the
        fold took: (that weight, the number of reflections, the height
        they raised q by).  The one packed loop that folds a weight into
        the dominant chamber.

        A step reflects at the first negative label, as that function does.
        The negative labels are the fields whose top bit is clear, so the
        highest bit of ``top & ~q`` names the first of them, and s_i sends q
        to ``q - n * step_i``, with n the label and step_i the packed
        difference of alpha_i; the weight rises by -n.  Every weight met is
        a Weyl image of q, so the fold is exact when q's whole orbit lies in
        the fields: for q in the hull the codec was sized for, or one root
        step past it (module docstring).  Freudenthal's strings and
        `weyl.orbit` read the weight alone; `polysum`'s straightening route
        folds x + rho for the sign and the depth of D_{w0} e^x."""
        top, mask, offset, steps = self.top, self.mask, self.offset, self._steps
        flips = raised = 0
        neg = top & ~q
        while neg:
            s, step = steps[neg.bit_length() - 1]
            n = (q >> s & mask) - offset
            q -= n * step
            flips += 1
            raised -= n
            neg = top & ~q
        return q, flips, raised

    def orbit(self, *dominant: int) -> list:
        """Each point of the Weyl orbits of distinct packed dominant weights
        once, packed: reverse search (Avis and Fukuda, 1996) on the forest
        in which a weight's parent is its image under one step of
        `straighten`, the reflection at its first negative label, and the
        dominant weights are the roots.  Distinct dominant weights have
        disjoint orbits, so one walk from all of them meets each point
        once.

        A child of q is s_i q = q - n * step_i for a field i whose label n
        is positive.  Off the diagonal the Cartan entries are <= 0, so s_i
        raises every other label, and s_i q has label -n at i: its parent
        is q exactly when the fields before i keep their top bits, one AND
        with the mask of those bits.  The walk takes one level of the
        forest at a time: per simple reflection, one comprehension takes
        the children of the whole level, so the points come level by level
        and, within a level, by field; no caller reads that order.  Exact
        when the weights lie in the hull the codec was sized for, which
        holds their whole orbits."""
        mask, offset, children = self.mask, self.offset, self._children
        points, level = list(dominant), dominant
        while level:
            new = []
            for s, step, before in children:
                new += [c for q in level if (n := (q >> s & mask) - offset) > 0
                        and (c := q - n * step) & before == before]
            points += new
            level = new
        return points

    def unpack(self, p) -> tuple:
        """The exponent tuple of one packed int, read field by field; struct
        serves only the bulk decode, `unpack_flat`."""
        mask, offset = self.mask, self.offset
        return tuple([(p >> s & mask) - offset for s in self.shifts])

    def unpack_all(self, keys) -> list:
        """The exponent tuples of a sequence of packed ints, in their order:
        the labels of `unpack_flat`, ``rank`` to a tuple."""
        labels = iter(self.unpack_flat(keys))
        return list(zip(*[labels] * self.rs.rank))

    def unpack_flat(self, keys):
        """The labels of a sequence of packed ints, in their order, as one
        flat sequence, ``rank`` to a weight.  Fields of at most 8 bytes take
        a fixed number of C calls for the whole sequence: one `struct.pack`
        of every key into big-endian unsigned words, the narrowest word
        that holds a key or, for a key past 8 bytes, ``ceil(size / 8)``
        eight-byte words, most significant first; one extended-slice delete
        per pad byte, which strips each key's leading zero bytes; one
        `bytes.translate` of each field's first byte, which flips its top
        bit and so turns offset fields into two's-complement ones; and one
        signed `struct.unpack`.  Fields past 8 bytes are read one by one
        (`unpack`)."""
        nbytes, rank = self.nbytes, self.rs.rank
        if nbytes > 8:
            return [x for p in keys for x in self.unpack(p)]
        size = nbytes * rank
        if size > 8:
            shifts = range(64 * (size - 1 >> 3), -1, -64)
            words = [p >> s & 0xFFFFFFFFFFFFFFFF for p in keys for s in shifts]
            width, code = 8 * len(shifts), "Q"
        else:
            words, width = keys, _WIDTHS[size]
            code = _STRUCT_CODES[width].upper()
        data = bytearray(len(keys) * width)
        struct.pack_into(f">{len(words)}{code}", data, 0, *words)
        for j in range(width - size):
            del data[::width - j]
        data[::nbytes] = data[::nbytes].translate(_FLIP)
        return struct.unpack(f">{len(keys) * rank}{_STRUCT_CODES[nbytes]}", data)


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
    docstring): 1, 2, 4 or 8 bytes, the field widths struct reads, while
    one of them suffices."""
    c_max, root_label = _label_bounds(rs)
    bound = c_max * max([sum(map(abs, w)) for w in weights], default=0) + root_label
    need = (bound.bit_length() + 8) // 8  # the bound's bits and a sign bit
    return _codec(rs, _WIDTHS.get(need, need))


def _accumulate(acc: dict, terms: dict, shift: int, sign: int) -> None:
    """Add ``terms``, each multiplied by ``sign`` and, when ``shift`` is
    nonzero, each key moved by that packed step, into ``acc``, deleting
    each entry that cancels, so no zero is kept.  Into an empty ``acc``
    unmoved terms of sign 1 are copied whole.  Tuple keys pass through
    with ``shift`` 0.  The one loop that adds signed terms into a dict
    (module docstring)."""
    if not acc and not shift and sign == 1:
        acc.update(terms)
        return
    get = acc.get
    for p, c in terms.items():
        if shift:
            p += shift
        c = get(p, 0) + sign * c
        if c:
            acc[p] = c
        else:
            del acc[p]


class FormalSum:
    """Immutable Z-linear combination of exponentials, zero terms pruned.

    Its terms are one dict, in one form fixed when the sum is built (module
    docstring): keyed by exponent tuples, with ``_codec`` None, or packed by
    ``_codec``.  Only ``__init__`` and `_of` set them: an operator reads a
    packed copy of its input, and reading a packed sum's terms builds a new
    tuple dict.  So the canonical (lexicographic) term order, sorted on
    first use and kept, never goes stale.  Two sums of one codec add and
    compare packed; any other pair adds and compares on tuples."""

    __slots__ = ("_rank", "_terms", "_sorted", "_codec")

    def __init__(self, rank: int, terms=()):
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict = {}
        for weight, coeff in items:
            w = tuple(weight)
            if not all(type(x) is int for x in w):
                raise TypeError(f"exponent {w} has a non-integer entry")
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
        """The terms keyed by exponent tuples: a tuple sum's own dict, or a
        new one, in canonical order, from a packed sum, which stays packed."""
        return self._terms if self._codec is None else dict(self._canonical())

    def _packed_for(self, rs: RootSystem) -> tuple:
        """(packed terms, codec) for the operators of ``rs``: a sum packed
        for ``rs`` gives its own; a tuple sum, or a sum packed for another
        root system, gives a new dict packed by a codec derived from its
        terms (`_codec_for`).  The sum itself is never changed."""
        codec = self._codec
        if codec is not None and codec.rs is rs:
            return self._terms, codec
        terms = self._tuples()
        codec = _codec_for(rs, terms)
        return {codec.pack(w): c for w, c in terms.items()}, codec

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

    def coefficient_sum(self) -> int:
        """Sum of all coefficients (the value of the sum at the origin)."""
        return sum(self._terms.values())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def _canonical(self) -> tuple:
        """The terms in lexicographic exponent order, as a shared tuple,
        sorted once: the terms never change form.  Both forms sort their
        keys and read the coefficients by them.  A tuple key is its own
        weight; a packed sum's ints sort in the tuples' order and unpack in
        one pass."""
        if self._sorted is None:
            terms, codec = self._terms, self._codec
            keys = sorted(terms)
            weights = keys if codec is None else codec.unpack_all(keys)
            self._sorted = tuple(zip(weights, map(terms.__getitem__, keys)))
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
        """self + sign * other: a copy of self's dict, other's terms added
        into it by `_accumulate`, packed when both sides are packed by one
        codec, else on tuples."""
        if other._rank != self._rank:
            raise ValueError(f"rank mismatch: {self._rank} vs {other._rank}")
        codec = self._codec
        if codec is other._codec:
            merged, terms = dict(self._terms), other._terms
        else:
            codec = None
            merged, terms = dict(self._tuples()), other._tuples()
        _accumulate(merged, terms, 0, sign)
        return FormalSum._of(self._rank, merged, codec)

    def scale(self, factor: int) -> "FormalSum":
        if not isinstance(factor, int) or isinstance(factor, bool):
            raise TypeError("scale factor must be an integer")
        if factor == 0:
            return FormalSum(self._rank)
        terms = {w: factor * c for w, c in self._terms.items()}
        return FormalSum._of(self._rank, terms, self._codec)

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
        written by `terms_json_text` from the sorted keys: a tuple key is its
        own labels, and a packed sum's labels are decoded in one pass
        (`_Codec.unpack_flat`), with no exponent tuple built.  The dict's
        values are scanned once for a single value: a sum of one value
        passes that int, and only a sum of several reads its coefficients
        in key order."""
        codec, terms = self._codec, self._terms
        keys = sorted(terms)
        labels = [x for w in keys for x in w] if codec is None else codec.unpack_flat(keys)
        values = list(terms.values())
        if values and values.count(values[0]) == len(values):
            coeffs = values[0]
        else:
            coeffs = list(map(terms.__getitem__, keys))
        return terms_json_text(labels, coeffs, self._rank)


def check_sample(rs: RootSystem, sigmas) -> tuple:
    """A sample of evaluation points of ``rs``, in order, as a tuple of
    float tuples, after checking every point's length: the float layer's
    one input form, in which a single point is a one-point sample.
    Finiteness is checked later, by `exp_table`."""
    points = []
    for sigma in sigmas:
        if len(sigma) != rs.rank:
            raise ValueError(f"sigma {tuple(sigma)} has wrong length for {rs.name}")
        points.append(tuple(map(float, sigma)))
    return tuple(points)


@lru_cache(maxsize=1)
def exp_table(rs: RootSystem, points) -> tuple:
    """The exponential tables of a checked sample ``points`` of ``rs``, one
    per point, in order: the pair (``form_float(sig)``, a dict from integer
    weight w to math.exp(dot_float(w, form_float(sig)))), the dict filled
    by its readers on first lookup of each weight.  The covector is the
    point's one (`rootsys.covector_at`), which the root pairings of the
    sample's factor table read too.

    `evaluate` and the vertex-cone evaluators all read this one entry, and
    `eval` passes them one chunk of its points at a time, so it keeps one
    sample: after a direct call it holds about len(s) * len(points)
    exponentials until the next call with another sample.  Raises
    ValueError, and keeps nothing, when a coordinate of any point is NaN
    or infinite; every point's finiteness is checked before any covector
    is built.
    """
    for sig in points:
        if not all(map(math.isfinite, sig)):
            raise ValueError(f"sigma {sig} has a non-finite coordinate")
    return tuple([(covector_at(rs, sig), {}) for sig in points])


def evaluate(rs: RootSystem, s: FormalSum, sigmas) -> list:
    """Numeric values of ``s`` at a sample of points ``sigmas``, one float
    per point, in order: the sum of coeff * exp(<w, sigma>) at each.

    Each sigma lives in fundamental-weight coordinates and the pairing runs
    through the algebra's quadratic form.  The sum's rank is checked, then
    every point's length (`check_sample`), then every point's finiteness
    (`exp_table`).  Each exponential comes from its point's table: a weight
    met before at that point, by another sum or by the vertex-cone
    evaluators, costs one lookup, and an exponential that overflows raises
    OverflowError and is not stored.  So does a total that overflows
    though no exponential does; the first point, in order, that overflows
    raises.  Terms accumulate in lexicographic exponent order, so equal
    inputs give bit-equal outputs.  The tables keep the last sample, about
    len(s) * len(sigmas) exponentials, until a call with another sample.
    """
    if s.rank != rs.rank:
        raise ValueError(f"sum has rank {s.rank}, algebra {rs.name} has rank {rs.rank}")
    terms = s._canonical()
    values = []
    for covector, exps in exp_table(rs, check_sample(rs, sigmas)):
        get = exps.get
        total = 0.0
        for w, c in terms:
            e = get(w)
            if e is None:
                e = exps[w] = math.exp(dot_float(w, covector))
            total += c * e
        if not math.isfinite(total):
            raise OverflowError("the sum's value is past the float range")
        values.append(total)
    return values
