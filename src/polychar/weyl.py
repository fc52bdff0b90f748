"""Weyl group actions on weights: orbits, dominant representatives, and,
for the routes that sum over all of W, the whole group up to rank 3, as a
tuple of its elements (identity first, w0 last).  A reflection of a sum's
exponents is `demazure.apply_r_root` or `demazure.apply_r_simple`."""

from functools import lru_cache
from operator import mul

from ._frozen import Frozen
from .formal import _codec_for
from .rootsys import RootSystem, Weight, check_weight

_ENUM_RANK_CAP = 3


def dominant_representative(rs: RootSystem, weight):
    """The unique dominant weight in the Weyl orbit, plus a word mapping the
    input to it (rightmost letter acts first).

    Ties are broken by always reflecting at the smallest negative index, so
    the returned word is deterministic.
    """
    lam = check_weight(rs, weight)
    simple = rs.simple_roots
    applied = []
    while True:
        for k, n in enumerate(lam):
            if n < 0:
                break
        else:
            return lam, tuple(reversed(applied))
        alpha = simple[k].weight_coords
        lam = tuple([x - n * a for x, a in zip(lam, alpha)])
        applied.append(k + 1)


def orbit(rs: RootSystem, weight) -> frozenset:
    """The full Weyl orbit of a weight: its dominant representative, folded
    on packed ints of the weight's codec, walked with each point reached
    once (`formal._Codec.orbit`), and unpacked in one pass.  The codec holds
    every Weyl image of the weight (`formal._codec_for`)."""
    lam = check_weight(rs, weight)
    codec = _codec_for(rs, (lam,))
    return frozenset(codec.unpack_all(codec.orbit(codec.straighten(codec.pack(lam))[0])))


def orbit_size(rs: RootSystem, lam) -> int:
    """|W| / |W_lam|, the orbit's size, for a dominant weight.  It depends
    only on which labels of lam are zero, so it is kept per algebra and
    zero pattern (`_orbit_size`)."""
    lam = check_weight(rs, lam, dominant=True)
    return _orbit_size(rs, tuple([x > 0 for x in lam]))


@lru_cache(maxsize=None)
def _orbit_size(rs: RootSystem, support: tuple) -> int:
    """Both orders are products of (ht beta + 1) / ht beta over positive
    roots (|W_lam| over those on lam's zero labels), so this runs over the
    roots whose support meets a nonzero label."""
    num = den = 1
    for root in rs.positive_roots:
        if any(c and x for c, x in zip(root.root_coords, support)):
            num *= root.height + 1
            den *= root.height
    size, rem = divmod(num, den)
    if rem:
        raise AssertionError("orbit size must be an integer")
    return size


class WeylElement(Frozen):
    """One group element: fingerprint = image of rho, a tuple of ints; a
    reduced word, a tuple of simple-reflection indices from 1 (rightmost
    letter acts first; its length is the element's, and its parity the
    sign); and the matrix acting on Dynkin labels, a tuple of int rows
    (column j = image of the j-th fundamental weight)."""

    __slots__ = _fields = ("fingerprint", "word", "matrix")

    def apply(self, weight) -> Weight:
        """The image of a weight of the rank's length, in exact integers."""
        if len(weight) != len(self.matrix):
            raise ValueError("weight length mismatch")
        return tuple([sum(map(mul, row, weight)) for row in self.matrix])


@lru_cache(maxsize=None)
def weyl_group(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The whole Weyl group, enumerated by BFS over simple reflections, as
    the tuple of its elements in discovery order.

    BFS reaches every element at its minimal word length, so the first
    discovered word is reduced and the elements come in order of length:
    the identity first, and w0, the only element of greatest length, last.
    Elements are fingerprinted by their action on the Weyl vector, which is
    faithful.
    """
    if rs.rank > _ENUM_RANK_CAP:
        raise ValueError(
            f"full Weyl-group enumeration is capped at rank {_ENUM_RANK_CAP}; got {rs.name}"
        )
    r = rs.rank
    identity = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    cols = [root.weight_coords for root in rs.simple_roots]
    rho = rs.weyl_vector
    elements = [WeylElement(rho, (), identity)]
    seen = {rho}
    for el in elements:  # the list is the BFS queue and grows as it goes
        for i, alpha in enumerate(cols):
            # s_i x = x - x_i alpha_i: the fingerprint first, the matrix
            # (row a minus alpha_i[a] times row i) only for a new element
            n = el.fingerprint[i]
            fp = tuple(x - n * a for x, a in zip(el.fingerprint, alpha))
            if fp in seen:
                continue
            seen.add(fp)
            pivot = el.matrix[i]
            mat = tuple(
                tuple(x - a * p for x, p in zip(row, pivot)) if a else row
                for row, a in zip(el.matrix, alpha)
            )
            elements.append(WeylElement(fp, (i + 1,) + el.word, mat))
    return tuple(elements)
