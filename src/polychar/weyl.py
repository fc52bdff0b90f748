"""Weyl group actions on weights: reflections, orbits, dominant
representatives, and, for the routes that sum over all of W, the whole
group up to rank 3, as a tuple of its elements (identity first, w0 last)."""

from functools import lru_cache
from operator import mul

from ._frozen import Frozen
from .rootsys import Root, RootSystem, Weight, check_weight, pairing

_ENUM_RANK_CAP = 3


def reflect_at_root(rs: RootSystem, root: Root, weight) -> Weight:
    """Reflect a weight in the hyperplane orthogonal to a positive root."""
    lam = check_weight(rs, weight)
    n = pairing(rs, lam, root)
    return tuple(x - n * a for x, a in zip(lam, root.weight_coords))


def reflect_simple(rs: RootSystem, i: int, weight) -> Weight:
    """Reflect a weight in the hyperplane of the i-th simple root (1-based)."""
    return reflect_at_root(rs, rs.simple_root(i), weight)


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


def _orbit_points(rs: RootSystem, lam) -> list:
    """Each point of the orbit of a dominant lam once, by reverse search
    (Avis and Fukuda, 1996) on the tree in which a weight's parent is its
    image under s_j at its first negative label j, the step
    `dominant_representative` takes.  A child of nu is s_i nu for a label
    nu_i > 0 whose image has no negative label before i.  Off the diagonal
    the Cartan entries are <= 0, so s_i raises every other label: only the
    labels negative in nu need the check."""
    cols = [root.weight_coords for root in rs.simple_roots]
    points = [lam]
    for nu in points:  # the list grows as the walk reaches new points
        negs = []  # the negative labels of nu before i
        for i, n in enumerate(nu):
            if n > 0:
                col = cols[i]
                # label k of s_i nu is nu[k] - n * col[k]
                for k in negs:
                    if nu[k] < n * col[k]:
                        break
                else:
                    points.append(tuple([x - n * a for x, a in zip(nu, col)]))
            elif n < 0:
                negs.append(i)
    return points


def orbit(rs: RootSystem, weight) -> frozenset:
    """The full Weyl orbit of a weight, walked from its dominant
    representative with each point reached once (`_orbit_points`)."""
    lam = check_weight(rs, weight)
    if min(lam) < 0:
        lam = dominant_representative(rs, lam)[0]
    return frozenset(_orbit_points(rs, lam))


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
    """One group element: fingerprint = image of rho, a reduced word
    (rightmost letter acts first; its length is the element's, and its
    parity the sign), and the matrix acting on Dynkin labels (column j =
    image of the j-th fundamental weight)."""

    __slots__ = _fields = ("fingerprint", "word", "matrix")

    def __init__(self, fingerprint: Weight, word: tuple[int, ...],
                 matrix: tuple[tuple[int, ...], ...]):
        self._store(fingerprint, word, matrix)

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
