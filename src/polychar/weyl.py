"""Weyl group actions on weights: reflections, orbits, dominant
representatives, and fully enumerated group tables for rank <= 3."""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

from .rootsys import Root, RootSystem, Weight, check_weight, pairing

_ENUM_RANK_CAP = 3


def reflect_at_root(rs: RootSystem, root: Root, weight) -> Weight:
    """Reflect a weight in the hyperplane orthogonal to an arbitrary root."""
    lam = check_weight(rs, weight)
    n = pairing(rs, lam, root)
    return tuple(x - n * a for x, a in zip(lam, root.weight_coords))


def reflect_simple(rs: RootSystem, i: int, weight) -> Weight:
    """Reflect a weight in the hyperplane of the i-th simple root (1-based)."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"reflection index {i} out of range 1..{rs.rank}")
    return reflect_at_root(rs, rs.simple_roots[i - 1], weight)


def dominant_representative(rs: RootSystem, weight):
    """The unique dominant weight in the Weyl orbit, plus a word mapping the
    input to it (rightmost letter acts first).

    Ties are broken by always reflecting at the smallest negative index, so
    the returned word is deterministic.
    """
    lam = check_weight(rs, weight)
    applied = []
    while True:
        neg = next((k for k, x in enumerate(lam) if x < 0), None)
        if neg is None:
            return lam, tuple(reversed(applied))
        n = lam[neg]
        alpha = rs.simple_roots[neg].weight_coords
        lam = tuple(x - n * a for x, a in zip(lam, alpha))
        applied.append(neg + 1)


def orbit(rs: RootSystem, weight) -> frozenset:
    """The full Weyl orbit of a weight, by closure under simple reflections."""
    lam = check_weight(rs, weight)
    cols = [root.weight_coords for root in rs.simple_roots]
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i, alpha in enumerate(cols):
                n = w[i]
                if n:
                    img = tuple(x - n * a for x, a in zip(w, alpha))
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
        frontier = nxt
    return frozenset(seen)


@dataclass(frozen=True)
class WeylElement:
    """One group element: fingerprint = image of rho, a reduced word
    (rightmost letter acts first), length, sign, and the matrix acting on
    Dynkin labels (column j = image of the j-th fundamental weight)."""

    fingerprint: Weight
    word: tuple[int, ...]
    length: int
    sign: int
    matrix: tuple[tuple[int, ...], ...]

    def apply(self, weight) -> Weight:
        """The image of a weight of the rank's length, in exact integers."""
        if len(weight) != len(self.matrix):
            raise ValueError("weight length mismatch")
        return tuple([sum(map(mul, row, weight)) for row in self.matrix])


@dataclass(frozen=True)
class WeylGroupTable:
    """All Weyl group elements in BFS discovery order (identity first), and
    the positive roots (Dynkin labels, in the root system's order) they
    permute up to sign."""

    elements: tuple[WeylElement, ...]
    longest_index: int
    positive_roots: tuple[Weight, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def longest(self) -> WeylElement:
        return self.elements[self.longest_index]

    @cached_property
    def root_permutation(self) -> tuple[tuple[int, ...], ...]:
        """One row per element: entry k is +(j+1) when the element maps the
        k-th positive root to the j-th, and -(j+1) when it maps it to minus
        the j-th.  Built on first use, not by ``weyl_group``."""
        index = {}
        for j, beta in enumerate(self.positive_roots):
            index[beta] = j + 1
            index[tuple(-x for x in beta)] = -(j + 1)
        return tuple(
            tuple(index[el.apply(beta)] for beta in self.positive_roots)
            for el in self.elements
        )


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


@lru_cache(maxsize=None)
def weyl_group(rs: RootSystem) -> WeylGroupTable:
    """Enumerate the whole Weyl group by BFS over simple reflections.

    BFS reaches every element at its minimal word length, so the first
    discovered word is reduced; elements are fingerprinted by their action
    on the Weyl vector, which is faithful.
    """
    if rs.rank > _ENUM_RANK_CAP:
        raise ValueError(
            f"full Weyl-group enumeration is capped at rank {_ENUM_RANK_CAP}; got {rs.name}"
        )
    r = rs.rank
    identity = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    refl = []
    for i in range(r):
        alpha = rs.simple_roots[i].weight_coords
        refl.append(
            tuple(
                tuple(int(a == b) - (alpha[a] if b == i else 0) for b in range(r))
                for a in range(r)
            )
        )
    rho = rs.weyl_vector
    elements = [WeylElement(rho, (), 0, 1, identity)]
    index = {rho: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            el = elements[idx]
            for i in range(r):
                mat = _matmul(refl[i], el.matrix)
                fp = tuple(sum(row) for row in mat)  # the image of rho = (1, ..., 1)
                if fp in index:
                    continue
                index[fp] = len(elements)
                nxt.append(len(elements))
                elements.append(
                    WeylElement(fp, (i + 1,) + el.word, el.length + 1, -el.sign, mat)
                )
        frontier = nxt
    top = max(el.length for el in elements)
    longest = [k for k, el in enumerate(elements) if el.length == top]
    if len(longest) != 1:
        raise AssertionError("longest element is not unique")
    roots = tuple(root.weight_coords for root in rs.positive_roots)
    return WeylGroupTable(tuple(elements), longest[0], roots)
