"""Cartan data and root systems for the simple Lie algebra families A-D and G2.

Weights are plain tuples of Dynkin labels (integer coordinates with respect
to the fundamental weights).  Each root additionally carries its coordinates
over the simple-root basis, so root-lattice membership, dominance gaps and
reflection strings reduce to integer checks.  A root system is built in
integers: one fraction-free elimination gives the Cartan determinant and
adjugate, and the quadratic form on weight space is kept as an integer Gram
matrix plus one scale (the lcm of its denominators), so every exact inner
product is an integer loop, and ``inner`` divides by the scale only at the
end.  Floats serve only the numeric checks, through
``form_float``, ``inner_float`` and ``dot_float``.

Fixed conventions, asserted throughout the test suite:

* ``cartan[i][j]`` is the pairing of the j-th simple root against the i-th
  simple coroot, so the Dynkin labels of ``alpha_j`` form column ``j``.
* Long roots are normalized to squared length 2.
* B puts its short simple root last (B2: ``<alpha_1, alpha_2^vee> = -2``),
  C puts its long simple root last, and G2 leads with the long root
  (``<alpha_1, alpha_2^vee> = -3``).
"""

import math
from functools import cached_property, lru_cache
from operator import mul

from ._frozen import Frozen

Weight = tuple[int, ...]

_RANK_CAP = 8
# each supported family and its lowest rank, in the order errors list them
_LOWEST_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}


class AlgebraId(Frozen):
    """Family letter plus rank, e.g. A2 or G2."""

    __slots__ = _fields = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in _LOWEST_RANK:
            raise ValueError(
                f"unsupported family {family!r}: expected one of {', '.join(_LOWEST_RANK)}"
            )
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        if rank > _RANK_CAP:
            raise ValueError(f"rank {rank} exceeds the desk-scale cap of {_RANK_CAP}")
        if family == "G" and rank != 2:
            raise ValueError("the G family only exists at rank 2")
        if rank < _LOWEST_RANK[family]:
            raise ValueError(f"family {family} starts at rank {_LOWEST_RANK[family]}")
        super().__init__(family, rank)

    @classmethod
    def parse(cls, name: str) -> "AlgebraId":
        text = str(name).strip().upper()
        digits = text[1:]
        if len(text) < 2 or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse algebra name {name!r}; expected e.g. 'A2' or 'g2'")
        return cls(text[0], int(digits))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class Root(Frozen):
    """A root in both coordinate systems: ``weight_coords``, its Dynkin
    labels, and ``root_coords``, its coordinates over the simple roots,
    each a tuple of ints."""

    __slots__ = _fields = ("weight_coords", "root_coords")

    @property
    def height(self) -> int:
        return sum(self.root_coords)


# build_root_system makes one RootSystem per algebra and hands out that one
# object, so a root system is its own identity: it compares and hashes as
# object does, and the caches keyed on one (weyl_group and the numeric
# tables) hash it in C.  Equal root systems are the same object, so they hash
# equal; a copy or an unpickled one is that object again (__reduce__).  The
# __dict__ slot holds the cached_property members.
class RootSystem(Frozen):
    """Static data of one simple Lie algebra.

    Fields
    ------
    id : AlgebraId
    cartan : rank x rank integer matrix, cartan[i][j] = <alpha_j, alpha_i^vee>
    positive_roots : all positive roots, sorted by height then by coordinates
        (the first ``rank`` entries are the simple roots alpha_1..alpha_r)
    coroots : simple-root coordinates -> coroot labels, per positive root
        (the coordinates of beta^vee over the simple coroots)
    weyl_vector : rho = (1, ..., 1)
    cartan_det : det(cartan), a positive integer
    cartan_adjugate : the integer matrix cartan_det * cartan^-1
    form_scale : the positive integer by which ``inner_scaled`` multiplies
        ``inner``: the lcm of the denominators of the Gram matrix of the
        fundamental weights
    gram_scaled : form_scale times that Gram matrix, an integer matrix
    """

    _fields = (
        "id", "cartan", "positive_roots", "coroots", "weyl_vector",
        "cartan_det", "cartan_adjugate", "form_scale", "gram_scaled",
    )
    __slots__ = _fields + ("__dict__",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        return build_root_system, (self.id,)

    @property
    def rank(self) -> int:
        return self.id.rank

    @property
    def name(self) -> str:
        return str(self.id)

    @cached_property
    def simple_roots(self) -> tuple[Root, ...]:
        return self.positive_roots[: self.rank]

    @cached_property
    def highest_coroot(self) -> tuple[int, ...]:
        """The coroot labels of the highest coroot: every positive coroot's
        labels are at most its own, entry by entry, so it pairs largest with
        every dominant weight."""
        return tuple(map(max, zip(*self.coroots.values())))

    @cached_property
    def _root_by_coords(self) -> dict:
        return {root.root_coords: root for root in self.positive_roots}

    @cached_property
    def _gram_float(self) -> tuple[tuple[float, ...], ...]:
        # int / int rounds correctly, like float(Fraction), so these are the
        # nearest floats to the exact entries
        scale = self.form_scale
        return tuple(tuple(x / scale for x in row) for row in self.gram_scaled)

    def root(self, root_coords) -> Root:
        """The positive root with the given simple-root coordinates."""
        try:
            return self._root_by_coords[tuple(root_coords)]
        except KeyError:
            raise ValueError(
                f"{tuple(root_coords)} is not a positive root of {self.name}"
            ) from None

    def simple_root(self, i: int) -> Root:
        """The i-th simple root, 1-based; ValueError outside 1..rank."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple-root index {i} out of range 1..{self.rank}")
        return self.simple_roots[i - 1]

    def root_coords_of_weight(self, weight):
        """Simple-root coordinates of a weight-lattice vector, or None when the
        vector is not in the root lattice."""
        det = self.cartan_det
        adj = self.cartan_adjugate
        r = self.rank
        out = []
        for i in range(r):
            v = sum(adj[i][j] * weight[j] for j in range(r))
            if v % det:
                return None
            out.append(v // det)
        return tuple(out)

    def inner_scaled(self, mu, nu) -> int:
        """``form_scale`` times the inner product of two vectors given in
        Dynkin labels, an exact integer."""
        r = self.rank
        if len(mu) != r or len(nu) != r:
            raise ValueError("weight length mismatch")
        G = self.gram_scaled
        total = 0
        for i in range(r):
            mi = mu[i]
            if mi:
                row = G[i]
                acc = 0
                for j in range(r):
                    acc += row[j] * nu[j]
                total += mi * acc
        return total

    def inner(self, mu, nu):
        """Exact inner product of two vectors given in Dynkin labels, a
        Fraction."""
        from fractions import Fraction

        return Fraction(self.inner_scaled(mu, nu), self.form_scale)

    def form_float(self, nu) -> tuple[float, ...]:
        """The float Gram row sums G nu: ``dot_float(mu, form_float(nu))`` is
        ``inner_float(mu, nu)``, so a caller pairing many mu with one nu
        computes them once."""
        gram = self._gram_float
        if len(nu) != len(gram):
            raise ValueError("weight length mismatch")
        out = []
        for row in gram:
            acc = 0.0
            for g, x in zip(row, nu):
                acc += g * x
            out.append(acc)
        return tuple(out)

    def inner_float(self, mu, nu) -> float:
        """The inner product in floats: ``dot_float(mu, form_float(nu))``."""
        if len(mu) != self.rank:
            raise ValueError("weight length mismatch")
        return dot_float(mu, self.form_float(nu))

    def coroot_labels(self, root: Root) -> tuple[int, ...]:
        """Pairings <Lambda^j, root^vee> for j = 1..rank; requires a positive root."""
        stored = self.root(root.root_coords)
        if stored is not root and stored != root:
            raise ValueError(f"inconsistent root data for {root}")
        return self.coroots[root.root_coords]


def dot_float(mu, covector) -> float:
    """Sum of m * x over the nonzero entries m of ``mu``, in order, with
    ``covector`` from ``RootSystem.form_float``; both have the rank's length.
    Zero entries are skipped, so an infinite or NaN entry of the covector
    reaches only the labels that use it."""
    total = 0.0
    for m, x in zip(mu, covector):
        if m:
            total += m * x
    return total


def _det_and_adjugate(matrix):
    """Determinant and adjugate of a Cartan matrix by one fraction-free
    Gauss-Jordan elimination on [matrix | I] (Bareiss, 1968).  Every
    division is exact, the k-th pivot is the k-th leading principal minor,
    and the last step leaves det * I on the left and the adjugate on the
    right.  A finite-type Cartan matrix has positive leading minors, so no
    pivot search is needed."""
    n = len(matrix)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for k, pivot_row in enumerate(rows):
        p = pivot_row[k]
        if p <= 0:
            raise AssertionError("Cartan matrix has a nonpositive leading minor")
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return prev, tuple(tuple(row[n:]) for row in rows)


def _dynkin(aid: AlgebraId) -> tuple[list, tuple[int, ...]]:
    """The Dynkin diagram of ``aid``: its bonds, the pairs of joined simple
    roots, and the squared simple-root lengths in units of the shortest root.
    The bonds form the chain (i, i + 1), except that D_r branches at r - 3."""
    r = aid.rank
    bonds = [(i, i + 1) for i in range(r - 1)]
    if aid.family == "D":
        bonds[-1] = (r - 3, r - 1)
    if aid.family == "B":
        return bonds, (2,) * (r - 1) + (1,)
    if aid.family == "C":
        return bonds, (1,) * (r - 1) + (2,)
    if aid.family == "G":
        return bonds, (3, 1)
    return bonds, (1,) * r


def _positive_roots(cartan) -> dict:
    """Simple-root coordinates -> coroot labels of every positive root, sorted
    by height, then by coordinates descending.  Closure under simple
    reflections from the simple roots: s_i raises beta (coordinates c) when
    n = <beta, alpha_i^vee> = sum_j cartan[i][j] c_j < 0, to c - n e_i, and
    takes its coroot labels c^vee to c^vee - m e_i, m = <alpha_i, beta^vee>
    = sum_j cartan[j][i] c^vee_j.  Every positive root is reached so."""
    rank = len(cartan)
    units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    coroots = {u: u for u in units}
    frontier = units
    while frontier:
        nxt = []
        for c in frontier:
            cv = coroots[c]
            for i, row in enumerate(cartan):
                n = sum(map(mul, row, c))
                up = c[:i] + (c[i] - n,) + c[i + 1:]
                if n < 0 and up not in coroots:
                    m = sum(cartan[j][i] * cv[j] for j in range(rank))
                    coroots[up] = cv[:i] + (cv[i] - m,) + cv[i + 1:]
                    nxt.append(up)
        frontier = nxt
    ordered = sorted(coroots, key=lambda c: (sum(c), tuple(-x for x in c)))
    return {c: coroots[c] for c in ordered}


def build_root_system(algebra) -> RootSystem:
    """All static data of a simple Lie algebra, in integers.

    ``algebra`` may be an :class:`AlgebraId` or a name such as ``"A2"``
    (case-insensitive).  A name is looked up before it is parsed
    (`_named`), and only a name that parses is kept, so a bad one raises
    every time; each algebra is built once and kept (`_build`), so every
    call for it returns the same object."""
    if isinstance(algebra, str):
        return _named(algebra)
    return _build(algebra if isinstance(algebra, AlgebraId) else AlgebraId.parse(algebra))


@lru_cache(maxsize=64)  # the names in use: an error is raised, never kept
def _named(name: str) -> RootSystem:
    return _build(AlgebraId.parse(name))


@lru_cache(maxsize=None)  # at most one entry per supported algebra, 29 in all
def _build(aid: AlgebraId) -> RootSystem:
    """The root system of ``aid``.  Positive roots and their coroots come
    from one closure under simple reflections, and the Cartan determinant
    and adjugate from one fraction-free elimination.  The Cartan matrix follows
    from the Dynkin bonds and the squared lengths l_i: across a bond (i, j),
    cartan[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i) is -l_j / l_i
    when alpha_j is the longer root and -1 otherwise, so l_i cartan[i][j]
    is symmetric by construction.  The quadratic form solves G * cartan =
    diag of the half squared lengths l_i / max(l), which pins
    (Lambda^i, Lambda^j) = l_i adj[i][j] / (max(l) det) exactly; dividing
    those numerators and that denominator by their gcd gives
    ``gram_scaled`` and ``form_scale``.
    """
    bonds, lengths = _dynkin(aid)
    r = aid.rank
    rows = [[2 * (i == j) for j in range(r)] for i in range(r)]
    for i, j in bonds:
        rows[i][j] = -max(1, lengths[j] // lengths[i])
        rows[j][i] = -max(1, lengths[i] // lengths[j])
    cartan = tuple(map(tuple, rows))
    det, adj = _det_and_adjugate(cartan)
    gram = [[lengths[i] * adj[i][j] for j in range(r)] for i in range(r)]
    scale = max(lengths) * det
    g = math.gcd(scale, *(x for row in gram for x in row))
    for i in range(r):
        for j in range(i):
            if gram[i][j] != gram[j][i]:
                raise AssertionError("quadratic form is not symmetric")
    coroots = _positive_roots(cartan)
    return RootSystem(
        id=aid,
        cartan=cartan,
        positive_roots=tuple(
            Root(tuple(sum(map(mul, row, c)) for row in cartan), c) for c in coroots
        ),
        coroots=coroots,
        weyl_vector=(1,) * r,
        cartan_det=det,
        cartan_adjugate=adj,
        form_scale=scale // g,
        gram_scaled=tuple(tuple(x // g for x in row) for row in gram),
    )


def check_weight(rs: RootSystem, weight, dominant: bool = False) -> Weight:
    """The weight as a tuple of rs.rank labels, each of type int (not bool);
    with ``dominant``, each also nonnegative.  Raises ValueError otherwise."""
    lam = tuple(weight)
    if len(lam) != rs.rank:
        raise ValueError(f"weight {lam} has length {len(lam)}, expected {rs.rank}")
    for x in lam:
        if type(x) is not int:
            raise ValueError(f"weight {lam} has a label that is not an int: {x!r}")
    if dominant and any(x < 0 for x in lam):
        raise ValueError(f"weight {lam} is not dominant")
    return lam
