"""Weight-polytope lattice sums and their cross-checks.

Four independent routes live here:

* an enumerator (the oracle) that takes the union of the Weyl orbits of
  the dominant weights below lam, found by a downward walk by positive roots,
* operator formulas that assemble the same sums from root-indexed Demazure
  operators, one bracket per factor of a reduced word of w0 (A1, the rank-2
  algebras and A3),
* numeric evaluation of the vertex-cone rational expression and of the Weyl
  character quotient at generic points,
* a Freudenthal-recursion character builder, plus the expansion of a
  character into polytope sums over dominant weights.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

from .demazure import apply_d_root, apply_r_root, character_demazure
from .formal import FormalSum, check_point, evaluate
from .rootsys import Root, RootSystem, Weight, check_weight, dot_float
from .weyl import dominant_representative, orbit, orbit_size, reflect_at_root, weyl_group

_POINT_CAP = 10**6
_POLE_TOLERANCE = 1e-6
_SAMPLER_MARGIN = 1e-2
_CROSS_CHECK_TOL = 1e-9
DEFAULT_SEED = 20240914


class PolytopeSizeError(RuntimeError):
    """Enumeration request exceeds the point cap."""


class GenericityError(RuntimeError):
    """Evaluation point too close to a pole hyperplane; resample sigma."""


@dataclass(frozen=True)
class PolytopeSum:
    """Lattice sum over a weight polytope plus its vertex orbit."""

    sum: FormalSum
    vertex_set: frozenset


@dataclass(frozen=True)
class PolytopeExpansion:
    """Nonzero coefficients expanding a character into polytope sums,
    keyed by dominant weight."""

    coefficients: dict

    def to_json_obj(self) -> list:
        return [{"w": list(w), "c": c} for w, c in sorted(self.coefficients.items())]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one formula-vs-oracle comparison.

    ``millis`` is wall-clock time, so only the table rendering shows it; the
    JSON form leaves it out and two identical runs print the same bytes."""

    formula: str
    algebra: str
    lam: Weight
    match: bool
    diff: FormalSum
    n_points: int
    millis: float

    def to_json_obj(self) -> dict:
        return {
            "formula": self.formula,
            "algebra": self.algebra,
            "lambda": list(self.lam),
            "match": self.match,
            "diff": self.diff.to_json_obj(),
            "n_points": self.n_points,
        }


def _dominates(rs: RootSystem, hi, lo) -> bool:
    gap = rs.root_coords_of_weight(tuple(h - l for h, l in zip(hi, lo)))
    return gap is not None and all(g >= 0 for g in gap)


def polytope_member(rs: RootSystem, lam, mu) -> bool:
    """Exact membership test: is mu a lattice point of lam's weight polytope?

    mu belongs iff it sits in lam's coset of the root lattice and its
    dominant representative lies under lam in dominance order.  Both checks
    are integer arithmetic; no geometry is built.
    """
    lam = check_weight(rs, lam, dominant=True)
    mu = check_weight(rs, mu)
    diff = tuple(m - l for m, l in zip(mu, lam))
    if rs.root_coords_of_weight(diff) is None:
        return False
    dom, _ = dominant_representative(rs, mu)
    return _dominates(rs, lam, dom)


def _check_point_count(lam, points: int) -> None:
    """Refuse a polytope known to have at least ``points`` lattice points
    when that passes the cap."""
    if points > _POINT_CAP:
        raise PolytopeSizeError(
            f"the polytope of {list(lam)} has at least {points} points; cap is {_POINT_CAP}"
        )


def polytope_sum_oracle(rs: RootSystem, lam) -> PolytopeSum:
    """Enumerated lattice sum over the weight polytope of a dominant weight.

    The lattice points are exactly the weights `polytope_member` accepts:
    the union of the Weyl orbits of the dominant weights below lam, which
    are disjoint, so their sizes add up to the point count.  The walk that
    finds those weights stops, and PolytopeSizeError is raised, as soon as
    that count passes the point cap; no orbit is built before then.  A
    cheap lower bound is checked before the walk starts: the polytope holds
    lam's orbit and, for each positive root beta, the <lam, beta^vee> + 1
    points of the beta-string from lam to s_beta(lam).  All coefficients
    are 1.
    """
    lam = check_weight(rs, lam, dominant=True)
    longest_string = 1 + max(sum(c * x for c, x in zip(cv, lam)) for cv in rs.coroots.values())
    _check_point_count(lam, max(orbit_size(rs, lam), longest_string))
    below = []
    points = 0
    for depth, mu in _walk_below(rs, lam):
        points += orbit_size(rs, mu)
        _check_point_count(lam, points)
        below.append((depth, mu))
    # dominant_weights_below's order: it fixes the order `evaluate` sums in
    verts = orbit(rs, lam)
    terms = dict.fromkeys(verts, 1)
    for _depth, mu in sorted(below)[1:]:
        terms.update(dict.fromkeys(orbit(rs, mu), 1))
    return PolytopeSum(FormalSum(rs.rank, terms), frozenset(verts))


# Operator formulas by (family, rank): the report name, a reduced word of w0
# cut into factors, one bracket each (the first acts first) along the word's
# inversion sequence gamma, and the factors: gamma index k -> gamma index f,
# meaning the term of gamma_{k+1} is multiplied by (1 + e^{gamma_{f+1}}).
#
# On G2 the long root gamma_3 = 2a1+3a2 steps by 2 in Q / Z alpha_2, every
# other bracketed root by 1, so the final alpha_2 sweep would miss every other
# line along its edge.  The factor (1 + e^{gamma_2}) on its term tops each
# skipped line with one lattice point (docs/g2.md).
_FORMULAS = {
    ("A", 1): ("demazure_a1", ((1,),), {}),
    ("A", 2): ("demazure_rank2", ((1, 2), (1,)), {}),
    ("B", 2): ("demazure_rank2", ((1, 2, 1), (2,)), {}),
    ("G", 2): ("demazure_rank2", ((1, 2, 1, 2, 1), (2,)), {2: 1}),
    ("A", 3): ("demazure_a3", ((1, 2, 3), (1, 2), (1,)), {}),
}


def _formula(rs: RootSystem) -> tuple:
    try:
        return _FORMULAS[(rs.id.family, rs.rank)]
    except KeyError:
        raise ValueError(f"no operator polytope-sum formula for {rs.name}") from None


def inversion_sequence(rs: RootSystem, word) -> tuple[Root, ...]:
    """The roots beta_k = s_{i_1} ... s_{i_{k-1}} alpha_{i_k} of a word of
    1-based simple reflections: each positive root once for a reduced word of
    w0 (Papi, 1994).  Any other word raises: ValueError when some beta_k is
    not a positive root, AssertionError when the roots are not all of them."""
    word = tuple(word)
    roots = []
    for k, i in enumerate(word):
        coords = [int(j == i - 1) for j in range(rs.rank)]
        for m in reversed(word[:k]):
            # s_m c = c - <c, alpha_m^vee> alpha_m, in simple-root coordinates
            coords[m - 1] -= sum(a * c for a, c in zip(rs.cartan[m - 1], coords))
        roots.append(rs.root(coords))
    if len(set(roots)) != len(rs.positive_roots):
        raise AssertionError(f"{word} is not a reduced word of w0 for {rs.name}")
    return tuple(roots)


def gamma_sequence(rs: RootSystem) -> tuple[Root, ...]:
    """The inversion sequence of the operator formula's reduced word of w0:
    the positive roots in bracket order (A1, A2, B2, G2 and A3)."""
    return inversion_sequence(rs, chain.from_iterable(_formula(rs)[1]))


def longest_element_via_gammas(rs: RootSystem):
    """Composite of the reflections at the gamma-sequence roots, first root
    acting first, as a callable on weights: the longest Weyl group element
    (s_beta_N ... s_beta_1 = w0 for any inversion sequence of w0)."""
    roots = gamma_sequence(rs)

    def act(weight) -> Weight:
        lam = check_weight(rs, weight)
        for root in roots:
            lam = reflect_at_root(rs, root, lam)
        return lam

    return act


def _edge_bracket(rs: RootSystem, gammas, start: int, stop: int, s: FormalSum,
                  factors: dict) -> FormalSum:
    """Apply [d(b_m) r(b_{m-1}) ... r(b_1) + ... + d(b_2) r(b_1) + d(b_1) + 1]
    to ``s`` for the segment (b_1, ..., b_m) = gammas[start:stop], rightmost
    factors first; ``factors`` is the table entry's (1 + e^mu) data."""
    total = s
    staged = s
    for k in range(start, stop):
        root = gammas[k]
        term = apply_d_root(rs, root, staged)
        if k in factors:
            term = term.add(term.mul_exp(gammas[factors[k]].weight_coords))
        total = total.add(term)
        if k + 1 < stop:
            staged = apply_r_root(rs, root, staged)
    return total


def polytope_sum_demazure(rs: RootSystem, lam) -> FormalSum:
    """Operator-formula route to the polytope sum (A1, A2, B2, G2 or A3): one
    edge-walk bracket per factor of the formula's reduced word of w0,
    applied to e^lam in turn."""
    _name, word, factors = _formula(rs)
    lam = check_weight(rs, lam, dominant=True)
    gammas = gamma_sequence(rs)
    out = FormalSum.exp(lam)
    start = 0
    for segment in word:
        out = _edge_bracket(rs, gammas, start, start + len(segment), out, factors)
        start += len(segment)
    return out


# Every root is a Weyl image of a simple root, so the pairings <w alpha, sigma>
# over W x simple roots, and over W x positive roots, are exactly the values
# +-p_k, p_k = <beta_k, sigma> over the positive roots beta_k, in floats too:
# el.apply(alpha) is the integer tuple +-beta_k and inner_float is
# sign-symmetric (negation is exact, and p_k = 0 is a pole).  So each point
# gets one table: the pole test reads the p_k, and every vertex-cone
# denominator is one of the 2|Phi+| factors in _RootFactors, looked up
# through weyl_group's root permutation.
def _root_pairings(rs: RootSystem, sig) -> list:
    return [rs.inner_float(root.weight_coords, sig) for root in rs.positive_roots]


def _near_pole(pairings, margin: float) -> bool:
    return any(abs(p) <= margin for p in pairings)


def _check_generic(pairings) -> None:
    if _near_pole(pairings, _POLE_TOLERANCE):
        raise GenericityError(
            f"sigma is within {_POLE_TOLERANCE} of a pole hyperplane; resample"
        )


class _RootFactors(dict):
    """The denominator factors of one point, keyed by the root permutation's
    signed entries: +(k+1) gives 1 - e^{-p_k} and -(k+1) gives 1 - e^{p_k}.

    Each factor is computed at its first lookup, so an exponential that
    overflows raises where the element loop first needs it, after the terms
    before it."""

    def __init__(self, pairings):
        super().__init__()
        self._pairings = pairings

    def __missing__(self, key: int) -> float:
        p = self._pairings[abs(key) - 1]
        value = self[key] = 1.0 - math.exp(-p if key > 0 else p)
        return value


def _cone_sum(group, lam, covector, factors: _RootFactors, count: int) -> float:
    """Sum over the Weyl elements w of e^{<w lam, sigma>} divided by the
    product of (1 - e^{-<w beta_k, sigma>}) over the first ``count`` positive
    roots (the simple roots, or all of them).  ``covector`` is
    ``form_float(sigma)``; the factors come from the point's table, divided
    in root order."""
    total = 0.0
    for el, row in zip(group.elements, group.root_permutation):
        term = math.exp(dot_float(el.apply(lam), covector))
        for k in row[:count]:
            term /= factors[k]
        total += term
    return total


def brion_eval(rs: RootSystem, lam, sigma) -> float:
    """Numeric value at sigma of the vertex-cone rational expression for the
    polytope lattice sum: one exponential per Weyl image of lam, divided by
    the product of (1 - e^{-<w alpha, sigma>}) over the simple roots.

    Raises GenericityError when sigma is within 1e-6 of a pole hyperplane.
    """
    lam = check_weight(rs, lam, dominant=True)
    sig = check_point(rs, sigma)
    group = weyl_group(rs)
    pairings = _root_pairings(rs, sig)
    _check_generic(pairings)
    return _cone_sum(group, lam, rs.form_float(sig), _RootFactors(pairings), rs.rank)


def weyl_character_eval(rs: RootSystem, lam, sigma) -> float:
    """Numeric character value at sigma, computed both as the alternating
    sum over the shifted Weyl action divided by the denominator product and
    as the manifestly invariant sum of vertex-cone terms over all positive
    roots.  The two must agree to 1e-9 relative; the first is returned."""
    lam = check_weight(rs, lam, dominant=True)
    sig = check_point(rs, sigma)
    group = weyl_group(rs)
    pairings = _root_pairings(rs, sig)
    _check_generic(pairings)
    covector = rs.form_float(sig)
    lam_rho = tuple(x + 1 for x in lam)
    num = 0.0
    for el in group.elements:
        shifted = tuple(x - 1 for x in el.apply(lam_rho))
        num += el.sign * math.exp(dot_float(shifted, covector))
    factors = _RootFactors(pairings)
    count = len(pairings)
    den = 1.0
    for k in range(1, count + 1):
        den *= factors[k]
    alternating = num / den
    invariant = _cone_sum(group, lam, covector, factors, count)
    scale = max(abs(alternating), abs(invariant), 1e-300)
    if abs(alternating - invariant) / scale > _CROSS_CHECK_TOL:
        raise ArithmeticError(
            "the two character evaluations disagree beyond 1e-9; sigma is ill-conditioned"
        )
    return alternating


def _walk_below(rs: RootSystem, lam):
    """Yield (depth, mu) for each dominant weight mu of lam's root-lattice
    coset under lam in dominance order, lam first, where the depth is the
    height of lam - mu.

    A downward walk: subtract each positive root and keep what stays
    dominant.  It misses nothing, because above every dominant mu < lam
    some positive root alpha leaves lam - alpha dominant with mu below it
    (Stembridge, The partial order of dominant weights, 1998).
    """
    steps = [(root.weight_coords, root.height) for root in rs.positive_roots]
    seen = {lam}
    frontier = [(0, lam)]
    while frontier:
        yield from frontier
        nxt = []
        for d, mu in frontier:
            for alpha, h in steps:
                nu = tuple(m - a for m, a in zip(mu, alpha))
                if nu not in seen and min(nu) >= 0:
                    seen.add(nu)
                    nxt.append((d + h, nu))
        frontier = nxt


def dominant_weights_below(rs: RootSystem, lam) -> list:
    """Dominant weights of lam's root-lattice coset lying under lam in
    dominance order, sorted from lam downward by depth, the height of
    lam - mu (then lexicographically)."""
    lam = check_weight(rs, lam, dominant=True)
    return [mu for _depth, mu in sorted(_walk_below(rs, lam))]


def dominant_weight_multiplicities(rs: RootSystem, lam) -> dict:
    """Weight multiplicities of the irreducible module with highest weight
    lam, tabulated on its dominant weights by the Freudenthal recursion.

    Processing runs from lam downward so every multiplicity needed on the
    right-hand side is already known; each value must come out a positive
    integer, which is asserted.  Inner products are ``inner_scaled``
    integers: the form's scale cancels in 2 acc / denom.
    """
    lam = check_weight(rs, lam, dominant=True)
    doms = dominant_weights_below(rs, lam)
    rho = rs.weyl_vector
    lam_rho = tuple(l + d for l, d in zip(lam, rho))
    top = rs.inner_scaled(lam_rho, lam_rho)
    mult: dict = {}
    for mu in doms:
        if mu == lam:
            mult[mu] = 1
            continue
        acc = 0
        for root in rs.positive_roots:
            wc = root.weight_coords
            k = 1
            while True:
                nu = tuple(m + k * a for m, a in zip(mu, wc))
                dom_nu, _ = dominant_representative(rs, nu)
                m_nu = mult.get(dom_nu)
                if m_nu is None:
                    break
                acc += m_nu * rs.inner_scaled(nu, wc)
                k += 1
        mu_rho = tuple(m + d for m, d in zip(mu, rho))
        denom = top - rs.inner_scaled(mu_rho, mu_rho)
        value, rem = divmod(2 * acc, denom)
        if rem or value <= 0:
            raise ArithmeticError(
                f"multiplicity recursion broke at {mu}: {Fraction(2 * acc, denom)}"
            )
        mult[mu] = value
    return mult


def character_freudenthal(rs: RootSystem, lam) -> FormalSum:
    """Character of the irreducible highest-weight module via the
    Freudenthal recursion, spread over full Weyl orbits."""
    mult = dominant_weight_multiplicities(rs, lam)
    terms = {}
    for mu, m in mult.items():
        for w in orbit(rs, mu):
            terms[w] = m
    return FormalSum(rs.rank, terms)


def weyl_dimension(rs: RootSystem, lam) -> int:
    """Dimension of the irreducible module: the product over positive roots
    of (lam + rho, alpha) / (rho, alpha), exactly.  Numerator and
    denominator are products of as many ``inner_scaled`` factors, so the
    form's scale cancels."""
    lam = check_weight(rs, lam, dominant=True)
    rho = rs.weyl_vector
    lam_rho = tuple(l + d for l, d in zip(lam, rho))
    num = den = 1
    for root in rs.positive_roots:
        wc = root.weight_coords
        num *= rs.inner_scaled(lam_rho, wc)
        den *= rs.inner_scaled(rho, wc)
    value, rem = divmod(num, den)
    if rem or value <= 0:
        raise ArithmeticError(
            f"dimension product is not a positive integer: {Fraction(num, den)}"
        )
    return value


def polytope_expansion(rs: RootSystem, lam) -> PolytopeExpansion:
    """Integer coefficients expanding the irreducible character as a
    combination of polytope lattice sums over dominant weights below lam.

    Every dominant weight under a dominant weight lies inside its polytope,
    so peeling from lam downward determines each coefficient: the weight's
    multiplicity minus the coefficients already fixed above it."""
    mult = dominant_weight_multiplicities(rs, lam)
    coeffs: dict = {}
    for mu, value in mult.items():  # walk order: lam downward
        for nu, c in coeffs.items():
            if _dominates(rs, nu, mu):
                value -= c
        if value:
            coeffs[mu] = value
    return PolytopeExpansion(coeffs)


def sample_generic_sigmas(rs: RootSystem, count: int, seed: int = DEFAULT_SEED) -> list:
    """Seeded evaluation points, uniform per coordinate in [0.1, 1.1],
    resampled until every root pairing clears the sampler margin."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * max(count, 1):
            raise GenericityError("could not sample generic evaluation points")
        sig = tuple(rng.uniform(0.1, 1.1) for _ in range(rs.rank))
        if not _near_pole(_root_pairings(rs, sig), _SAMPLER_MARGIN):
            out.append(sig)
    return out


def verify_polytope_formula(rs: RootSystem, max_label: int) -> list:
    """Sweep every dominant weight with labels in [0..max_label], comparing
    the operator formula against the enumerator exactly."""
    if max_label < 0:
        raise ValueError("max_label must be nonnegative")
    name = _formula(rs)[0]
    reports = []
    for labels in product(range(max_label + 1), repeat=rs.rank):
        t0 = time.perf_counter()
        oracle = polytope_sum_oracle(rs, labels)
        formula = polytope_sum_demazure(rs, labels)
        diff = formula - oracle.sum
        millis = (time.perf_counter() - t0) * 1000.0
        reports.append(
            VerificationReport(
                formula=name,
                algebra=rs.name,
                lam=labels,
                match=diff.is_zero(),
                diff=diff,
                n_points=oracle.sum.coefficient_sum(),
                millis=millis,
            )
        )
    return reports


def numeric_formula_check(
    rs: RootSystem, lam, sigma_count: int = 20, seed: int = DEFAULT_SEED
) -> dict:
    """Max relative errors, over seeded generic points, of the vertex-cone
    expression against the enumerated polytope sum and of the Weyl character
    value against the Demazure character."""
    lam = check_weight(rs, lam, dominant=True)
    if sigma_count < 1:
        raise ValueError(f"sigma_count must be at least 1, got {sigma_count}")
    # the evaluators sum over the whole group: hit its cap before enumerating
    weyl_group(rs)
    lattice_sum = polytope_sum_oracle(rs, lam).sum
    character = character_demazure(rs, lam)
    brion_err = 0.0
    weyl_err = 0.0
    for sig in sample_generic_sigmas(rs, sigma_count, seed):
        ref = evaluate(rs, lattice_sum, sig)
        brion_err = max(brion_err, abs(brion_eval(rs, lam, sig) - ref) / abs(ref))
        ref_ch = evaluate(rs, character, sig)
        weyl_err = max(
            weyl_err, abs(weyl_character_eval(rs, lam, sig) - ref_ch) / abs(ref_ch)
        )
    return {
        "algebra": rs.name,
        "lambda": list(lam),
        "sigma_count": sigma_count,
        "seed": seed,
        "brion_max_rel_err": brion_err,
        "weyl_max_rel_err": weyl_err,
        "tolerance": _CROSS_CHECK_TOL,
        "pass": brion_err < _CROSS_CHECK_TOL and weyl_err < _CROSS_CHECK_TOL,
    }
