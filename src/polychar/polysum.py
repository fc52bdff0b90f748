"""Weight-polytope lattice sums and their cross-checks.

Four independent routes live here:

* an enumerator (the oracle) that takes the union of the Weyl orbits of
  the dominant weights below lam, found by a downward walk by positive roots,
* operator formulas that assemble the same sums from root-indexed Demazure
  operators, one bracket per factor of a reduced word of w0 (A1, A2, B2, G2
  and A3),
* numeric evaluation of the vertex-cone rational expression and of the Weyl
  character quotient at generic points,
* a Freudenthal-recursion character builder, plus the expansion of a
  character into polytope sums over dominant weights, read off Brion's
  formula where its numerator is short and peeled from Freudenthal's
  multiplicities elsewhere (docs/expand.md).
"""

import math
from functools import lru_cache
from itertools import accumulate, chain, islice
from operator import mul, sub

from ._frozen import Frozen
from .demazure import apply_D_root, apply_r_root, character_demazure
from .formal import FormalSum, _accumulate, _codec_for, check_sample, evaluate, exp_table
from .rootsys import Root, RootSystem, check_weight, dot_float
# ``orbit`` stays bound here, uncalled: benchmarks/tests/test_bench.py
# checks that the tracer rebinds this name along with weyl's
from .weyl import _orbit_size, dominant_representative, orbit, weyl_group

_POINT_CAP = 10**6
_SIGMA_CAP = 10**4
_POLE_TOLERANCE = 1e-6
_CROSS_CHECK_TOL = 1e-9
# exponentials per sample `numeric_formula_check` passes the evaluators:
# its points go in chunks of this many over the lattice sum's size, which
# bounds the one-entry tables they fill
_TABLE_BUDGET = 2**16
# `polytope_expansion` straightens where the product of (1 - e^{-beta}) over
# the non-simple positive roots has at most this many terms per positive
# root (docs/expand.md): rank <= 3 and A4; D4 (122 terms) and up peel
_STRAIGHTEN_TERMS_PER_ROOT = 5
DEFAULT_SEED = 20240914


class PolytopeSizeError(RuntimeError):
    """Enumeration request exceeds the point cap."""


class GenericityError(RuntimeError):
    """Evaluation point too close to a pole hyperplane; resample sigma."""


class CrossCheckError(ArithmeticError):
    """Two float evaluations of one character value disagree beyond 1e-9."""


class PolytopeSum(Frozen):
    """Lattice sum over a weight polytope: ``sum``, a FormalSum."""

    __slots__ = _fields = ("sum",)


def polytope_member(rs: RootSystem, lam, mu) -> bool:
    """Exact membership test: is mu a lattice point of lam's weight polytope?

    mu belongs iff it sits in lam's coset of the root lattice and its
    dominant representative lies under lam in dominance order.  The
    representative differs from mu by a root-lattice vector, so one solve
    for the root coordinates of lam - dom(mu) answers both: it fails off
    the coset, and dominance asks for no negative coordinate.
    """
    lam = check_weight(rs, lam, dominant=True)
    dom, _ = dominant_representative(rs, mu)
    gap = rs.root_coords_of_weight(tuple(map(sub, lam, dom)))
    return gap is not None and min(gap) >= 0


def _check_point_count(what, points: int) -> None:
    """Refuse ``what``, known to hold at least ``points`` lattice points,
    when that passes the cap.  ``what`` is text, or a dominant weight, which
    names its polytope: the text is built only for a refusal."""
    if points > _POINT_CAP:
        if not isinstance(what, str):
            what = f"the polytope of {list(what)}"
        raise PolytopeSizeError(f"{what} has at least {points} points; cap is {_POINT_CAP}")


def _packed_orbit_size(rs: RootSystem, codec, p: int) -> int:
    """|W| / |W_mu| for the dominant weight mu packed as ``p`` by ``codec``:
    `_orbit_size` at mu's zero pattern, read from its packed fields (a label
    is 0 when its field holds the offset).  The one reader of a packed
    weight's orbit size: the walk's count and `verify`'s total both read it."""
    mask, offset = codec.mask, codec.offset
    return _orbit_size(rs, tuple([p >> s & mask != offset for s in codec.shifts]))


def _walk_below(rs: RootSystem, lam) -> tuple:
    """(codec, packed, depths): lam's codec, ``formal._codec_for(rs,
    (lam,))``, the dominant weights of lam's root-lattice coset lying under
    lam in dominance order, packed by it, in breadth-first order from lam,
    and their depths, the heights of lam - mu, in the same order.

    A downward walk: subtract each positive root and keep what stays
    dominant.  It misses nothing, because above every dominant mu < lam
    some positive root alpha leaves lam - alpha dominant with mu below it
    (Stembridge, The partial order of dominant weights, 1998).  A step is
    one subtraction, the dominance test one AND with the codec's ``top``,
    and only a dominant candidate reaches the visited set.  A candidate
    lies at most one root step past lam's hull, which the codec's fields
    hold.  Each root's step and height come from the codec's root table.

    The orbits of these weights are disjoint and cover lam's polytope, so
    their sizes add up to its point count.  Before the codec, a cheap lower
    bound refuses lam with PolytopeSizeError: the polytope holds lam's orbit
    and, for each positive root beta, the <lam, beta^vee> + 1 points of the
    beta-string from lam to s_beta(lam), longest for the highest coroot.
    This walk is the only code that applies that bound.  Then the walk
    counts in its own loop and refuses as soon as its running
    count passes the cap, so the refusal comes at the same weight, with the
    same count, on every run.  No orbit is larger than |W|, so the first k
    weights hold at most |W| k points: up to weight number
    ``_POINT_CAP // |W|`` that bound stays within the cap and no size is
    read.  At that weight the sizes of the weights before it are added up
    once, and from then on each weight's size (`_packed_orbit_size`) is
    added before the weight is expanded.
    """
    lam = check_weight(rs, lam, dominant=True)
    longest_string = 1 + sum(map(mul, lam, rs.highest_coroot))
    _check_point_count(lam, max(_orbit_size(rs, tuple([x > 0 for x in lam])), longest_string))
    codec = _codec_for(rs, (lam,))
    top = codec.top
    roots = [(d, h) for d, _fields, _lift, h in codec.roots.values()]
    packed, depths = [codec.pack(lam)], [0]
    seen = set(packed)
    # the weights the bound |W| k admits: none of them is counted
    bounded = _POINT_CAP // _orbit_size(rs, (True,) * rs.rank)
    # the lists grow as the walk reaches new weights
    for k, (p, depth) in enumerate(zip(packed, depths)):
        if k >= bounded:
            if k == bounded:  # the weights before this one, once
                points = sum([_packed_orbit_size(rs, codec, q) for q in packed[:k]])
            points += _packed_orbit_size(rs, codec, p)
            _check_point_count(lam, points)
        for d, h in roots:
            q = p - d
            if q & top == top and q not in seen:
                seen.add(q)
                packed.append(q)
                depths.append(depth + h)
    return codec, packed, depths


def dominant_weights_below(rs: RootSystem, lam) -> list:
    """Dominant weights of lam's root-lattice coset lying under lam in
    dominance order, sorted from lam downward by depth, the height of
    lam - mu (then lexicographically): the sorted reader of the packed
    walk, `_walk_below`, which refuses lam past the point cap.  Packed ints
    sort as their tuples do, so sorting by (depth, packed) gives the order
    of (depth, weight), and the sorted weights are decoded in one pass
    (`formal._Codec.unpack_all`).  Freudenthal reads the walk here, in
    this order; the oracle, the size gate and `verify`'s total read it
    packed, from `_walk_below` itself."""
    codec, packed, depths = _walk_below(rs, lam)
    return codec.unpack_all([p for _depth, p in sorted(zip(depths, packed))])


def polytope_sum_oracle(rs: RootSystem, lam) -> PolytopeSum:
    """Enumerated lattice sum over the weight polytope of a dominant weight.

    The lattice points are exactly the weights `polytope_member` accepts:
    the union of the Weyl orbits of the dominant weights below lam.  The
    walk that finds those weights (`_walk_below`) refuses lam past the
    point cap before any orbit is built, and hands them over packed by
    lam's codec, in the order it reached them.  The orbits are walked
    from those ints (`formal._Codec.orbit`), with no decode and no sort:
    the codec is the one of ``FormalSum.exp(lam)`` and so of the operator
    formula's sum, and every weight below lam lies in lam's hull, which
    its fields hold.  Distinct dominant weights have disjoint orbits, so
    one walk from all of them builds the terms, with no merge, and the sum
    stays packed until it is read.  All coefficients are 1.
    """
    codec, packed, _depths = _walk_below(rs, lam)
    terms = dict.fromkeys(codec.orbit(*packed), 1)
    return PolytopeSum(FormalSum._of(rs.rank, terms, codec))


# Operator formulas by (family, rank): the report name, a reduced word of w0
# cut into factors, one bracket each (the first acts first), and the
# translates: gamma index k -> gamma index f, meaning the term of gamma_{k+1}
# is multiplied by (1 + e^{gamma_{f+1}}).  Only `_formula` reads this table.
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


@lru_cache(maxsize=None)
def _formula(rs: RootSystem) -> tuple:
    """The operator formula of rs, kept per algebra: its report name, its
    gamma order (the inversion sequence of its word of w0) and its brackets,
    one per factor of the word, each a tuple of (root, translate or None)
    terms in gamma order; a translate, a root mu, multiplies its term by
    (1 + e^mu).  An algebra without a formula raises on every call."""
    try:
        name, segments, translates = _FORMULAS[(rs.id.family, rs.rank)]
    except KeyError:
        raise ValueError(f"no operator polytope-sum formula for {rs.name}") from None
    gammas = inversion_sequence(rs, chain.from_iterable(segments))
    terms = ((root, gammas[translates[k]] if k in translates else None)
             for k, root in enumerate(gammas))
    return name, gammas, tuple(tuple(islice(terms, len(segment))) for segment in segments)


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


def _edge_bracket(rs: RootSystem, bracket, s: FormalSum) -> FormalSum:
    """Apply [d(b_m) r(b_{m-1}) ... r(b_1) + ... + d(b_2) r(b_1) + d(b_1) + 1]
    to ``s`` for the bracket's roots (b_1, ..., b_m), rightmost factors
    first; a term's translate mu multiplies it by (1 + e^mu).

    With s_0 = s and s_k = r(b_k) s_{k-1}, d = D - 1 telescopes the bracket
    to the D form

        sum_{k=1..m} D(b_k) s_{k-1}  -  sum_{k=2..m} s_{k-1},

    the k = 1 term's -s_0 cancelling the 1.  A translate on term k
    multiplies both D(b_k) s_{k-1} and -s_{k-1}; for k = 1 only the
    -e^mu s_0 part stays.  Every part but the last D term adds up in one
    dict of packed ints owned here, by `formal._accumulate`, and the last
    D term joins it in one `FormalSum.add`, with no pass of its own when it
    is the longer; when nothing is staged, as in a one-root bracket with no
    translate, the last D term is the result.

    The staged sums start from a packed copy of the input and stay packed
    by its codec (`formal`).  A translate is one addition per packed int,
    its step read from the codec's root table.  It moves a term's points,
    which lie in the hull the codec was sized for, by one root, which the
    codec's root-label margin holds, and every later operator output lies
    in conv(W . support).  On e^lam's codec the shifted points are
    polytope points (docs/g2.md)."""
    staged = FormalSum._of(rs.rank, *s._packed_for(rs))
    codec = staged._codec
    acc: dict = {}
    for k, (root, translate) in enumerate(bracket):
        # an operator's output is packed by its input's codec
        term = apply_D_root(rs, root, staged)
        if k:
            _accumulate(acc, staged._terms, 0, -1)
        if translate is not None:
            shift = codec.roots[translate.root_coords][0]
            _accumulate(acc, term._terms, shift, 1)
            _accumulate(acc, staged._terms, shift, -1)
        if k < len(bracket) - 1:
            _accumulate(acc, term._terms, 0, 1)
            staged = apply_r_root(rs, root, staged)
    if not acc:  # a one-root bracket with no translate stages nothing
        return term
    acc = FormalSum._of(rs.rank, acc, codec)
    # the sum adds the other's terms one by one: the shorter goes second
    return term.add(acc) if len(term) >= len(acc) else acc.add(term)


def polytope_sum_demazure(rs: RootSystem, lam) -> FormalSum:
    """Operator-formula route to the polytope sum (A1, A2, B2, G2 or A3): the
    formula's edge-walk brackets, one per factor of its reduced word of w0,
    applied to e^lam, packed by lam's codec, in turn."""
    brackets = _formula(rs)[2]
    lam = check_weight(rs, lam, dominant=True)
    codec = _codec_for(rs, (lam,))
    out = FormalSum._of(rs.rank, {codec.pack(lam): 1}, codec)
    for bracket in brackets:
        out = _edge_bracket(rs, bracket, out)
    return out


@lru_cache(maxsize=None)
def _root_permutation(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """One row per Weyl element, in `weyl_group`'s order: entry k is +(j+1)
    when the element maps the k-th positive root to the j-th, and -(j+1)
    when it maps it to minus the j-th.  Kept per algebra."""
    roots = [root.weight_coords for root in rs.positive_roots]
    index = {}
    for j, beta in enumerate(roots, 1):
        index[beta] = j
        index[tuple(-x for x in beta)] = -j
    return tuple(tuple(index[el.apply(beta)] for beta in roots) for el in weyl_group(rs))


@lru_cache(maxsize=1)
def _weight_table(rs: RootSystem, lam) -> tuple:
    """What the evaluators need of a checked dominant lam, one entry per Weyl
    element in `weyl_group`'s order: the triples (w lam, the first rank
    entries of w's root-permutation row, the rest of the row) and the pairs
    (sign of w, w(lam + rho) - rho); the sign is the parity of w's reduced
    word.  The first rank entries index the simple roots' images, Brion's
    denominators.  It keeps its last lam, which serves the run of points
    `numeric_formula_check` evaluates at one weight."""
    group = weyl_group(rs)
    images = [el.apply(lam) for el in group]
    # w(lam + rho) - rho = w lam + (w rho - rho), and w rho is w's fingerprint
    shifted = tuple(
        (-1 if len(el.word) & 1 else 1, tuple([x + f - 1 for x, f in zip(w_lam, el.fingerprint)]))
        for el, w_lam in zip(group, images)
    )
    r = rs.rank
    rows = ((w_lam, row[:r], row[r:]) for w_lam, row in zip(images, _root_permutation(rs)))
    return tuple(rows), shifted


@lru_cache(maxsize=1)
def _point_table(rs: RootSystem, points) -> tuple:
    """What the evaluators need of a checked sample, one triple per point,
    in order: the point's covector ``form_float(sig)`` and dict of
    exponentials, both from `formal.exp_table`, and its denominator
    factors, indexed by the root permutation's signed entries: index k
    gives 1 - e^{-p_k} and index -k, by Python's negative indexing,
    1 - e^{p_k} (index 0 is unused), with p_k = <beta_k, sig> paired by
    `RootSystem.inner_float`.  That reads the covector through
    `rootsys.covector_at`, so each point's pairings run the Gram loop once;
    the benchmark's tests require `eval` to reach it (`EXERCISED` in
    `benchmarks/tests/test_bench.py`).  Every root is a Weyl image of a
    simple root, so each pairing <w beta, sig> a vertex-cone denominator
    needs is some +-p_k, in floats too: negation is exact, and p_k = 0 is a
    pole.

    Raises ValueError when a coordinate of any point is not finite, then
    GenericityError when any point is within 1e-6 of a pole hyperplane:
    every point's finiteness is checked before any point's pole test.  A
    raise is not kept, so a repeated call raises again.  It keeps its last
    sample, as `exp_table` does.
    """
    exp_tables = exp_table(rs, points)
    roots = [root.weight_coords for root in rs.positive_roots]
    pairings = [[rs.inner_float(beta, sig) for beta in roots] for sig in points]
    if any(abs(p) <= _POLE_TOLERANCE for row in pairings for p in row):
        raise GenericityError(
            f"sigma is within {_POLE_TOLERANCE} of a pole hyperplane; resample"
        )
    rows = []
    for (covector, exps), row in zip(exp_tables, pairings):
        plus = [1.0 - math.exp(-p) for p in row]  # indices 1..N
        minus = [1.0 - math.exp(p) for p in reversed(row)]  # indices -N..-1
        rows.append((covector, exps, (None, *plus, *minus)))
    return tuple(rows)


@lru_cache(maxsize=1)
def _cone_sums(rs: RootSystem, lam, points) -> tuple:
    """Both vertex-cone sums at each point of a checked sample, in order,
    as (Brion's sum, the invariant sum) pairs, from one quotient per Weyl
    element w: e^{<w lam, sig>} divided by the factors of the simple roots'
    images, in root order, is Brion's term, and divided on by the other
    roots' factors it is the invariant character sum's term, the same
    divisions in the same order as dividing afresh.  Both evaluators check
    lam, then every point's length, and look this up once; it checks the
    Weyl group cap (`_weight_table`), then every point's finiteness, then
    every pole test (`_point_table`).

    The exponentials come from each point's table, computed and stored only
    for an image not met before at that point.  It keeps its last (rs, lam,
    sample): `eval` runs both evaluators on one sample before the next.
    """
    images = _weight_table(rs, lam)[0]
    sums = []
    for covector, exps, factors in _point_table(rs, points):
        brion = invariant = 0.0
        for image, simple, rest in images:
            term = exps.get(image)
            if term is None:
                term = exps[image] = math.exp(dot_float(image, covector))
            for k in simple:
                term /= factors[k]
            brion += term
            for k in rest:
                term /= factors[k]
            invariant += term
        sums.append((brion, invariant))
    return tuple(sums)


def brion_eval(rs: RootSystem, lam, sigmas) -> list:
    """Numeric values at a sample of points of the vertex-cone rational
    expression for the polytope lattice sum, one float per point, in order:
    one exponential per Weyl image of lam, divided by the product of
    (1 - e^{-<w alpha, sigma>}) over the simple roots, summed in Weyl order
    (`_cone_sums`, kept for `weyl_character_eval` at the same lam and
    sample).

    Checks lam, every point's length, the Weyl group cap, every point's
    finiteness, then every pole test: raises GenericityError when any
    point is within 1e-6 of a pole hyperplane.
    """
    lam, points = check_weight(rs, lam, dominant=True), check_sample(rs, sigmas)
    return [brion for brion, _invariant in _cone_sums(rs, lam, points)]


def weyl_character_eval(rs: RootSystem, lam, sigmas) -> list:
    """Numeric character values at a sample of points, one float per point,
    in order, each computed both as the alternating sum over the shifted
    Weyl action divided by the denominator product and as the manifestly
    invariant sum of vertex-cone terms over all positive roots, whose
    terms continue Brion's (`_cone_sums`, shared with `brion_eval` at the
    same lam and sample).  The checks run as in `brion_eval`.  The two
    values must agree to 1e-9 relative at every point, the first point
    that fails raising CrossCheckError; the alternating value is returned."""
    lam, points = check_weight(rs, lam, dominant=True), check_sample(rs, sigmas)
    sums = _cone_sums(rs, lam, points)
    shifted = _weight_table(rs, lam)[1]
    n = len(rs.positive_roots)
    values = []
    for (_brion, invariant), (covector, _exps, factors) in zip(sums, _point_table(rs, points)):
        # only w = 1 gives a lattice point of the polytope, so the table
        # would keep the others for nothing: each is exponentiated directly
        num = 0.0
        for sign, mu in shifted:
            num += sign * math.exp(dot_float(mu, covector))
        den = 1.0
        for k in range(1, n + 1):
            den *= factors[k]
        alternating = num / den
        scale = max(abs(alternating), abs(invariant), 1e-300)
        # written so that a NaN difference fails too
        if not abs(alternating - invariant) / scale <= _CROSS_CHECK_TOL:
            raise CrossCheckError(
                "the two character evaluations disagree beyond 1e-9; sigma is ill-conditioned"
            )
        values.append(alternating)
    return values


def dominant_weight_multiplicities(rs: RootSystem, lam) -> dict:
    """Weight multiplicities of the irreducible module with highest weight
    lam, tabulated on its dominant weights by the Freudenthal recursion
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    1972, section 22.3), keyed by weight in the walk's order.

    Processing runs from lam downward so every multiplicity needed on the
    right-hand side is already known; each value must come out a positive
    integer, which is asserted.  Inner products are ``inner_scaled``
    integers: the form's scale cancels in 2 acc / denom.  Along a string,
    <mu + k beta, beta> = a + k b with a = <mu, beta> and b = <beta, beta>,
    so each (mu, beta) costs one pairing, against beta's integer covector
    (its ``gram_scaled`` row sums, found once per call).

    The right-hand side is a sum over beta of the tails
    S_beta(mu) = sum_{k >= 1} m(mu + k beta) <mu + k beta, beta>, and each
    dominant weight keeps its tails.  A string from mu stops at its first
    weight nu = mu + k beta that is dominant (one AND with the codec's
    ``top``) and of positive multiplicity, and adds m(nu) <nu, beta> +
    S_beta(nu): nu lies above mu, at a smaller depth, so its tails are
    final.  Every string from lam is empty, so lam's tails are 0.  On A1
    each string is one step, and the recursion is linear.

    The strings run on packed ints of the walk's codec, lam's, which
    `formal._codec_for` gives the walk, the oracle, the formula and the
    strings as one object, so a step up a string is one addition of the
    root's step, read from the codec's root table.  A non-dominant string
    weight nu is folded at each visit to its dominant representative on
    packed ints (`formal._Codec.straighten`, the weight alone), whose
    multiplicity the packed table gives, 0 outside the module; a string
    ends at its first 0, one root past the module's hull.  The fold is
    exact because a string weight is mu' + beta with mu' in conv(W . lam)
    and beta a root, and the codec's fields hold every Weyl image of such a
    weight.  dom(nu) >= nu > mu, so dom(nu), if it is a weight of the
    module, was tabulated before mu.
    """
    lam = check_weight(rs, lam, dominant=True)
    doms = dominant_weights_below(rs, lam)
    codec = _codec_for(rs, (lam,))
    pack, top, straighten = codec.pack, codec.top, codec.straighten
    rho = rs.weyl_vector
    lam_rho = tuple(l + d for l, d in zip(lam, rho))
    norm = rs.inner_scaled(lam_rho, lam_rho)
    strings = []
    for j, root in enumerate(rs.positive_roots):
        wc = root.weight_coords
        cov = tuple([sum(map(mul, row, wc)) for row in rs.gram_scaled])  # the form is symmetric
        strings.append((j, codec.roots[root.root_coords][0], cov, sum(map(mul, wc, cov))))
    mult = {pack(lam): 1}  # packed dominant weight -> multiplicity; doms[0] is lam
    tails = {pack(lam): [0] * len(strings)}  # the same keys -> S_beta, per root
    for mu in doms[1:]:
        p = pack(mu)
        own = []
        for j, d, cov, b in strings:
            a = sum(map(mul, mu, cov))
            tail = 0
            nu = p
            while True:
                nu += d
                a += b
                if nu & top == top:  # dominant: tabulated above mu, or 0
                    m_nu = mult.get(nu)
                    if m_nu:
                        tail += m_nu * a + tails[nu][j]
                    break
                m_nu = mult.get(straighten(nu)[0], 0)
                if not m_nu:
                    break
                tail += m_nu * a
            own.append(tail)
        acc = sum(own)
        mu_rho = tuple(m + d for m, d in zip(mu, rho))
        denom = norm - rs.inner_scaled(mu_rho, mu_rho)
        value, rem = divmod(2 * acc, denom)
        if rem or value <= 0:
            from fractions import Fraction

            raise ArithmeticError(
                f"multiplicity recursion broke at {mu}: {Fraction(2 * acc, denom)}"
            )
        mult[p] = value
        tails[p] = own
    return dict(zip(doms, mult.values()))  # mult was filled in doms' order


def character_freudenthal(rs: RootSystem, lam) -> FormalSum:
    """Character of the irreducible highest-weight module via the
    Freudenthal recursion, spread over full Weyl orbits, walked and kept on
    packed ints of lam's codec, as the oracle's are."""
    lam = check_weight(rs, lam, dominant=True)
    mult = dominant_weight_multiplicities(rs, lam)
    codec = _codec_for(rs, (lam,))
    pack, walk = codec.pack, codec.orbit
    terms = {}
    for mu, m in mult.items():
        terms.update(dict.fromkeys(walk(pack(mu)), m))
    return FormalSum._of(rs.rank, terms, codec)


def weyl_dimension(rs: RootSystem, lam) -> int:
    """Dimension of the irreducible module by Weyl's formula (Humphreys 1972,
    section 24.3): the product over positive roots beta of <lam + rho,
    beta^vee> / <rho, beta^vee>, exactly.  From the stored coroot labels a
    factor is (<lam, beta^vee> + ht beta^vee) / ht beta^vee: no form."""
    lam = check_weight(rs, lam, dominant=True)
    num = den = 1
    for cv in rs.coroots.values():
        height = sum(cv)
        num *= sum(map(mul, lam, cv)) + height
        den *= height
    value, rem = divmod(num, den)
    if rem or value <= 0:
        from fractions import Fraction

        raise ArithmeticError(
            f"dimension product is not a positive integer: {Fraction(num, den)}"
        )
    return value


def _check_polytope_size(rs: RootSystem, lam) -> None:
    """Refuse the checked dominant lam with PolytopeSizeError when its
    polytope holds more lattice points than the cap: `char`, `bsum --method
    demazure` and `expand`'s straightening route size lam here before any
    sum is built.  A module has no more distinct weights than its
    dimension, so a dimension within the cap passes at once; otherwise
    lam's polytope is walked (`_walk_below`), which refuses it past the
    cap by its lower bound or its exact count."""
    if weyl_dimension(rs, lam) > _POINT_CAP:
        _walk_below(rs, lam)


@lru_cache(maxsize=None)
def _brion_numerator(rs: RootSystem) -> tuple | None:
    """The terms of g = prod (1 - e^{-beta}) over the non-simple positive
    roots beta other than its constant term 1, as (weight, height of
    -weight, coefficient) triples, or None when g has more than
    ``_STRAIGHTEN_TERMS_PER_ROOT`` terms per positive root, constant term
    included.  The factors are multiplied in root order, on root
    coordinates, and the product is abandoned as soon as a partial one
    passes that bound, so g is never expanded past it.  Kept per algebra
    (docs/expand.md)."""
    bound = _STRAIGHTEN_TERMS_PER_ROOT * len(rs.positive_roots)
    g = {(0,) * rs.rank: 1}
    for root in rs.positive_roots[rs.rank:]:
        beta = root.root_coords
        _accumulate(g, {tuple(map(sub, coords, beta)): c for coords, c in g.items()}, 0, -1)
        if len(g) > bound:
            return None
    del g[(0,) * rs.rank]
    # the weight of a term with root coordinates c: sum_j c_j alpha_j
    return tuple((tuple([sum(map(mul, row, coords)) for row in rs.cartan]), -sum(coords), c)
                 for coords, c in g.items())


def _straightened_expansion(rs: RootSystem, lam, terms) -> dict:
    """`polytope_expansion` by straightening (docs/expand.md): B_k is
    sum_nu g_nu chi~_{k + nu}, where chi~_x = D_{w0} e^x is the sign of w
    times chi_{w(x + rho) - rho} for the w that makes x + rho dominant, or
    0 when x + rho is singular.  So from the residual {lam: 1}, taken from
    lam downward, each dominant k with a nonzero residual c gets c_k = c
    and passes -g_nu c to the straightened k + nu of each term of g.

    The residual is kept in buckets by depth, the height of lam - k, on
    packed ints of lam + rho's codec.  A term moves k by its packed step:
    when k + nu is dominant that is one addition and one AND, and only a
    term that leaves the dominant chamber folds k + nu + rho
    (`formal._Codec.straighten`), which raises its depth by -n per
    reflection at a label n and gives the sign by the parity of the
    reflections.  k + nu + rho lies in conv W(k + rho), off its vertices,
    so every term lands strictly deeper than k, which is asserted term by
    term; the codec's fields hold that hull, and so every fold.
    ``terms`` is `_brion_numerator`'s."""
    codec = _codec_for(rs, (tuple([x + 1 for x in lam]),))
    top, rho, straighten = codec.top, codec.delta(rs.weyl_vector), codec.straighten
    steps = [(codec.delta(nu), height, c) for nu, height, c in terms]
    buckets = {0: {codec.pack(lam): 1}}
    coeffs = {}
    # packed k + nu off the chamber -> (its straightened weight, that
    # weight's depth, the sign), or () when k + nu + rho is singular
    folds = {}
    depth = 0
    while buckets:
        for p, c in buckets.pop(depth, {}).items():
            if not c:
                continue
            coeffs[p] = c
            for step, height, g_nu in steps:
                q = p + step
                if q & top == top:
                    deeper = depth + height
                else:
                    fold = folds.get(q)
                    if fold is None:
                        x, flips, raised = straighten(q + rho)
                        x -= rho
                        fold = folds[q] = (x, depth + height - raised, 1 - (flips & 1) * 2) \
                            if x & top == top else ()
                    if not fold:
                        continue
                    q, deeper, sign = fold
                    g_nu *= sign
                # a term left at k's depth would never be taken
                assert deeper > depth, "a straightened term must lie below k"
                bucket = buckets.get(deeper)
                if bucket is None:
                    bucket = buckets[deeper] = {}
                bucket[q] = bucket.get(q, 0) - g_nu * c
        depth += 1
    keys = sorted(coeffs)
    return dict(zip(codec.unpack_all(keys), map(coeffs.__getitem__, keys)))


def _freudenthal_peel(rs: RootSystem, lam) -> dict:
    """`polytope_expansion` by peeling Freudenthal's multiplicities, keyed
    by dominant weight in the walk's order.

    Every dominant weight under a dominant weight lies inside its polytope,
    so peeling from lam downward determines each coefficient: the weight's
    multiplicity minus the coefficients already fixed above it.  Above
    means a smaller gap, the root coordinates of lam - mu, in every entry.
    Each gap is packed with one spare guard bit on top of every field, as
    a linear map of lam - mu through the Cartan adjugate's columns, so
    nu >= mu is one subtraction and one AND: (g_mu | guard) - g_nu keeps
    every guard bit exactly when no field of g_nu exceeds g_mu's, and no
    field borrows from the next."""
    mult = dominant_weight_multiplicities(rs, lam)
    det, adj = rs.cartan_det, rs.cartan_adjugate
    # root coordinates of lam - mu are at most twice lam's largest: mu >= w0 lam
    width = (2 * max(sum(map(mul, row, lam)) for row in adj) // det).bit_length() + 1
    guard = sum(1 << (width * i + width - 1) for i in range(rs.rank))
    # column j of det * cartan^-1, packed: pack(gap) = sum_j (lam - mu)_j * cols[j] // det
    cols = [sum(row[j] << (width * i) for i, row in enumerate(adj)) for j in range(rs.rank)]
    coeffs: dict = {}
    fixed = []  # (packed gap, coefficient) of each nonzero coefficient so far
    for mu, value in mult.items():  # walk order: lam downward
        gap = sum(map(mul, map(sub, lam, mu), cols)) // det
        over = gap | guard
        value -= sum([c for g, c in fixed if (over - g) & guard == guard])
        if value:
            coeffs[mu] = value
            fixed.append((gap, value))
    return coeffs


def polytope_expansion(rs: RootSystem, lam) -> dict:
    """Integer coefficients expanding the irreducible character as a
    combination of polytope lattice sums over dominant weights below lam,
    keyed by dominant weight in lexicographic order; only nonzero ones are
    kept.

    Two routes give the same dict, chosen by their per-weight work: where
    `_brion_numerator`'s product g has at most ``_STRAIGHTEN_TERMS_PER_ROOT``
    terms per positive root (every algebra of rank at most 3, and A4), the
    coefficients are read off Brion's formula by straightening
    (`_straightened_expansion`), |g| steps per dominant weight; elsewhere
    Freudenthal's multiplicities are peeled (`_freudenthal_peel`), whose
    strings cost about |Phi+| steps per dominant weight.  Neither route
    does work before lam is sized: the straightening route sizes lam as
    `char` does (`_check_polytope_size`), and the peel by Freudenthal's
    walk (`_walk_below`), so a refusal names the same count on both."""
    lam = check_weight(rs, lam, dominant=True)
    terms = _brion_numerator(rs)
    if terms is None:
        return dict(sorted(_freudenthal_peel(rs, lam).items()))
    _check_polytope_size(rs, lam)
    return _straightened_expansion(rs, lam, terms)


def sample_generic_sigmas(rs: RootSystem, count: int, seed: int = DEFAULT_SEED) -> list:
    """``count`` seeded evaluation points, uniform per coordinate in
    [0.1, 1.1].  None is near a pole: a positive root beta = sum_i c_i
    alpha_i pairs with sigma to sum_i c_i sigma_i (alpha_i, alpha_i) / 2,
    with long roots of squared length 2, and that is at least 0.1 / 3 =
    1/30 on every supported algebra, the bound met on G2's short simple
    root at sigma = (0.1, 0.1)."""
    import random  # deferred: only eval samples, so the CLI starts without it

    rng = random.Random(seed)
    return [tuple([rng.uniform(0.1, 1.1) for _ in range(rs.rank)]) for _ in range(count)]


def formula_against_oracle(rs: RootSystem, lam) -> tuple:
    """The operator formula's sum for a dominant lam, the oracle's sum and
    their difference.  The formula is looked up first, so an algebra without
    one is refused before any enumeration, and the oracle runs before the
    formula, so its point cap refuses lam before the formula builds a sum.
    Equal sums are recognised by one dict comparison; the difference is
    merged term by term only when they differ."""
    _formula(rs)
    oracle = polytope_sum_oracle(rs, lam).sum
    formula = polytope_sum_demazure(rs, lam)
    if formula == oracle:
        return formula, oracle, FormalSum._of(rs.rank, {})
    return formula, oracle, formula - oracle


def verify_polytope_formula(rs: RootSystem, max_label: int) -> list:
    """Sweep every dominant weight with labels in [0..max_label], comparing
    the operator formula against the enumerator exactly: one JSON record
    per weight, as `verify` prints it.  The whole grid is sized first, so
    an oversized sweep is refused before any sum.  Weyl dimensions adding
    up to at most the cap pass at once (read lazily, up to the first
    weight past it).  Otherwise each lam's polytope is walked
    (`_walk_below`, which refuses lam's own polytope past the cap), counted
    on the walk's packed weights (`_packed_orbit_size`) and added to a
    running total, refused past the cap."""
    if max_label < 0:
        raise ValueError("max_label must be nonnegative")
    name = _formula(rs)[0]
    n = max_label + 1

    def grid():
        # lexicographic, as itertools.product would give it, but lazily:
        # product holds its ranges as tuples, and the budget may stop early
        return (tuple([i // n**k % n for k in range(rs.rank)[::-1]]) for i in range(n**rs.rank))

    if any(dims > _POINT_CAP for dims in accumulate(weyl_dimension(rs, lam) for lam in grid())):
        what, points = f"the sweep of {rs.name} up to {max_label}", 0
        for lam in grid():
            codec, packed, _depths = _walk_below(rs, lam)
            points += sum([_packed_orbit_size(rs, codec, p) for p in packed])
            _check_point_count(what, points)
    reports = []
    for lam in grid():  # the budget passed: at most the cap
        _formula_sum, oracle, diff = formula_against_oracle(rs, lam)
        reports.append({
            "formula": name,
            "algebra": rs.name,
            "lambda": list(lam),
            "match": diff.is_zero(),
            "diff": diff.to_json_obj(),
            "n_points": oracle.coefficient_sum(),
        })
    return reports


def numeric_formula_check(
    rs: RootSystem, lam, sigma_count: int = 20, seed: int = DEFAULT_SEED
) -> dict:
    """Max relative errors, over seeded generic points, of the vertex-cone
    expression against the enumerated polytope sum and of the Weyl character
    value against the Demazure character.

    The points go in chunks of max(1, _TABLE_BUDGET // len(lattice sum)),
    so the tables each chunk fills hold about _TABLE_BUDGET exponentials.
    Each chunk is one sample for `evaluate` on the lattice sum, then
    `brion_eval`, `evaluate` on the character and `weyl_character_eval`;
    the errors are then folded in point order.  So within a chunk an
    earlier layer's error at any point comes before a later layer's error
    at an earlier point."""
    lam = check_weight(rs, lam, dominant=True)
    if sigma_count < 1:
        raise ValueError(f"sigma_count must be at least 1, got {sigma_count}")
    if sigma_count > _SIGMA_CAP:
        raise ValueError(f"sigma_count must be at most {_SIGMA_CAP}, got {sigma_count}")
    # the evaluators sum over the whole group: hit its cap before enumerating
    weyl_group(rs)
    lattice_sum = polytope_sum_oracle(rs, lam).sum
    character = character_demazure(rs, lam)
    sigmas = sample_generic_sigmas(rs, sigma_count, seed)
    size = max(1, _TABLE_BUDGET // len(lattice_sum))
    brion_err = 0.0
    weyl_err = 0.0
    for start in range(0, sigma_count, size):
        chunk = sigmas[start:start + size]
        refs = evaluate(rs, lattice_sum, chunk)
        brions = brion_eval(rs, lam, chunk)
        ref_chs = evaluate(rs, character, chunk)
        weyls = weyl_character_eval(rs, lam, chunk)
        for ref, brion, ref_ch, weyl in zip(refs, brions, ref_chs, weyls):
            brion_err = max(brion_err, abs(brion - ref) / abs(ref))
            weyl_err = max(weyl_err, abs(weyl - ref_ch) / abs(ref_ch))
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
