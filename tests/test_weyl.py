"""Reflections, orbits, the enumerated Weyl group, and the long-element
factorization through the operator formula's root order."""

import random
from itertools import product

import pytest

from polychar import (
    FormalSum,
    apply_r_root,
    apply_r_simple,
    build_root_system,
    dominant_representative,
    orbit,
    orbit_size,
    weyl_group,
)
from polychar import polysum, weyl
from polychar.formal import _codec_for

# every algebra whose whole Weyl group is enumerated (rank <= 3)
_SMALL = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2")


def _replay(rs, word, weight) -> FormalSum:
    """e^weight reflected by the simple reflections of a word, rightmost
    letter first."""
    s = FormalSum.exp(weight)
    for i in reversed(word):
        s = apply_r_simple(rs, i, s)
    return s


def test_simple_reflection_examples(a2):
    assert apply_r_simple(a2, 1, FormalSum.exp((1, 0))) == FormalSum.exp((-1, 1))
    assert apply_r_simple(a2, 2, FormalSum.exp((1, 0))) == FormalSum.exp((1, 0))
    assert apply_r_simple(a2, 1, FormalSum.exp((1, 1))) == FormalSum.exp((-1, 2))


def test_reflection_is_involution(b2, g2):
    for rs in (b2, g2):
        for root in rs.positive_roots:
            for w in ((1, 0), (0, 1), (2, -3), (-1, 4)):
                e = FormalSum.exp(w)
                assert apply_r_root(rs, root, apply_r_root(rs, root, e)) == e


def test_reflection_index_validation(a2):
    with pytest.raises(ValueError):
        apply_r_simple(a2, 0, FormalSum.exp((1, 0)))
    with pytest.raises(ValueError):
        apply_r_simple(a2, 3, FormalSum.exp((1, 0)))


def test_dominant_representative(a2):
    dom, word = dominant_representative(a2, (-1, 1))
    assert dom == (1, 0)
    assert word == (1,)
    # the word maps the input to the dominant weight, rightmost letter first
    assert _replay(a2, word, (-1, 1)) == FormalSum.exp(dom)
    assert dominant_representative(a2, dom) == (dom, ())


def test_dominant_representative_replay(g2):
    for start in ((-3, 2), (4, -5), (-1, -1), (0, -2)):
        dom, word = dominant_representative(g2, start)
        assert all(x >= 0 for x in dom)
        assert _replay(g2, word, start) == FormalSum.exp(dom)


def test_orbit_sizes(a2, g2):
    assert len(orbit(a2, (1, 1))) == 6
    assert len(orbit(a2, (1, 0))) == 3
    assert len(orbit(a2, (0, 0))) == 1
    assert len(orbit(g2, (1, 1))) == 12


@pytest.mark.parametrize(
    "name,top",
    [(name, 2) for name in _SMALL]
    + [(name, 1) for name in ("A4", "B4", "C4", "D4", "A5", "D5")],
)
def test_orbit_size_counts_the_orbit(name, top):
    rs = build_root_system(name)
    for lam in product(range(top + 1), repeat=rs.rank):
        assert orbit_size(rs, lam) == len(orbit(rs, lam)), lam


def _closure_orbit(rs, weight) -> frozenset:
    """Reference orbit: the closure of the weight under the simple
    reflections, kept in a visited set (the walk `orbit` replaced)."""
    cols = [root.weight_coords for root in rs.simple_roots]
    seen = {tuple(weight)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for i, alpha in enumerate(cols):
                img = tuple(x - w[i] * a for x, a in zip(w, alpha))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)


# (algebra, max label) grids on which the reverse-search walk must equal the
# closure: every dominant weight with labels in [0..max label]
_ORBIT_GRIDS = (
    ("A1", 12), ("A2", 7), ("B2", 7), ("C2", 7), ("G2", 7), ("A3", 4),
    ("B3", 3), ("C3", 3), ("D4", 2), ("B5", 1),
)


@pytest.mark.parametrize("name,max_label", _ORBIT_GRIDS)
def test_orbit_walk_matches_closure(name, max_label):
    rs = build_root_system(name)
    for lam in product(range(max_label + 1), repeat=rs.rank):
        codec = _codec_for(rs, (lam,))
        points = codec.unpack_all(codec.orbit(codec.pack(lam)))
        # reverse search reaches each point once: no duplicate to drop
        assert len(points) == len(set(points)), lam
        assert orbit(rs, lam) == frozenset(points) == _closure_orbit(rs, lam), lam
        assert len(points) == orbit_size(rs, lam), lam


@pytest.mark.parametrize("name,lam,nbytes", [
    # either side of the edge between one-byte and two-byte fields
    ("A1", (125,), 1), ("A1", (126,), 2), ("A1", (127,), 2), ("A1", (128,), 2),
    ("G2", (41, 0), 1), ("G2", (42, 0), 2), ("C3", (0, 31, 31), 1), ("C3", (0, 31, 32), 2),
])
def test_orbit_walk_at_codec_edges(name, lam, nbytes):
    rs = build_root_system(name)
    codec = _codec_for(rs, (lam,))
    assert codec.nbytes == nbytes
    points = codec.orbit(codec.pack(lam))
    assert len(points) == len(set(points)) == orbit_size(rs, lam)
    assert orbit(rs, lam) == frozenset(codec.unpack_all(points)) == _closure_orbit(rs, lam)
    # from a non-dominant image too, folded first
    far = min(_closure_orbit(rs, lam))
    assert orbit(rs, far) == _closure_orbit(rs, far)


@pytest.mark.parametrize("name", ("A2", "B2", "G2", "A3", "C3", "D4"))
def test_orbit_of_a_non_dominant_weight(name):
    # the walk starts from the dominant representative, whose orbit it is
    rs = build_root_system(name)
    rng = random.Random(17)
    for _ in range(20):
        w = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
        if min(w) >= 0:
            w = (-1,) + w[1:]
        dom, _word = dominant_representative(rs, w)
        assert orbit(rs, w) == orbit(rs, dom) == _closure_orbit(rs, w), w
        assert w in orbit(rs, w)


def test_orbit_size_needs_a_dominant_weight(a2):
    with pytest.raises(ValueError, match="not dominant"):
        orbit_size(a2, (1, -1))


def test_orbit_size_checks_before_the_table(a2, monkeypatch):
    calls = []
    monkeypatch.setattr(weyl, "_orbit_size", lambda *key: calls.append(key))
    with pytest.raises(ValueError, match="not dominant"):
        orbit_size(a2, (1, -1))
    with pytest.raises(ValueError, match="expected 2"):
        orbit_size(a2, (1, 0, 0))
    assert calls == []
    orbit_size(a2, (2, 0))
    assert calls == [(a2, (True, False))]


def test_orbit_size_table_is_per_algebra_and_zero_pattern():
    a3 = build_root_system("A3")
    assert orbit_size(a3, (5, 0, 2)) == orbit_size(build_root_system("A3"), (1, 0, 7)) == 12
    before = weyl._orbit_size.cache_info()
    orbit_size(build_root_system("A3"), (3, 0, 3))
    after = weyl._orbit_size.cache_info()
    # the algebra asked for again and other nonzero labels: the same entry
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_group_orders():
    for name, order in (("A1", 2), ("A2", 6), ("B2", 8), ("C2", 8),
                        ("G2", 12), ("A3", 24), ("B3", 48), ("D3", 24)):
        assert len(weyl_group(build_root_system(name))) == order


@pytest.mark.parametrize("name", _SMALL)
def test_weyl_images_of_roots_are_all_roots(name):
    # The numeric pole test scans only the positive roots; it sees every
    # vertex-cone denominator because W x simple roots, and W x positive
    # roots, both land exactly on the roots +-beta.
    rs = build_root_system(name)
    roots = {root.weight_coords for root in rs.positive_roots}
    roots |= {tuple(-x for x in beta) for beta in roots}
    elements = weyl_group(rs)
    for source in (rs.simple_roots, rs.positive_roots):
        images = {el.apply(root.weight_coords) for el in elements for root in source}
        assert images == roots


@pytest.mark.parametrize("name", _SMALL)
def test_root_permutation_table(name):
    rs = build_root_system(name)
    group = weyl_group(rs)
    roots = [root.weight_coords for root in rs.positive_roots]
    n = len(roots)
    rows = polysum._root_permutation(rs)
    assert rows is polysum._root_permutation(build_root_system(name))
    assert len(rows) == len(group)
    for el, row in zip(group, rows):
        assert sorted(abs(k) for k in row) == list(range(1, n + 1))
        for beta, k in zip(roots, row):
            image = roots[abs(k) - 1]
            assert el.apply(beta) == (image if k > 0 else tuple(-x for x in image))
        # l(w) = #{beta > 0 : w beta < 0}
        assert sum(1 for k in row if k < 0) == len(el.word)
    assert rows[0] == tuple(range(1, n + 1))
    assert all(k < 0 for k in rows[-1])


def test_longest_element(a2, b2, g2, a3):
    for rs, length in ((a2, 3), (b2, 4), (g2, 6), (a3, 6)):
        group = weyl_group(rs)
        assert len(group[-1].word) == length
        assert max(len(el.word) for el in group) == length
        # longest element is the unique one of maximal length
        assert sum(1 for el in group if len(el.word) == length) == 1


@pytest.mark.parametrize("name", _SMALL)
def test_longest_is_the_last_element(name):
    # callers read w0 as weyl_group(rs)[-1]: BFS discovers elements in order
    # of length, and w0, which sends rho to -rho, is the only one of its length
    rs = build_root_system(name)
    group = weyl_group(rs)
    rho = rs.weyl_vector
    assert group[-1].apply(rho) == tuple(-x for x in rho)
    top = len(group[-1].word)
    assert all(len(el.word) < top for el in group[:-1])


def _det(matrix) -> int:
    """Laplace expansion along the first row."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * a * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
        for j, a in enumerate(matrix[0])
    )


@pytest.mark.parametrize("name", _SMALL)
def test_weight_table_signs_are_determinants(name):
    # the Weyl-character numerator signs each element by its word's parity;
    # a reflection has determinant -1, so det(w) checks each sign without
    # reading the word
    rs = build_root_system(name)
    _images, shifted = polysum._weight_table(rs, tuple(range(1, rs.rank + 1)))
    assert [sign for sign, _mu in shifted] == [_det(el.matrix) for el in weyl_group(rs)]


def test_word_replay_equals_matrix():
    # each letter reflects by s_i mu = mu - 2 (mu, alpha_i) / (alpha_i, alpha_i)
    # alpha_i, straight from the quadratic form: neither the row operation
    # that builds each table matrix nor the stored coroot labels
    for name in _SMALL:
        rs = build_root_system(name)
        alphas = [root.weight_coords for root in rs.simple_roots]
        for el in weyl_group(rs):
            for w in ((1, 0, 0), (2, 3, -1), (-1, 2, 4)):
                w = w[: rs.rank]
                out = w
                for i in reversed(el.word):
                    alpha = alphas[i - 1]
                    n = 2 * rs.inner(out, alpha) / rs.inner(alpha, alpha)
                    assert n.denominator == 1
                    out = tuple(x - int(n) * a for x, a in zip(out, alpha))
                assert out == el.apply(w)


def test_apply_rejects_wrong_length(a2):
    el = weyl_group(a2)[1]
    for w in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="weight length mismatch"):
            el.apply(w)


def test_weyl_group_shared_by_rebuilt_root_systems():
    # build_root_system keeps one root system per algebra, so asking again hits the cache
    assert weyl_group(build_root_system("A3")) is weyl_group(build_root_system("A3"))
    assert build_root_system("B2") != build_root_system("C2")
    assert weyl_group(build_root_system("B2")) is not weyl_group(build_root_system("C2"))


def test_rank_cap():
    with pytest.raises(ValueError):
        weyl_group(build_root_system("A4"))


def longest_element_via_gammas(rs):
    """The reflections at the gamma-sequence roots, first root acting first,
    composed into a map on weights: s_beta_N ... s_beta_1 is w0 for any
    inversion sequence of w0."""
    roots = polysum._formula(rs)[1]

    def act(weight):
        s = FormalSum.exp(weight)
        for root in roots:
            s = apply_r_root(rs, root, s)
        [lam] = s.terms
        return lam

    return act


def test_longest_via_gammas_closed_forms(a2, b2, g2, a3):
    wl_a2 = longest_element_via_gammas(a2)
    assert wl_a2((3, 5)) == (-5, -3)
    for rs in (b2, g2):
        wl = longest_element_via_gammas(rs)
        assert wl((3, 5)) == (-3, -5)  # minus identity
    wl_a3 = longest_element_via_gammas(a3)
    assert wl_a3((1, 2, 3)) == (-3, -2, -1)


def test_longest_via_gammas_matches_table(a2, b2, g2, a3):
    rng = random.Random(11)
    for rs in (a2, b2, g2, a3):
        composite = longest_element_via_gammas(rs)
        wl = weyl_group(rs)[-1]
        for _ in range(25):
            w = tuple(rng.randint(-8, 8) for _ in range(rs.rank))
            assert composite(w) == wl.apply(w)


def test_longest_maps_dominant_to_antidominant(g2):
    composite = longest_element_via_gammas(g2)
    assert all(x <= 0 for x in composite((4, 1)))


def test_gamma_composite_unavailable_off_scope():
    with pytest.raises(ValueError):
        longest_element_via_gammas(build_root_system("B3"))
