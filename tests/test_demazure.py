"""Demazure operators: string values, braid relations, both character
formulas.  The point-by-point string formula below is kept as the
reference that certifies the running-sum cores."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychar import (
    FormalSum,
    apply_D_root,
    apply_D_simple,
    apply_d_root,
    apply_d_simple,
    apply_r_simple,
    apply_word,
    build_root_system,
    character_demazure,
    character_demazure_sum,
    character_freudenthal,
    weyl_group,
)
from polychar.demazure import _demazure, _reflect, apply_r_root

weights2 = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
sums2 = st.dictionaries(weights2, st.integers(-4, 4), max_size=6).map(
    lambda d: FormalSum(2, d)
)

_REFERENCE_ALGEBRAS = ("A1", "A2", "B2", "G2", "A3", "B3", "C3")


def _reference_demazure(rs, root, s, keep_identity):
    """The string formula of the module docstring, one point at a time."""
    coroot = rs.coroot_labels(root)
    step = root.weight_coords
    out = {}
    for lam, coeff in s.terms.items():
        n = sum(cv * x for cv, x in zip(coroot, lam))
        if n >= 0:
            for k in range(0 if keep_identity else 1, n + 1):
                mu = tuple(x - k * a for x, a in zip(lam, step))
                out[mu] = out.get(mu, 0) + coeff
        else:
            if not keep_identity:
                out[lam] = out.get(lam, 0) - coeff
            for k in range(1, -n):
                mu = tuple(x + k * a for x, a in zip(lam, step))
                out[mu] = out.get(mu, 0) - coeff
    return FormalSum(rs.rank, out)


def _reference_reflect(rs, root, s):
    coroot = rs.coroot_labels(root)
    step = root.weight_coords
    out = {}
    for lam, coeff in s.terms.items():
        n = sum(cv * x for cv, x in zip(coroot, lam))
        out[tuple(x - n * a for x, a in zip(lam, step))] = coeff
    return FormalSum(rs.rank, out)


def _assert_well_formed(rs, s):
    assert all(c and isinstance(c, int) for c in s.terms.values())
    assert all(len(w) == rs.rank for w in s.terms)


@pytest.mark.parametrize("name", _REFERENCE_ALGEBRAS)
@settings(max_examples=60)
@given(data=st.data())
def test_cores_match_point_by_point_reference(name, data):
    rs = build_root_system(name)
    weights = st.tuples(*[st.integers(-4, 4)] * rs.rank)
    coeffs = st.integers(-3, 3).filter(bool)
    s = FormalSum(rs.rank, data.draw(st.dictionaries(weights, coeffs, max_size=12)))
    for root in rs.positive_roots:
        for keep_identity in (True, False):
            out = _demazure(rs, root, s, keep_identity)
            assert out == _reference_demazure(rs, root, s, keep_identity)
            _assert_well_formed(rs, out)
        out = _reflect(rs, root, s)
        assert out == _reference_reflect(rs, root, s)
        _assert_well_formed(rs, out)


def test_string_values_a1(a1):
    # n >= 0 keeps the whole descending string
    assert apply_D_simple(a1, 1, FormalSum.exp((2,))) == FormalSum(
        1, {(2,): 1, (0,): 1, (-2,): 1}
    )
    # n = -1 annihilates
    assert apply_D_simple(a1, 1, FormalSum.exp((-1,))).is_zero()
    # n <= -2 flips sign and climbs
    assert apply_D_simple(a1, 1, FormalSum.exp((-3,))) == FormalSum(
        1, {(-1,): -1, (1,): -1}
    )


def test_d_is_D_minus_identity(a2):
    for lam in ((2, 1), (-1, 3), (0, -4)):
        s = FormalSum.exp(lam)
        for i in (1, 2):
            assert apply_d_simple(a2, i, s) == apply_D_simple(a2, i, s) - s


def test_root_operator_matches_simple(b2):
    s = FormalSum(2, {(1, 2): 2, (-2, 1): 1})
    for i, alpha in enumerate(b2.simple_roots, start=1):
        assert apply_D_root(b2, alpha, s) == apply_D_simple(b2, i, s)
        assert apply_d_root(b2, alpha, s) == apply_d_simple(b2, i, s)
        assert apply_r_root(b2, alpha, s) == apply_r_simple(b2, i, s)


def test_nonsimple_root_operator(a2):
    # the highest root of A2 has weight coords (1,1)
    theta = a2.root((1, 1))
    out = apply_D_root(a2, theta, FormalSum.exp((1, 1)))
    assert out == FormalSum(2, {(1, 1): 1, (0, 0): 1, (-1, -1): 1})


def test_r_flavor_is_reflection(g2):
    s = FormalSum(2, {(2, -1): 3, (0, 1): -2})
    out = apply_r_simple(g2, 1, s)
    assert out == FormalSum(
        2,
        {(-2, 5): 3, (0, 1): -2},
    )


@given(sums2, sums2)
def test_operators_linear(x, y):
    rs = build_root_system("B2")
    for i in (1, 2):
        assert apply_d_simple(rs, i, x + y) == apply_d_simple(rs, i, x) + apply_d_simple(rs, i, y)


@given(sums2)
def test_idempotence_relations(s):
    rs = build_root_system("A2")
    for i in (1, 2):
        D = apply_D_simple(rs, i, s)
        assert apply_D_simple(rs, i, D) == D  # D*D = D
        d = apply_d_simple(rs, i, s)
        assert apply_d_simple(rs, i, d) == -d  # d*d = -d


@pytest.mark.parametrize("name,m", [("A2", 3), ("B2", 4), ("G2", 6)])
def test_braid_relations(name, m):
    rs = build_root_system(name)
    w1 = tuple(1 if k % 2 == 0 else 2 for k in range(m))
    w2 = tuple(2 if k % 2 == 0 else 1 for k in range(m))
    for lam in ((2, 1), (-1, -2), (0, 3), (-3, 3)):
        s = FormalSum.exp(lam)
        assert apply_word(rs, w1, s, "D") == apply_word(rs, w2, s, "D")
        assert apply_word(rs, w1, s, "d") == apply_word(rs, w2, s, "d")


def test_apply_word_edges(a2):
    s = FormalSum.exp((1, 1))
    assert apply_word(a2, (), s) == s
    with pytest.raises(ValueError):
        apply_word(a2, (1,), s, flavor="q")
    with pytest.raises(ValueError):
        apply_word(a2, (5,), s)


def test_character_a2_adjoint(a2):
    ch = character_demazure(a2, (1, 1))
    assert ch.coefficient((0, 0)) == 2
    assert ch.coefficient((1, 1)) == 1
    assert ch.coefficient_sum() == 8
    assert len(ch) == 7


def test_character_sum_route_agrees(a2, b2, g2, a3):
    for rs in (a2, b2, g2, a3):
        lam = tuple(2 if k == 0 else 1 for k in range(rs.rank))
        assert character_demazure_sum(rs, lam) == character_demazure(rs, lam)


def test_character_word_independence(b2):
    # any reduced word of the longest element gives the same character
    lam = (2, 1)
    expected = character_demazure(b2, lam)
    for word in ((1, 2, 1, 2), (2, 1, 2, 1)):
        assert apply_word(b2, word, FormalSum.exp(lam), "D") == expected
    assert weyl_group(b2).longest.length == 4


def test_character_requires_dominant(a2):
    with pytest.raises(ValueError):
        character_demazure(a2, (-1, 0))
    with pytest.raises(ValueError):
        character_freudenthal(a2, (0, -2))
