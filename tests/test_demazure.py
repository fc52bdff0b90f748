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
from polychar import gamma_sequence, polysum
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


def _assert_cores_match(rs, root, s):
    for keep_identity in (True, False):
        out = _demazure(rs, root, s, keep_identity)
        assert out == _reference_demazure(rs, root, s, keep_identity)
        _assert_well_formed(rs, out)
    out = _reflect(rs, root, s)
    assert out == _reference_reflect(rs, root, s)
    _assert_well_formed(rs, out)


def _one_byte_top(rs):
    """The largest |mu|_1 whose codec bound c_max * |mu|_1 one-byte fields hold."""
    return 127 // max(map(max, rs.coroots.values()))


def _draw_sum(data, rs, edge_sizes):
    """A small random sum, plus one term on a coordinate axis whose |mu|_1
    is drawn from ``edge_sizes`` (0 for none)."""
    weights = st.tuples(*[st.integers(-4, 4)] * rs.rank)
    coeffs = st.integers(-3, 3).filter(bool)
    terms = data.draw(st.dictionaries(weights, coeffs, max_size=12))
    size = data.draw(st.sampled_from(edge_sizes))
    if size:
        j = data.draw(st.integers(0, rs.rank - 1))
        size *= data.draw(st.sampled_from((1, -1)))
        terms[tuple(size * (k == j) for k in range(rs.rank))] = data.draw(coeffs)
    return terms


@pytest.mark.parametrize("name", _REFERENCE_ALGEBRAS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cores_match_point_by_point_reference(name, data):
    rs = build_root_system(name)
    top = _one_byte_top(rs)
    terms = _draw_sum(data, rs, (0, top, top + 1))
    s = FormalSum(rs.rank, terms)
    if any(sum(map(abs, w)) > top for w in terms):
        # one past the field bound: the sum gets two-byte fields
        assert s._packed_for(rs)[1].nbytes == 2
    for root in rs.positive_roots:
        _assert_cores_match(rs, root, s)
    if rs.rank == 1 or not terms:
        return
    # labels near +-2**70, translated along the hyperplane of each root so
    # its strings stay short enough for the reference: fields wider than
    # 8 bytes
    big = data.draw(st.sampled_from((2**70, -(2**70))))
    for root in rs.positive_roots:
        labels = rs.coroot_labels(root)
        i = next(k for k, cv in enumerate(labels) if cv)
        j = next(k for k in range(rs.rank) if k != i)
        v = [0] * rs.rank
        v[i], v[j] = labels[j], -labels[i]  # <v, root^vee> = 0
        far = FormalSum(rs.rank, {tuple(x + big * a for x, a in zip(w, v)): c
                                  for w, c in terms.items()})
        assert far._packed_for(rs)[1].nbytes > 8
        _assert_cores_match(rs, root, far)


def test_sum_packed_for_one_algebra_is_repacked_for_another(a2, g2):
    # A2's codec holds |mu|_1 <= 127 in one byte, but G2's hull of the
    # same support reaches labels of 300
    s = apply_D_simple(a2, 1, FormalSum.exp((100, 0)))
    assert s._codec.rs is a2 and s._codec.nbytes == 1
    for root in g2.positive_roots:
        _assert_cores_match(g2, root, s)


def _reference_bracket(rs, gammas, start, stop, s, factors):
    total = staged = s
    for k in range(start, stop):
        term = _reference_demazure(rs, gammas[k], staged, False)
        if k in factors:
            term = term + term.mul_exp(gammas[factors[k]].weight_coords)
        total = total + term
        staged = _reference_reflect(rs, gammas[k], staged)
    return total


@pytest.mark.parametrize("name", ("A1", "A2", "B2", "G2", "A3"))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_words_match_reference_letter_by_letter(name, data):
    # packed sums pass from operator to operator, and from bracket to
    # bracket, without unpacking
    rs = build_root_system(name)
    s = FormalSum(rs.rank, _draw_sum(data, rs, (0, 7)))
    word = data.draw(st.lists(st.integers(1, rs.rank), min_size=2, max_size=5))
    for flavor in "Dd":
        expected = s
        for i in reversed(word):
            expected = _reference_demazure(rs, rs.simple_root(i), expected, flavor == "D")
        assert apply_word(rs, word, s, flavor) == expected
    _name, segments, factors = polysum._formula(rs)
    gammas = gamma_sequence(rs)
    out = expected = s
    start = 0
    for segment in segments:
        stop = start + len(segment)
        out = polysum._edge_bracket(rs, gammas, start, stop, out, factors)
        expected = _reference_bracket(rs, gammas, start, stop, expected, factors)
        assert out == expected
        _assert_well_formed(rs, out)
        start = stop


def _form(s):
    """The one form ``s`` holds, "tuples" or "packed", after checking that
    every key of its one term dict has that form."""
    if s._codec is None:
        assert all(type(k) is tuple for k in s._terms)
        return "tuples"
    assert all(type(k) is int for k in s._terms)
    return "packed"


@pytest.mark.parametrize("name", ("A2", "G2"))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_sum_holds_one_form(name, data):
    rs = build_root_system(name)
    x_terms = _draw_sum(data, rs, (0, _one_byte_top(rs) + 1))
    y_terms = _draw_sum(data, rs, (0,))
    shift = data.draw(st.tuples(*[st.integers(-3, 3)] * rs.rank))
    lam = data.draw(st.tuples(*[st.integers(0, 2)] * rs.rank))
    root = rs.simple_root(1)
    x, y = FormalSum(rs.rank, x_terms), FormalSum(rs.rank, y_terms)
    got = {
        "D x": apply_D_simple(rs, 1, x),
        "d x": apply_d_simple(rs, 1, x),
        "r y": apply_r_simple(rs, 1, y),
        # on G2 its brackets add tuple translates to packed terms
        "bsum": polysum.polytope_sum_demazure(rs, lam),
    }
    # an operator packs its input in place, and its outputs keep the codec
    assert _form(x) == _form(y) == "packed"
    assert got["D x"]._codec is got["d x"]._codec is x._codec
    got["D x + d x"] = got["D x"] + got["d x"]
    assert got["D x + d x"]._codec is x._codec
    got["d x - r y"] = got["d x"] - got["r y"]
    # the reference: tuple sums that no operator reads
    ref_x, ref_y = FormalSum(rs.rank, x_terms), FormalSum(rs.rank, y_terms)
    ref = {
        "D x": _reference_demazure(rs, root, ref_x, True),
        "d x": _reference_demazure(rs, root, ref_x, False),
        "r y": _reference_reflect(rs, root, ref_y),
        "bsum": polysum.polytope_sum_oracle(rs, lam).sum,
    }
    ref["D x + d x"] = ref["D x"] + ref["d x"]
    ref["d x - r y"] = ref["d x"] - ref["r y"]
    last = rs.simple_root(rs.rank)
    calls = (
        (lambda s: dict(s.terms), lambda s: dict(s.terms)),
        (lambda s: s.mul_exp(shift), lambda s: s.mul_exp(shift)),
        (lambda s: apply_D_simple(rs, rs.rank, s), lambda s: _reference_demazure(rs, last, s, True)),
        (lambda s: s, lambda s: s),  # the comparison below is itself the call
    )
    live = [x, y, *got.values()]
    for key, expected in ref.items():
        for call, reference in calls:
            result = call(got[key])
            assert result == reference(expected)
            if isinstance(result, FormalSum):
                live.append(result)
            for s in live:
                _form(s)
    assert {_form(s) for s in [ref_x, ref_y, *ref.values()]} == {"tuples"}


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
    assert len(weyl_group(b2).longest.word) == 4


def test_character_requires_dominant(a2):
    with pytest.raises(ValueError):
        character_demazure(a2, (-1, 0))
    with pytest.raises(ValueError):
        character_freudenthal(a2, (0, -2))
