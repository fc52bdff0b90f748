"""Cartan data, root generation, and the exact quadratic form."""

import math
from fractions import Fraction
from functools import cache
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychar import (
    AlgebraId,
    Root,
    build_root_system,
    polysum,
    rootsys,
    weyl_dimension,
)
from polychar.rootsys import check_weight, dot_float

_SUPPORTED = (
    [f"A{r}" for r in range(1, 9)]
    + [f"{family}{r}" for family in "BC" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["G2"]
)


def test_parse_roundtrip():
    aid = AlgebraId.parse("b4")
    assert (aid.family, aid.rank) == ("B", 4)
    assert str(aid) == "B4"


_PARSE_ERRORS = {
    "E6": "expected one of A, B, C, D, G$",
    "F4": "expected one of A, B, C, D, G$",
    "H2": "expected one of A, B, C, D, G$",
    "B1": "family B starts at rank 2",
    "C1": "family C starts at rank 2",
    "D2": "family D starts at rank 3",
    "G3": "the G family only exists at rank 2",
    "G1": "the G family only exists at rank 2",
    "A9": "exceeds the desk-scale cap of 8",
    "A0": "rank must be a positive integer",
}


@pytest.mark.parametrize(
    "bad",
    ["E6", "F4", "B1", "C1", "D2", "G3", "G1", "A9", "A0", "H2", "A", "2", "", "A-1",
     "A\u0662", "A\u00b2"],
)
def test_parse_rejects(bad):
    # non-ASCII digits (Arabic-Indic two, superscript two) are not a rank
    with pytest.raises(ValueError, match=_PARSE_ERRORS.get(bad, "cannot parse")):
        AlgebraId.parse(bad)


def test_cartan_matrices_rank2_and_a3(a2, b2, g2, a3):
    assert a2.cartan == ((2, -1), (-1, 2))
    # first simple root long in both B2 and G2
    assert b2.cartan == ((2, -1), (-2, 2))
    assert g2.cartan == ((2, -1), (-3, 2))
    assert a3.cartan == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


def test_cartan_matrices_rank3_and_d4():
    # B puts its short root last, C its long root last; D4 branches at its
    # second node, with bonds (0, 1), (1, 2) and (1, 3)
    assert build_root_system("B3").cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert build_root_system("C3").cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert build_root_system("D4").cartan == (
        (2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2),
    )


@pytest.mark.parametrize("name", _SUPPORTED)
def test_cartan_symmetrized_by_root_lengths(name):
    # (alpha_i, alpha_i) cartan[i][j] = 2 (alpha_i, alpha_j) is symmetric, with
    # the lengths read off the Gram matrix rather than the Dynkin record
    rs = build_root_system(name)
    simple = [root.weight_coords for root in rs.simple_roots]
    lengths = [rs.inner_scaled(a, a) for a in simple]
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert lengths[i] * rs.cartan[i][j] == lengths[j] * rs.cartan[j][i]


def test_positive_root_sets(a2, b2, g2):
    assert {r.root_coords for r in a2.positive_roots} == {(1, 0), (0, 1), (1, 1)}
    assert {r.root_coords for r in b2.positive_roots} == {
        (1, 0), (0, 1), (1, 1), (1, 2),
    }
    assert {r.root_coords for r in g2.positive_roots} == {
        (1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3),
    }


def _closed_form_count(name):
    family, n = name[0], int(name[1:])
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1), "G": 6}[family]


@pytest.mark.parametrize(
    "name,count", [(name, _closed_form_count(name)) for name in _SUPPORTED]
)
def test_positive_root_counts(name, count):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == count


def _quadratic_form(rs) -> tuple:
    """The exact Gram matrix of the fundamental weights, in Fractions, from
    the integer matrix and scale the root system keeps."""
    return tuple(tuple(Fraction(x, rs.form_scale) for x in row) for row in rs.gram_scaled)


def _closed_form_det(name):
    family, n = name[0], int(name[1:])
    return {"A": n + 1, "B": 2, "C": 2, "D": 4, "G": 1}[family]


@pytest.mark.parametrize("name", _SUPPORTED)
def test_integer_kernel(name):
    rs = build_root_system(name)
    r = rs.rank
    cartan, adj, form = rs.cartan, rs.cartan_adjugate, _quadratic_form(rs)
    assert rs.cartan_det == _closed_form_det(name)
    for i in range(r):
        for j in range(r):
            entry = sum(cartan[i][k] * adj[k][j] for k in range(r))
            assert entry == rs.cartan_det * (i == j)
    for root in rs.positive_roots:
        assert rs.root_coords_of_weight(root.weight_coords) == root.root_coords
    # (Lambda^i, alpha_j) = delta_ij (alpha_j, alpha_j) / 2, long roots at 1
    halves = []
    for i in range(r):
        for j in range(r):
            entry = sum(form[i][k] * cartan[k][j] for k in range(r))
            if i == j:
                halves.append(entry)
            else:
                assert entry == 0
    assert set(halves) <= {1, Fraction(1, 2), Fraction(1, 3)}
    assert max(halves) == 1
    assert rs.form_scale == math.lcm(*(x.denominator for row in form for x in row))


def test_weight_coords_consistent_with_cartan(g2, a3):
    # column j of the Cartan matrix is the weight vector of alpha_j
    for rs in (g2, a3):
        r = rs.rank
        for root in rs.positive_roots:
            expected = tuple(
                sum(rs.cartan[i][j] * root.root_coords[j] for j in range(r))
                for i in range(r)
            )
            assert root.weight_coords == expected


def _pairing(rs, mu, root) -> int:
    """<mu, root^vee>: the weight's labels against the root's coroot labels."""
    return sum(map(mul, mu, rs.coroot_labels(root)))


def test_pairing_against_cartan(a2, b2, g2, a3):
    for rs in (a2, b2, g2, a3):
        for j, alpha_j in enumerate(rs.simple_roots):
            for i, alpha_i in enumerate(rs.simple_roots):
                # fundamental weights pair to delta with simple coroots
                unit = tuple(int(k == i) for k in range(rs.rank))
                assert _pairing(rs, unit, alpha_j) == int(i == j)
                # the Cartan matrix is recovered by pairing root labels
                assert _pairing(rs, alpha_j.weight_coords, alpha_i) == rs.cartan[i][j]


def test_pairing_examples(a2, g2):
    alpha1 = a2.simple_roots[0]
    assert _pairing(a2, (1, 0), alpha1) == 1
    # cross-check the G2 highest-root pairing straight from the quadratic form
    beta = g2.root((2, 3))
    lam = (1, 0)
    by_hand = 2 * g2.inner(lam, beta.weight_coords) / g2.inner(
        beta.weight_coords, beta.weight_coords
    )
    assert by_hand == Fraction(2)
    assert _pairing(g2, lam, beta) == 2


def test_quadratic_form_values(a2, b2, g2, a3):
    third = Fraction(1, 3)
    assert _quadratic_form(a2) == (
        (2 * third, third), (third, 2 * third),
    )
    half = Fraction(1, 2)
    assert _quadratic_form(b2) == ((1, half), (half, half))
    assert _quadratic_form(g2) == ((2, 1), (1, Fraction(2, 3)))
    quarter = Fraction(1, 4)
    assert _quadratic_form(a3) == (
        (3 * quarter, 2 * quarter, quarter),
        (2 * quarter, 4 * quarter, 2 * quarter),
        (quarter, 2 * quarter, 3 * quarter),
    )


_cached_root_system = cache(build_root_system)


def _fraction_inner(rs, mu, nu) -> Fraction:
    """Reference: the inner product summed in Fractions over the Gram matrix."""
    total = Fraction(0)
    for mi, row in zip(mu, _quadratic_form(rs)):
        if mi:
            total += mi * sum((g * n for g, n in zip(row, nu) if n), Fraction(0))
    return total


@settings(deadline=None)
@given(st.sampled_from(_SUPPORTED), st.data())
def test_integer_form_matches_fraction_form(name, data):
    rs = _cached_root_system(name)
    r = rs.rank
    labels = st.lists(st.integers(-6, 6), min_size=r, max_size=r).map(tuple)
    mu, nu = data.draw(labels), data.draw(labels)
    assert rs.inner(mu, nu) == _fraction_inner(rs, mu, nu)
    units = [tuple(int(k == j) for k in range(r)) for j in range(r)]
    for i, row in enumerate(_quadratic_form(rs)):
        for j, entry in enumerate(row):
            assert rs.inner_float(units[i], units[j]).hex() == float(entry).hex()
    root = data.draw(st.sampled_from(rs.positive_roots))
    wc = root.weight_coords
    expected = 2 * _fraction_inner(rs, mu, wc) / _fraction_inner(rs, wc, wc)
    assert expected.denominator == 1
    assert _pairing(rs, mu, root) == expected
    lam = data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r).map(tuple))
    lam_rho = tuple(x + 1 for x in lam)
    dim = Fraction(1)
    for beta in rs.positive_roots:
        wc = beta.weight_coords
        dim *= _fraction_inner(rs, lam_rho, wc) / _fraction_inner(rs, rs.weyl_vector, wc)
    assert weyl_dimension(rs, lam) == dim


def test_root_lengths_normalized(b2, g2):
    # long roots squared length 2 in every algebra
    for rs in (b2, g2):
        lengths = {rs.inner(r.weight_coords, r.weight_coords) for r in rs.positive_roots}
        assert max(lengths) == 2
    assert {rs.inner(r.weight_coords, r.weight_coords) for r in g2.positive_roots} == {
        2, Fraction(2, 3),
    }


def test_root_lookup_and_membership(a2):
    alpha12 = a2.root((1, 1))
    assert alpha12.weight_coords == (1, 1)
    assert alpha12.height == 2
    # coroot labels exist for positive roots only: a negative root and a
    # non-root raise
    with pytest.raises(ValueError, match=r"\(-1, -1\) is not a positive root of A2"):
        a2.coroot_labels(Root(weight_coords=(-1, -1), root_coords=(-1, -1)))
    with pytest.raises(ValueError, match=r"\(2, 2\) is not a positive root of A2"):
        a2.coroot_labels(Root(weight_coords=(2, 2), root_coords=(2, 2)))
    with pytest.raises(ValueError):
        a2.root((2, 0))


def test_root_coords_of_weight(a2, b2):
    assert a2.root_coords_of_weight((0, 0)) == (0, 0)
    assert a2.root_coords_of_weight((2, -1)) == (1, 0)
    # (1,0) is not in the A2 root lattice
    assert a2.root_coords_of_weight((1, 0)) is None
    # B2 root lattice has index 2: Lambda2 is not in it, Lambda1 is
    assert b2.root_coords_of_weight((0, 1)) is None
    assert b2.root_coords_of_weight((1, 0)) == (1, 1)


@pytest.mark.parametrize("name", _SUPPORTED)
def test_coroot_labels(name):
    rs = build_root_system(name)
    units = [tuple(int(k == j) for k in range(rs.rank)) for j in range(rs.rank)]
    for root, unit in zip(rs.simple_roots, units):
        assert rs.coroot_labels(root) == unit
    # independent route: 2 (Lambda_j, beta) / (beta, beta) from the quadratic form
    for root in rs.positive_roots:
        wc = root.weight_coords
        norm = rs.inner(wc, wc)
        assert rs.coroot_labels(root) == tuple(2 * rs.inner(lam, wc) / norm for lam in units)
    top = rs.positive_roots[-1]
    shifted = tuple(x + 1 for x in top.weight_coords)
    with pytest.raises(ValueError):
        rs.coroot_labels(Root(weight_coords=shifted, root_coords=top.root_coords))
    negative = tuple(-c for c in top.root_coords)
    with pytest.raises(ValueError):
        rs.coroot_labels(Root(weight_coords=top.weight_coords, root_coords=negative))


@pytest.mark.parametrize("name", _SUPPORTED)
def test_highest_coroot_bounds_every_coroot(name):
    # the dominant walk's lower bound pairs lam with it alone
    rs = build_root_system(name)
    top = rs.highest_coroot
    assert top in rs.coroots.values()
    assert all(all(map(int.__le__, cv, top)) for cv in rs.coroots.values())


def test_build_root_system_keeps_only_names_that_parse():
    a2 = build_root_system("A2")
    assert build_root_system("a2") is build_root_system(" A2 ") is a2
    assert build_root_system(AlgebraId("A", 2)) is a2
    for bad in ("E6", "A9", "x"):
        for _ in range(2):
            with pytest.raises(ValueError, match=_PARSE_ERRORS.get(bad, "cannot parse")):
                build_root_system(bad)
    with pytest.raises(ValueError, match="cannot parse algebra name 2"):
        build_root_system(2)


def test_check_weight(a2):
    assert check_weight(a2, [1, -2]) == (1, -2)
    assert check_weight(a2, (0, 3), dominant=True) == (0, 3)
    with pytest.raises(ValueError, match=r"has length 1, expected 2"):
        check_weight(a2, (1,))
    with pytest.raises(ValueError, match=r"is not dominant"):
        check_weight(a2, (1, -2), dominant=True)
    for bad in ((0.5, 0), (1.0, 0), (True, 0)):
        for dominant in (False, True):
            with pytest.raises(ValueError, match=r"not an int"):
                check_weight(a2, bad, dominant=dominant)


def test_gamma_sequences(a1, a2, b2, g2, a3):
    assert [r.root_coords for r in polysum._formula(a1)[1]] == [(1,)]
    assert [r.root_coords for r in polysum._formula(a2)[1]] == [(1, 0), (1, 1), (0, 1)]
    assert [r.root_coords for r in polysum._formula(b2)[1]] == [
        (1, 0), (1, 1), (1, 2), (0, 1),
    ]
    assert [r.root_coords for r in polysum._formula(g2)[1]] == [
        (1, 0), (1, 1), (2, 3), (1, 2), (1, 3), (0, 1),
    ]
    assert [r.root_coords for r in polysum._formula(a3)[1]] == [
        (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 0, 1),
    ]


def test_gamma_sequence_undefined_elsewhere():
    with pytest.raises(ValueError):
        polysum._formula(build_root_system("B3"))[1]


def test_inner_products_check_their_lengths(a2):
    for mu, nu in (((1,), (1, 0)), ((1, 0), (1,)), ((1, 0, 0), (1, 0)), ((1, 0), (1, 0, 0))):
        with pytest.raises(ValueError, match="weight length mismatch"):
            a2.inner_scaled(mu, nu)
        with pytest.raises(ValueError, match="weight length mismatch"):
            a2.inner_float(mu, nu)
    for nu in ((1.0,), (1.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="weight length mismatch"):
            a2.form_float(nu)


def _inner_float_mismatches(rs) -> list:
    """The calls of ``rs.inner_float`` whose bits differ from a fresh
    ``dot_float(mu, form_float(nu))``: every positive root paired with
    points given as float tuples, lists and int tuples, revisited between
    other points, so a covector kept from the wrong point shows."""
    points = [(0.3, 0.8), [0.3, 0.8], (1, 2), (0.55, 0.21), [1, 2], (0.3, 0.8), (1, 2), (1.0, 2.0)]
    return [
        (mu, nu)
        for nu in points
        for mu in [root.weight_coords for root in rs.positive_roots]
        if rs.inner_float(mu, nu).hex() != dot_float(mu, rs.form_float(nu)).hex()
    ]


def test_inner_float_reads_each_points_covector(a2):
    assert _inner_float_mismatches(a2) == []
    # a point kept for the covector does not excuse a wrong length
    a2.inner_float((1, 0), (0.3, 0.8))
    for mu, nu in (((1, 0), (0.3,)), ((1, 0), (0.3, 0.8, 0.1)), ((1,), (0.3, 0.8))):
        with pytest.raises(ValueError, match="weight length mismatch"):
            a2.inner_float(mu, nu)


def test_inner_float_check_catches_a_memo_that_ignores_the_point(monkeypatch, a2):
    kept = {}
    monkeypatch.setattr(rootsys, "covector_at", lambda rs, nu: kept.setdefault(rs, rs.form_float(nu)))
    assert _inner_float_mismatches(a2) != []


def test_weyl_vector(a3):
    assert a3.weyl_vector == (1, 1, 1)
