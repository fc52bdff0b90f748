"""Polytope lattice sums: enumerator vs operator formulas, numeric
cross-checks, Freudenthal, and the character-to-polytope expansion.

The G2 operator formula carries a (1 + e^{gamma_2}) factor on its long-root
term (docs/g2.md); besides the enumerator comparisons it is checked for Weyl
invariance without the oracle, and at weights outside the acceptance grid.

The oracle enumerates Weyl orbits of the dominant weights below lam; the
bounding-box scan below is kept as the reference that certifies it.
"""

import contextlib
import math
import random
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, chain, product
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychar import (
    DEFAULT_SEED,
    CrossCheckError,
    FormalSum,
    GenericityError,
    PolytopeSizeError,
    RootSystem,
    apply_d_root,
    apply_r_root,
    apply_r_simple,
    brion_eval,
    build_root_system,
    character_demazure,
    character_freudenthal,
    dominant_representative,
    dominant_weight_multiplicities,
    dominant_weights_below,
    evaluate,
    numeric_formula_check,
    orbit,
    orbit_size,
    polysum,
    polytope_expansion,
    polytope_member,
    polytope_sum_demazure,
    polytope_sum_oracle,
    sample_generic_sigmas,
    verify_polytope_formula,
    weyl_character_eval,
    weyl_dimension,
    weyl_group,
)
from polychar import formal
from polychar.formal import _Codec, _codec_for, check_sample
from polychar.polysum import inversion_sequence
from polychar.rootsys import check_weight

# (algebra, max label) grids on which the oracle must equal the box scan
_REFERENCE_GRIDS = (
    ("A1", 12), ("A2", 6), ("B2", 6), ("G2", 6), ("A3", 3), ("B3", 2), ("C3", 2),
    ("A4", 1), ("D4", 1),
)


def _box_scan_oracle(rs, lam) -> FormalSum:
    """Reference enumerator: every point of the vertex orbit's per-label
    bounding box, kept iff `polytope_member` accepts it."""
    verts = orbit(rs, lam)
    r = rs.rank
    lows = [min(v[i] for v in verts) for i in range(r)]
    highs = [max(v[i] for v in verts) for i in range(r)]
    terms = {}
    for cand in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        if polytope_member(rs, lam, cand):
            terms[cand] = 1
    return FormalSum(r, terms)


def _box_scan_dominant_below(rs, lam) -> list:
    """Reference for `dominant_weights_below`: scan the dominant part of the
    bounding box, keep the weights under lam, sort by (depth, weight)."""
    verts = orbit(rs, lam)
    highs = [max(v[i] for v in verts) for i in range(rs.rank)]
    found = []
    for cand in product(*(range(0, h + 1) for h in highs)):
        gap = rs.root_coords_of_weight(tuple(l - c for l, c in zip(lam, cand)))
        if gap is not None and all(g >= 0 for g in gap):
            found.append((sum(gap), cand))
    found.sort()
    return [cand for _, cand in found]


@pytest.mark.parametrize("name,max_label", _REFERENCE_GRIDS)
def test_oracle_matches_box_scan(name, max_label):
    rs = build_root_system(name)
    for lam in product(range(max_label + 1), repeat=rs.rank):
        assert polytope_sum_oracle(rs, lam).sum == _box_scan_oracle(rs, lam), lam


@pytest.mark.parametrize("name,lam", [
    # one byte per field up to A1 125 and G2 (41, 0), two past them
    ("A1", (125,)), ("A1", (126,)), ("A1", (127,)), ("A1", (128,)),
    ("G2", (41, 0)), ("G2", (42, 0)),
])
def test_oracle_matches_box_scan_at_codec_edges(name, lam):
    rs = build_root_system(name)
    oracle = polytope_sum_oracle(rs, lam).sum
    assert oracle._codec is _codec_for(rs, (lam,))
    assert oracle == _box_scan_oracle(rs, lam)


def test_oracle_at_the_c3_codec_edge():
    # C3's one-byte fields hold |lam|_1 <= 62: (0, 31, 31) and (62, 0, 0)
    # reach labels of 124 in their orbits.  (0, 31, 31)'s box holds 7.75
    # million candidates and (0, 31, 32) is past the point cap, so the
    # reference at (62, 0, 0) is the dominant part of the box, scanned,
    # under closure orbits
    from test_weyl import _closure_orbit

    c3 = build_root_system("C3")
    assert _codec_for(c3, ((0, 31, 31),)).nbytes == _codec_for(c3, ((62, 0, 0),)).nbytes == 1
    with pytest.raises(PolytopeSizeError, match=r"has at least 1000006 points"):
        polytope_sum_oracle(c3, (0, 31, 32))
    lam = (62, 0, 0)
    terms = {}
    for mu in _box_scan_dominant_below(c3, lam):
        terms.update(dict.fromkeys(_closure_orbit(c3, mu), 1))
    assert polytope_sum_oracle(c3, lam).sum == FormalSum(3, terms)


def _unreachable(codec, keys):
    raise AssertionError("a sum was unpacked")


@pytest.mark.parametrize("name,max_label",
                         [("A1", 6), ("A2", 4), ("B2", 4), ("G2", 7), ("A3", 2)])
def test_formula_and_oracle_compare_packed(name, max_label, monkeypatch):
    # both sums are packed by e^lam's codec, so equality compares their int
    # dicts and the verdict unpacks neither
    rs = build_root_system(name)
    for lam in product(range(max_label + 1), repeat=rs.rank):
        with monkeypatch.context() as patch:
            patch.setattr(_Codec, "unpack_all", _unreachable)
            formula, oracle, diff = polysum.formula_against_oracle(rs, lam)
            assert formula._codec is oracle._codec is _codec_for(rs, (lam,))
            assert diff.is_zero()
        assert formula.to_json_text() == oracle.to_json_text()


@pytest.mark.parametrize("lam,nbytes", [((40, 1), 1), ((41, 0), 1), ((42, 0), 2)])
def test_g2_bracket_stays_on_lams_codec_at_the_one_byte_edge(g2, lam, nbytes, monkeypatch):
    # the (1 + e^{gamma_2}) factor translates packed ints to polytope points
    # (docs/g2.md), so the formula ends on e^lam's codec, the oracle's
    codec = _codec_for(g2, (lam,))
    assert codec.nbytes == nbytes
    monkeypatch.setattr(_Codec, "unpack_all", _unreachable)
    formula, oracle, diff = polysum.formula_against_oracle(g2, lam)
    assert formula._codec is oracle._codec is codec
    assert diff.is_zero()


def test_each_codec_width_keeps_its_own_root_table(a1, g2):
    # A1 126 and G2 (42, 0) are the first weights on two-byte fields, so one
    # process reads the one- and two-byte root tables of both algebras; a
    # second pass after clearing the codecs runs in reverse order, so it
    # builds each width's table first where the first pass built it last
    from polychar import formal

    cases = [(a1, (k,)) for k in range(120, 136)] + [(g2, (k, 0)) for k in (40, 41, 42)]
    assert {_codec_for(a1, (lam,)).nbytes for _rs, lam in cases[:16]} == {1, 2}
    assert [_codec_for(g2, (lam,)).nbytes for _rs, lam in cases[16:]] == [1, 1, 2]

    def texts(order):
        out = {}
        for rs, lam in order:
            formula = polytope_sum_demazure(rs, lam)
            oracle = polytope_sum_oracle(rs, lam).sum
            assert formula == oracle, (rs.name, lam)
            # the reference on A1, where the box scan is cheap
            assert rs.rank == 2 or oracle == _box_scan_oracle(rs, lam), lam
            out[rs.name, lam] = (character_demazure(rs, lam).to_json_text(),
                                 oracle.to_json_text(), formula.to_json_text())
        return out

    warm = texts(cases)
    formal._codec.cache_clear()
    assert texts(cases[::-1]) == warm


@pytest.mark.parametrize("name,lam", [
    ("A1", (125,)), ("A1", (126,)), ("A1", (127,)),
    ("G2", (40, 0)), ("G2", (41, 0)), ("G2", (42, 0)),
])
def test_one_lam_keeps_one_codec_when_the_codec_cache_is_cleared(name, lam, monkeypatch):
    # the walk, the oracle, the formula, Freudenthal and char of one lam all
    # take lam's codec from formal's one codec cache: after a warm run,
    # clearing that cache alone must not leave any of them on the old codec,
    # or their equal sums would compare on tuples
    from polychar import formal

    rs = build_root_system(name)
    routes = (lambda: polytope_sum_oracle(rs, lam).sum, lambda: polytope_sum_demazure(rs, lam),
              lambda: character_freudenthal(rs, lam), lambda: character_demazure(rs, lam))
    old = [route()._codec for route in routes]
    assert all(codec is old[0] for codec in old)
    formal._codec.cache_clear()
    walked = []

    def spy(algebra, weights):
        walked.append(_codec_for(algebra, weights))
        return walked[-1]

    monkeypatch.setattr(polysum, "_codec_for", spy)
    dominant_weights_below(rs, lam)
    monkeypatch.undo()
    [walk] = walked
    assert walk is not old[0]
    assert all(route()._codec is walk for route in routes)


@pytest.mark.parametrize("name,max_label", _REFERENCE_GRIDS)
def test_dominant_weights_below_matches_box_scan(name, max_label):
    rs = build_root_system(name)
    for lam in product(range(max_label + 1), repeat=rs.rank):
        assert dominant_weights_below(rs, lam) == _box_scan_dominant_below(rs, lam), lam


def test_membership(a2):
    lam = (1, 1)
    assert polytope_member(a2, lam, lam)
    assert polytope_member(a2, lam, (0, 0))
    assert polytope_member(a2, lam, (-1, -1))
    # wrong coset
    assert not polytope_member(a2, lam, (1, 0))
    # right coset, outside the hull
    assert not polytope_member(a2, lam, (2, 2))


def test_membership_requires_dominant(a2):
    with pytest.raises(ValueError):
        polytope_member(a2, (-1, 1), (0, 0))


def test_oracle_a1_string(a1):
    out = polytope_sum_oracle(a1, (4,))
    assert out.sum == FormalSum(1, {(4,): 1, (2,): 1, (0,): 1, (-2,): 1, (-4,): 1})


def test_oracle_a2_hexagon(a2):
    out = polytope_sum_oracle(a2, (1, 1))
    assert out.sum.coefficient_sum() == 7
    assert all(c == 1 for c in out.sum.terms.values())
    assert out.sum.terms.get((0, 0), 0) == 1
    # the six vertices, and the origin: the hexagon's lattice points
    assert set(out.sum.terms) == orbit(a2, (1, 1)) | {(0, 0)}


def test_oracle_rejects_non_integer_labels(a2):
    for lam in ((0.5, 0.5), (1.0, 0), (True, True)):
        with pytest.raises(ValueError, match="not an int"):
            polytope_sum_oracle(a2, lam)


def test_oracle_zero_weight(g2):
    assert polytope_sum_oracle(g2, (0, 0)).sum == FormalSum.exp((0, 0))


def test_oracle_point_cap_boundary(monkeypatch):
    # A4 (1, 0, 0, 1): the 20 roots and 0, allowed at a cap of 21
    a4 = build_root_system("A4")
    monkeypatch.setattr(polysum, "_POINT_CAP", 21)
    assert len(polytope_sum_oracle(a4, (1, 0, 0, 1)).sum) == 21
    monkeypatch.setattr(polysum, "_POINT_CAP", 20)
    message = r"^the polytope of \[1, 0, 0, 1\] has at least 21 points; cap is 20$"
    with pytest.raises(PolytopeSizeError, match=message):
        polytope_sum_oracle(a4, (1, 0, 0, 1))


def test_oracle_lower_bound_refuses_before_the_walk(monkeypatch):
    def unreachable(rs, lam):
        raise AssertionError("the walk was entered")

    monkeypatch.setattr(polysum, "_codec_for", unreachable)
    a1, a3 = build_root_system("A1"), build_root_system("A3")
    # the string bound: A1 (10) has the 11 points of its alpha-string
    monkeypatch.setattr(polysum, "_POINT_CAP", 10)
    message = r"^the polytope of \[10\] has at least 11 points; cap is 10$"
    with pytest.raises(PolytopeSizeError, match=message):
        polytope_sum_oracle(a1, (10,))
    monkeypatch.setattr(polysum, "_POINT_CAP", 11)
    with pytest.raises(AssertionError, match="the walk was entered"):
        polytope_sum_oracle(a1, (10,))
    # the orbit bound: A3 (1, 1, 1) has 24 vertices and strings of 4 points
    monkeypatch.setattr(polysum, "_POINT_CAP", 23)
    with pytest.raises(PolytopeSizeError, match=r"has at least 24 points; cap is 23$"):
        polytope_sum_oracle(a3, (1, 1, 1))
    monkeypatch.setattr(polysum, "_POINT_CAP", 24)
    with pytest.raises(AssertionError, match="the walk was entered"):
        polytope_sum_oracle(a3, (1, 1, 1))
    # at the real cap, A1 (10**9) is refused at once
    monkeypatch.setattr(polysum, "_POINT_CAP", 10**6)
    message = r"^the polytope of \[1000000000\] has at least 1000000001 points; cap is 1000000$"
    with pytest.raises(PolytopeSizeError, match=message):
        polytope_sum_oracle(a1, (10**9,))


@pytest.mark.parametrize("entry", [dominant_weight_multiplicities, polytope_expansion],
                         ids=["dominant_weight_multiplicities", "polytope_expansion"])
def test_freudenthal_lower_bound_refuses_before_the_walk(monkeypatch, entry):
    # Freudenthal runs the oracle's preflight inside the walk, before its
    # codec; expand runs none of its own, and on either route the walk's
    # refuses before any codec is built
    def unreachable(*args):
        raise AssertionError("the walk was entered")

    codec_for = polysum._codec_for
    monkeypatch.setattr(polysum, "_codec_for", unreachable)
    a1, a3 = build_root_system("A1"), build_root_system("A3")
    # the string bound: A1 (10) has the 11 weights of its alpha-string
    monkeypatch.setattr(polysum, "_POINT_CAP", 10)
    message = r"^the polytope of \[10\] has at least 11 points; cap is 10$"
    with pytest.raises(PolytopeSizeError, match=message):
        entry(a1, (10,))
    monkeypatch.setattr(polysum, "_POINT_CAP", 11)
    if entry is polytope_expansion:
        # A1 straightens, and its dimension, 11, passes the size gate unwalked
        walked = []
        walk = polysum._walk_below
        with monkeypatch.context() as spied:
            spied.setattr(polysum, "_codec_for", codec_for)
            spied.setattr(polysum, "_walk_below",
                          lambda rs, lam: walked.append(lam) or walk(rs, lam))
            assert entry(a1, (10,)) == {(10,): 1}
        assert walked == []
    else:
        with pytest.raises(AssertionError, match="the walk was entered"):
            entry(a1, (10,))
    # the orbit bound: A3 (1, 1, 1) has 24 vertices and strings of 4 points
    monkeypatch.setattr(polysum, "_POINT_CAP", 23)
    message = r"^the polytope of \[1, 1, 1\] has at least 24 points; cap is 23$"
    with pytest.raises(PolytopeSizeError, match=message):
        entry(a3, (1, 1, 1))
    monkeypatch.setattr(polysum, "_POINT_CAP", 24)
    with pytest.raises(AssertionError, match="the walk was entered"):
        entry(a3, (1, 1, 1))
    # at the real cap, B8 (1, ..., 1) is refused at once: |W(B8)| vertices
    monkeypatch.setattr(polysum, "_POINT_CAP", 10**6)
    message = (
        r"^the polytope of \[1, 1, 1, 1, 1, 1, 1, 1\] has at least 10321920 points; "
        r"cap is 1000000$"
    )
    with pytest.raises(PolytopeSizeError, match=message):
        entry(build_root_system("B8"), (1,) * 8)


@pytest.mark.parametrize("name,lam,cap,bounds", [
    ("A3", (4, 0, 4), 825, 0), ("A3", (4, 0, 4), 824, 1), ("D4", (1, 0, 1, 1), 10**6, 1),
], ids=["A3-within-the-dimension", "A3-straightens", "D4-peels"])
def test_expand_runs_the_lower_bound_at_most_once(monkeypatch, name, lam, cap, bounds):
    # the lower bound reads lam's zero pattern once, and a walk reads no
    # other weight's size while |W| times its weights stays within the cap.
    # A3 (4, 0, 4) straightens: its dimension, 825, passes a cap of 825
    # unwalked, and at 824 it is walked once, its 23 weights times |W| = 24
    # within the cap.  D4 (1, 0, 1, 1) peels, through Freudenthal's walk
    rs = build_root_system(name)
    expected = polytope_expansion(rs, lam)
    reads = []
    size = polysum._orbit_size
    monkeypatch.setattr(polysum, "_orbit_size",
                        lambda rs, support: reads.append(support) or size(rs, support))
    monkeypatch.setattr(polysum, "_POINT_CAP", cap)
    assert polytope_expansion(rs, lam) == expected
    assert reads.count(tuple(x > 0 for x in lam)) == bounds


@pytest.mark.parametrize("entry", [dominant_weights_below, dominant_weight_multiplicities])
def test_dominant_walk_refuses_by_the_exact_count(monkeypatch, entry):
    # A4 (1, 0, 0, 1) passes the lower bound (20 vertices) at a cap of 20;
    # its 21 points are counted during the walk, as the oracle counts them
    # (expand: tests/test_cli.py::test_expand_point_cap_boundary)
    a4 = build_root_system("A4")
    monkeypatch.setattr(polysum, "_POINT_CAP", 21)
    entry(a4, (1, 0, 0, 1))
    monkeypatch.setattr(polysum, "_POINT_CAP", 20)
    message = r"^the polytope of \[1, 0, 0, 1\] has at least 21 points; cap is 20$"
    with pytest.raises(PolytopeSizeError, match=message):
        entry(a4, (1, 0, 0, 1))


def _tuple_walk_orbits(rs, lam) -> list:
    """Reference for the walk's count: the dominant weights below lam in
    the breadth-first order of the walk on weight tuples, roots in
    `RootSystem.positive_roots` order, each with its orbit as a closure
    under the simple reflections.  The orbits' sizes, added in this order,
    are the counts the oracle checks against the cap."""
    from test_weyl import _closure_orbit

    steps = [root.weight_coords for root in rs.positive_roots]
    seen, walked = {lam}, [lam]
    for mu in walked:
        for alpha in steps:
            nu = tuple(m - a for m, a in zip(mu, alpha))
            if nu not in seen and min(nu) >= 0:
                seen.add(nu)
                walked.append(nu)
    return [_closure_orbit(rs, mu) for mu in walked]


@pytest.mark.parametrize("name,lam", [("G2", (6, 4)), ("A2", (6, 6)), ("B3", (2, 1, 2))])
def test_walk_counts_exactly_once_its_bound_passes_the_cap(monkeypatch, name, lam):
    # the first k weights hold at most |W| k points, so the walk counts
    # nothing while that bound is within the cap and exactly from the first
    # weight that takes it past.  Every cap up to |W| times the number of
    # weights, one past it, must give the reference's sum or refusal
    rs = build_root_system(name)
    group = len(weyl_group(rs))
    orbits = _tuple_walk_orbits(rs, lam)
    reference = FormalSum(rs.rank, dict.fromkeys(chain.from_iterable(orbits), 1))
    counts = list(accumulate(map(len, orbits)))
    lower = max(len(orbits[0]), 1 + max(sum(map(mul, lam, cv)) for cv in rs.coroots.values()))
    at_the_switch = []
    for cap in range(1, group * len(orbits) + 2):
        monkeypatch.setattr(polysum, "_POINT_CAP", cap)
        if counts[-1] <= cap:
            assert polytope_sum_oracle(rs, lam).sum == reference, cap
            continue
        # the lower bound, else the running count at the first weight past the cap
        k = next(k for k, points in enumerate(counts) if points > cap)
        points = lower if lower > cap else counts[k]
        if lower <= cap and k == cap // group:  # the first weight counted exactly
            at_the_switch.append(cap)
        message = f"the polytope of {list(lam)} has at least {points} points; cap is {cap}"
        with pytest.raises(PolytopeSizeError) as refused:
            polytope_sum_oracle(rs, lam)
        assert str(refused.value) == message
    assert at_the_switch


@pytest.mark.parametrize("lam", [(6, 4), (6, 0), (0, 4)])
def test_walk_reads_no_orbit_size_under_the_cap(monkeypatch, lam):
    # at the real cap, |W| times G2's walked weights stays far under it:
    # the oracle reads lam's pattern and |W|'s, both before the walk, and no
    # walked weight's, though the walk meets other zero patterns
    g2 = build_root_system("G2")
    assert {tuple(x > 0 for x in mu) for mu in dominant_weights_below(g2, lam)} == {
        (True, True), (True, False), (False, True), (False, False)}
    patterns = []
    size = polysum._orbit_size
    monkeypatch.setattr(polysum, "_orbit_size",
                        lambda rs, support: patterns.append(support) or size(rs, support))
    polytope_sum_oracle(g2, lam)
    assert patterns == [tuple(x > 0 for x in lam), (True, True)]


def _tuple_budget_refusal(rs, weights, what, cap):
    """Reference for the size gates at a cap, `_check_polytope_size` on one
    weight and `verify_polytope_formula`'s on its grid: the refusal text,
    or None.  The dimensions first; then, lam by lam, the walk's refusal of
    lam's own polytope (the lower bound, else the running count at the
    first weight past the cap, which the bound |W| k never passes) and the
    grid's total, each recounted on weight tuples, with closure orbits."""
    if sum(weyl_dimension(rs, lam) for lam in weights) <= cap:
        return None
    name = what if isinstance(what, str) else f"the polytope of {list(what)}"
    points = 0
    for lam in weights:
        orbits = _tuple_walk_orbits(rs, lam)
        counts = list(accumulate(map(len, orbits)))
        lower = max(len(orbits[0]), 1 + max(sum(map(mul, lam, cv)) for cv in rs.coroots.values()))
        own = lower if lower > cap else next((c for c in counts if c > cap), None)
        if own is not None:
            return f"the polytope of {list(lam)} has at least {own} points; cap is {cap}"
        points += counts[-1]
        if points > cap:
            return f"{name} has at least {points} points; cap is {cap}"
    return None


@pytest.mark.parametrize("name,weights,what", [
    ("A2", [(1, 1)], (1, 1)), ("G2", [(2, 1)], (2, 1)), ("B3", [(1, 0, 1)], (1, 0, 1)),
    ("A2", list(product(range(3), repeat=2)), "the sweep of A2 up to 2"),
    ("G2", list(product(range(3), repeat=2)), "the sweep of G2 up to 2"),
], ids=["A2-1-1", "G2-2-1", "B3-1-0-1", "A2-grid-2", "G2-grid-2"])
def test_budget_counts_the_walk_exactly_at_every_cap(monkeypatch, name, weights, what):
    # every cap from 1 to one past the weights' point total: the size
    # gate's exact phase (the dimensions add up past the total, so they
    # pass no cap below it) must refuse, or pass, as the tuple recount
    # does.  One weight goes through `_check_polytope_size`, a grid through
    # `verify` at max label 2.  A2's and G2's two one-zero patterns have
    # equal orbit sizes, B3's do not
    rs = build_root_system(name)
    total = sum(len(orbit) for lam in weights for orbit in _tuple_walk_orbits(rs, lam))
    assert sum(weyl_dimension(rs, lam) for lam in weights) > total
    if isinstance(what, str):
        gate = partial(verify_polytope_formula, rs, 2)
    else:
        gate = partial(polysum._check_polytope_size, rs, what)
    refused = 0
    for cap in range(1, total + 2):
        monkeypatch.setattr(polysum, "_POINT_CAP", cap)
        expected = _tuple_budget_refusal(rs, weights, what, cap)
        if expected is None:
            gate()
            continue
        refused += 1
        with pytest.raises(PolytopeSizeError) as refusal:
            gate()
        assert str(refusal.value) == expected, cap
    assert refused == total - 1  # every cap below the total


@pytest.mark.parametrize("name,lam", [("A2", (1, 1)), ("G2", (2, 1)), ("B3", (1, 0, 1))])
def test_one_weight_budget_reads_only_its_walks_sizes(monkeypatch, name, lam):
    # one lam's walk refuses its own polytope past the cap, so at every cap
    # its budget reads the orbit sizes the walk reads, and no more
    rs = build_root_system(name)
    total = sum(len(orbit) for orbit in _tuple_walk_orbits(rs, lam))
    assert weyl_dimension(rs, lam) > total
    reads = []
    size = polysum._packed_orbit_size
    monkeypatch.setattr(polysum, "_packed_orbit_size",
                        lambda rs, codec, p: reads.append(p) or size(rs, codec, p))

    def reads_of(call):
        reads.clear()
        with contextlib.suppress(PolytopeSizeError):
            call()
        return list(reads)

    for cap in range(1, total + 1):
        monkeypatch.setattr(polysum, "_POINT_CAP", cap)
        walk = reads_of(lambda: polysum._walk_below(rs, lam))
        assert reads_of(lambda: polysum._check_polytope_size(rs, lam)) == walk, cap


@pytest.mark.parametrize("n,nbytes", [(125, 1), (126, 2), (32765, 2), (32766, 4)])
def test_walk_decodes_across_codec_widths(n, nbytes):
    # A1 (n)'s dominant weights are n, n - 2, ..., down to 0 or 1, and its
    # polytope holds the n + 1 points of the string from n to -n: on each
    # side of the 1- to 2-byte and the 2- to 4-byte steps of the codec
    a1 = build_root_system("A1")
    assert _codec_for(a1, ((n,),)).nbytes == nbytes
    assert dominant_weights_below(a1, (n,)) == [(m,) for m in range(n, -1, -2)]
    assert len(polytope_sum_oracle(a1, (n,)).sum) == n + 1


def test_oracle_refuses_before_building_an_orbit(monkeypatch):
    def unreachable(codec, p):
        raise AssertionError("an orbit was built")

    # A3 (40, 40, 40) has 1,048,241 points
    monkeypatch.setattr(_Codec, "orbit", unreachable)
    with pytest.raises(PolytopeSizeError, match=r"points; cap is 1000000$"):
        polytope_sum_oracle(build_root_system("A3"), (40, 40, 40))


def test_rank2_formula_a2_b2_full_grid(a2, b2):
    for rs in (a2, b2):
        for a in range(5):
            for b in range(5):
                assert polytope_sum_demazure(rs, (a, b)) == polytope_sum_oracle(rs, (a, b)).sum


def test_rank2_formula_g2_splits_by_first_label(g2):
    # the long-root term d(gamma_3) r(gamma_2) r(gamma_1) e^lam walks an edge
    # of length a: it is empty when a = 0, and for a >= 1 its (1 + e^{gamma_2})
    # factor fills the alpha_2-lines that the edge's double step skips
    gammas = polysum._formula(g2)[1]

    def long_root_term(lam):
        staged = apply_r_root(g2, gammas[1], apply_r_root(g2, gammas[0], FormalSum.exp(lam)))
        return apply_d_root(g2, gammas[2], staged)

    for b in range(5):
        assert long_root_term((0, b)).is_zero()
        assert polytope_sum_demazure(g2, (0, b)) == polytope_sum_oracle(g2, (0, b)).sum
    for a in range(1, 5):
        for b in range(5):
            assert not long_root_term((a, b)).is_zero()
            assert polytope_sum_demazure(g2, (a, b)) == polytope_sum_oracle(g2, (a, b)).sum
    # the points the sweep without the factor used to miss are now present
    formula = polytope_sum_demazure(g2, (1, 0))
    for w in ((-1, 2), (0, 0), (1, -2)):
        assert formula.terms.get(w, 0) == 1
    formula = polytope_sum_demazure(g2, (1, 1))
    for w in ((-2, 4), (-1, 2), (0, 0), (1, -2), (2, -4)):
        assert formula.terms.get(w, 0) == 1


def test_rank2_formula_g2_weyl_invariant(g2):
    # oracle-free: a polytope sum is fixed by both simple reflections, and
    # this grid reaches past the [0..4]^2 acceptance grid
    for a in range(9):
        for b in range(9):
            formula = polytope_sum_demazure(g2, (a, b))
            for i in (1, 2):
                assert apply_r_simple(g2, i, formula) == formula, ((a, b), i)


def test_rank2_formula_g2_beyond_acceptance_grid(g2):
    for lam in ((8, 8), (7, 2), (3, 8), (5, 0)):
        assert polytope_sum_demazure(g2, lam) == polytope_sum_oracle(g2, lam).sum


def test_a3_formula_spot_checks(a3):
    for lam in ((1, 1, 1), (1, 2, 3), (2, 0, 2), (0, 3, 1)):
        assert polytope_sum_demazure(a3, lam) == polytope_sum_oracle(a3, lam).sum


def test_formula_wrong_algebra():
    with pytest.raises(ValueError):
        polytope_sum_demazure(build_root_system("B3"), (1, 0, 0))


def test_gamma_sequence_is_kept_per_algebra(monkeypatch):
    # `_formula` builds an algebra's record once; its gamma order is read from it
    polysum._formula.cache_clear()
    calls = []

    def counted(rs, word):
        calls.append(rs.name)
        return inversion_sequence(rs, word)

    monkeypatch.setattr(polysum, "inversion_sequence", counted)
    g2 = build_root_system("G2")
    record = polysum._formula(g2)
    assert polysum._formula(build_root_system("G2")) is record
    assert polysum._formula(g2)[1] is record[1]
    assert [root.root_coords for root in record[1]] == [
        (1, 0), (1, 1), (2, 3), (1, 2), (1, 3), (0, 1)
    ]
    assert calls == ["G2"]
    # a raise is not kept: an algebra without a formula raises every time
    for _ in range(2):
        for lookup in (polysum._formula, lambda rs: polysum._formula(rs)[1]):
            with pytest.raises(ValueError, match="no operator polytope-sum formula for B3"):
                lookup(build_root_system("B3"))
    assert calls == ["G2"]


@pytest.mark.parametrize(
    "name, report, lengths",
    [
        ("A1", "demazure_a1", (1,)),
        ("A2", "demazure_rank2", (2, 1)),
        ("B2", "demazure_rank2", (3, 1)),
        ("G2", "demazure_rank2", (5, 1)),
        ("A3", "demazure_a3", (3, 2, 1)),
    ],
)
def test_formula_brackets_cut_the_gamma_order(name, report, lengths):
    # concatenated, the brackets' roots are the gamma order; only G2 carries
    # a translate: gamma_2 on its gamma_3 term
    rs = build_root_system(name)
    record_name, gammas, brackets = polysum._formula(rs)
    assert record_name == report
    assert tuple(map(len, brackets)) == lengths
    terms = list(chain.from_iterable(brackets))
    assert tuple(root for root, _translate in terms) == polysum._formula(rs)[1]
    translates = [(k, t) for k, (_root, t) in enumerate(terms) if t is not None]
    assert translates == ([(2, gammas[1])] if name == "G2" else [])


def test_edge_bracket_drops_cancelled_terms(a1, a2):
    # on A1, d e^{-1} = D e^{-1} - e^{-1} = -e^{-1}, so the bracket
    # [d + 1] sends e^{-1} to 0 and must keep no zero term
    [bracket] = polysum._formula(a1)[2]
    out = polysum._edge_bracket(a1, bracket, FormalSum.exp((-1,)))
    assert out.is_zero() and out.to_json_obj() == []
    # on A2 the first bracket cancels two of a signed input's terms
    gammas = polysum._formula(a2)[1]
    s = FormalSum(2, {(-1, 0): 1, (1, 1): 1, (0, -1): -1})
    out = polysum._edge_bracket(a2, polysum._formula(a2)[2][0], s)
    assert 0 not in out.terms.values()
    assert all(entry["c"] for entry in out.to_json_obj())
    staged = polysum.apply_r_root(a2, gammas[0], s)
    expected = s + apply_d_root(a2, gammas[0], s) + apply_d_root(a2, gammas[1], staged)
    assert out == expected


def _d_form_bracket(rs, bracket, s):
    """The edge bracket as its factors read, one d = D - 1 term per root:
    the d terms add up in one dict of packed ints, then join the input, and
    a translate adds each d term again, moved by the translate's step.  The
    reference for `polysum._edge_bracket`'s telescoped D form."""
    start = staged = FormalSum._of(rs.rank, *s._packed_for(rs))
    codec = start._codec
    acc = {}

    def accumulate(terms, shift):
        for p, c in terms.items():
            c += acc.get(p + shift, 0)
            if c:
                acc[p + shift] = c
            else:
                del acc[p + shift]

    for k, (root, translate) in enumerate(bracket, 1):
        terms = apply_d_root(rs, root, staged)._terms
        accumulate(terms, 0)
        if translate is not None:
            accumulate(terms, codec.roots[translate.root_coords][0])
        if k < len(bracket):
            staged = apply_r_root(rs, root, staged)
    return FormalSum._of(rs.rank, acc, codec) + start


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_edge_bracket_equals_its_d_form(name, data):
    # every bracket of every formula row, G2's translated one included, on
    # packed sums with mixed signs, and on what the previous bracket made
    rs = build_root_system(name)
    weights = st.tuples(*[st.integers(-4, 4)] * rs.rank)
    terms = data.draw(st.dictionaries(weights, st.integers(-3, 3).filter(bool), max_size=12))
    s = FormalSum._of(rs.rank, *FormalSum(rs.rank, terms)._packed_for(rs))
    staged = s
    for bracket in polysum._formula(rs)[2]:
        for x in (s, staged):
            out = polysum._edge_bracket(rs, bracket, x)
            assert out == _d_form_bracket(rs, bracket, x)
            assert out._codec is x._codec
            assert 0 not in out.terms.values()
        staged = out


@pytest.mark.parametrize(
    "name, word",
    [
        ("A4", (1, 2, 3, 4, 1, 2, 3, 1, 2, 1)),
        ("B3", (1, 2, 3, 2, 1, 2, 3, 2, 3)),
        ("C3", (1, 2, 3, 2, 1, 2, 3, 2, 3)),
        ("B4", (1, 2, 3, 4, 3, 2, 1, 2, 3, 4, 3, 2, 3, 4, 3, 4)),
    ],
)
def test_inversion_sequence_beyond_formula_table(name, word):
    # reduced words of w0 on algebras without a formula row
    rs = build_root_system(name)
    roots = inversion_sequence(rs, word)
    assert len(roots) == len(rs.positive_roots)
    assert set(roots) == set(rs.positive_roots)


def test_inversion_sequence_rejects_other_words(a2):
    with pytest.raises(ValueError, match="not a positive root"):
        inversion_sequence(a2, (1, 1, 2))  # s1 alpha_1 = -alpha_1
    with pytest.raises(AssertionError, match="not a reduced word of w0"):
        inversion_sequence(a2, (1, 2))


def test_dispatcher_a1(a1):
    assert polytope_sum_demazure(a1, (3,)) == polytope_sum_oracle(a1, (3,)).sum


def test_brion_trivial_weight(a2):
    for sigma in sample_generic_sigmas(a2, 3):
        assert brion_eval(a2, (0, 0), [sigma]) == [pytest.approx(1.0, abs=1e-12)]


def test_brion_a1_closed_form(a1):
    n = 3
    for sigma in sample_generic_sigmas(a1, 5):
        x = a1.inner_float((2,), sigma)  # pairing of alpha_1 with sigma
        lam = a1.inner_float((n,), sigma)
        expected = math.exp(lam) / (1 - math.exp(-x)) + math.exp(-lam) / (
            1 - math.exp(x)
        )
        assert brion_eval(a1, (n,), [sigma]) == [pytest.approx(expected, rel=1e-12)]


def test_brion_matches_oracle_numerically(a2):
    s = polytope_sum_oracle(a2, (2, 1)).sum
    for sigma in sample_generic_sigmas(a2, 10):
        assert brion_eval(a2, (2, 1), [sigma]) == pytest.approx(
            evaluate(a2, s, [sigma]), rel=1e-9
        )


_EVALUATORS = pytest.mark.parametrize(
    "evaluator", [brion_eval, weyl_character_eval], ids=lambda f: f.__name__
)


@_EVALUATORS
def test_brion_pole_detection(a2, evaluator):
    # sigma is orthogonal to the non-simple root alpha1 + alpha2, which is the
    # image of a simple root under a Weyl element; no simple root pairs to zero
    with pytest.raises(GenericityError, match="pole hyperplane"):
        evaluator(a2, (1, 1), [(0.5, -0.5)])


@_EVALUATORS
def test_evaluator_rejects_wrong_length_sigma(a2, evaluator):
    with pytest.raises(ValueError, match="wrong length for A2"):
        evaluator(a2, (1, 1), [(0.5, 0.25, 0.125)])


def test_weyl_character_eval(a1, a2):
    for sigma in sample_generic_sigmas(a1, 5):
        t = a1.inner_float((1,), sigma)
        assert weyl_character_eval(a1, (1,), [sigma]) == [pytest.approx(
            2 * math.cosh(t), rel=1e-12
        )]
    ch = character_demazure(a2, (1, 1))
    for sigma in sample_generic_sigmas(a2, 10):
        assert weyl_character_eval(a2, (1, 1), [sigma]) == pytest.approx(
            evaluate(a2, ch, [sigma]), rel=1e-9
        )
        assert weyl_character_eval(a2, (0, 0), [sigma]) == [pytest.approx(1.0)]


# Reference numeric evaluators with no per-point table: every pairing runs
# the float Gram loop, and every denominator factor is recomputed for each
# (element, root) pair.  The library must match them bit for bit.
@cache
def _ref_gram(rs):
    return tuple(tuple(float(Fraction(x, rs.form_scale)) for x in row) for row in rs.gram_scaled)


def _ref_inner_float(rs, mu, nu):
    gram = _ref_gram(rs)
    total = 0.0
    for i in range(rs.rank):
        if mu[i]:
            acc = 0.0
            for j in range(rs.rank):
                acc += gram[i][j] * nu[j]
            total += mu[i] * acc
    return total


def _ref_apply(el, weight):
    return tuple(sum(row[j] * weight[j] for j in range(len(row))) for row in el.matrix)


def _ref_near_pole(rs, sig, margin):
    return any(
        abs(_ref_inner_float(rs, root.weight_coords, sig)) <= margin
        for root in rs.positive_roots
    )


def _ref_cone_sum(rs, elements, lam, sig, roots):
    total = 0.0
    for el in elements:
        term = math.exp(_ref_inner_float(rs, _ref_apply(el, lam), sig))
        for root in roots:
            term /= 1.0 - math.exp(-_ref_inner_float(rs, _ref_apply(el, root.weight_coords), sig))
        total += term
    return total


def _ref_finite(sig):
    if not all(math.isfinite(x) for x in sig):
        raise ValueError(f"sigma {sig} has a non-finite coordinate")


def _ref_prelude(rs, lam, sigma):
    lam = check_weight(rs, lam, dominant=True)
    (sig,) = check_sample(rs, [sigma])
    elements = weyl_group(rs)
    _ref_finite(sig)
    if _ref_near_pole(rs, sig, 1e-6):
        raise GenericityError("sigma is within 1e-06 of a pole hyperplane; resample")
    return lam, sig, elements


def _ref_brion(rs, lam, sigma):
    lam, sig, elements = _ref_prelude(rs, lam, sigma)
    return _ref_cone_sum(rs, elements, lam, sig, rs.simple_roots)


def _ref_weyl_character(rs, lam, sigma):
    lam, sig, elements = _ref_prelude(rs, lam, sigma)
    lam_rho = tuple(x + 1 for x in lam)
    num = 0.0
    for el in elements:
        shifted = tuple(x - 1 for x in _ref_apply(el, lam_rho))
        num += (-1) ** len(el.word) * math.exp(_ref_inner_float(rs, shifted, sig))
    den = 1.0
    for root in rs.positive_roots:
        den *= 1.0 - math.exp(-_ref_inner_float(rs, root.weight_coords, sig))
    alternating = num / den
    invariant = _ref_cone_sum(rs, elements, lam, sig, rs.positive_roots)
    scale = max(abs(alternating), abs(invariant), 1e-300)
    if not abs(alternating - invariant) / scale <= 1e-9:
        raise CrossCheckError(
            "the two character evaluations disagree beyond 1e-9; sigma is ill-conditioned"
        )
    return alternating


def _ref_evaluate(rs, s, sigma):
    (sig,) = check_sample(rs, [sigma])
    _ref_finite(sig)
    total = 0.0
    for w, c in s.items_sorted():
        total += c * math.exp(_ref_inner_float(rs, w, sig))
    if not math.isfinite(total):
        raise OverflowError("the sum's value is past the float range")
    return total


def _ref_sample(rs, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sig = tuple(rng.uniform(0.1, 1.1) for _ in range(rs.rank))
        if not _ref_near_pole(rs, sig, 1e-2):
            out.append(sig)
    return out


def _outcome(fn, *args):
    """Each value's bits, in order, or the exception's type and message."""
    try:
        return [x.hex() for x in fn(*args)]
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _on_sample(ref):
    """A reference evaluator run point by point over a sample.  The library
    runs each check over the whole sample before the next, so the two agree
    when the sample's bad points, if any, fail one check."""
    return lambda rs, arg, sample: [ref(rs, arg, sig) for sig in sample]


_NUMERIC_ALGEBRAS = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2")
_cached_root_system = cache(build_root_system)
_cached_character = cache(character_demazure)


@st.composite
def _evaluation_points(draw, rs):
    """A seeded uniform point of [-1.5, 1.5]^rank, or one moved to within
    1e-9..1e-3 of (or onto) a root hyperplane along a fundamental-weight
    coordinate."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    sig = [rng.uniform(-1.5, 1.5) for _ in range(rs.rank)]
    if draw(st.booleans()):
        beta = draw(st.sampled_from(rs.positive_roots)).weight_coords
        units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
        i = draw(st.integers(0, rs.rank - 1))
        slope = _ref_inner_float(rs, beta, units[i])
        if slope:
            gap = draw(st.just(0.0) | st.floats(-9, -3).map(lambda e: 10.0**e))
            gap *= draw(st.sampled_from([1.0, -1.0]))
            sig[i] -= (_ref_inner_float(rs, beta, sig) - gap) / slope
    return tuple(sig)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(_NUMERIC_ALGEBRAS), st.data())
def test_numeric_evaluators_bit_identical_to_reference(name, data):
    rs = _cached_root_system(name)
    labels = st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank).map(tuple)
    lam = data.draw(labels)
    sigma = data.draw(_evaluation_points(rs))
    for fn, ref in ((brion_eval, _ref_brion), (weyl_character_eval, _ref_weyl_character)):
        assert _outcome(fn, rs, lam, [sigma]) == _outcome(_on_sample(ref), rs, lam, [sigma])
    for s in (_cached_character(rs, lam), polytope_sum_oracle(rs, lam).sum):
        assert _outcome(evaluate, rs, s, [sigma]) == _outcome(
            _on_sample(_ref_evaluate), rs, s, [sigma]
        )
    seed = data.draw(st.integers(0, 2**32))
    assert sample_generic_sigmas(rs, 3, seed) == _ref_sample(rs, 3, seed)


def test_numeric_memos_give_fresh_outcomes_in_any_order():
    # the per-weight and per-sample tables, the covector and the vertex-cone
    # sums each keep their last entry, and the exponentials at a point are
    # shared by evaluate and both evaluators;
    # calls interleaved across algebras, weights, sums and samples, with a
    # pole between good points, zeros of either sign and an overflow part
    # way through a sum, must match a fresh computation point by point
    a1, a2, g2 = (build_root_system(name) for name in ("A1", "A2", "G2"))
    good, other, pole = (0.3, 0.8), (0.55, 0.21), (0.0, 0.7)  # <alpha_1, pole> = 0
    third = (0.9, 0.4)
    lattice = {(rs, lam): polytope_sum_oracle(rs, lam).sum
               for rs, lams in ((a1, [(2,), (3,), (2000,)]), (a2, [(1, 1), (2, 0)]), (g2, [(1, 1)]))
               for lam in lams}
    calls = [
        (brion_eval, a2, (1, 1), [good]),
        (evaluate, a2, lattice[a2, (1, 1)], [good]),
        (weyl_character_eval, a2, (1, 1), [good]),
        (evaluate, g2, lattice[g2, (1, 1)], [good]),  # same point, other algebra
        (evaluate, a2, lattice[a2, (1, 1)], [good]),
        (evaluate, a2, lattice[a2, (2, 0)], [good]),  # weights not in the table yet
        (weyl_character_eval, a2, (2, 0), [good]),
        (brion_eval, g2, (2, 0), [good]),  # same lam and point, other algebra
        (brion_eval, a2, (2, 0), [good]),
        (brion_eval, a2, (2, 0), [pole]),
        (brion_eval, a2, (2, 0), [pole]),  # raised again, not remembered
        (evaluate, a2, lattice[a2, (2, 0)], [pole]),  # no pole test here
        (weyl_character_eval, a2, (2, 0), [other]),
        (weyl_character_eval, g2, (1, 1), [(-0.0, 0.7)]),
        (weyl_character_eval, g2, (1, 1), [pole]),
        (brion_eval, g2, (1, 1), [other]),
        (brion_eval, g2, (1, 1), [[1, 2]]),  # ints, checked to (1.0, 2.0)
        (weyl_character_eval, g2, (1, 1), [(1.0, 2.0)]),
        (evaluate, a1, lattice[a1, (2000,)], [(1.0,)]),  # overflows part way
        (evaluate, a1, lattice[a1, (2,)], [(1.0,)]),  # all weights met before
        (evaluate, a1, lattice[a1, (3,)], [(1.0,)]),  # none met before
        # e^{<1420 omega, omega>} = e^710 is the first term past the float range
        (evaluate, a1, FormalSum.exp((1420,)), [(1.0,)]),
        (brion_eval, a1, (2,), [(1.0,)]),
        (evaluate, a1, lattice[a1, (2000,)], [(1.0,)]),  # overflows again
        (brion_eval, a2, (1, 1), [good]),
        (evaluate, a2, lattice[a2, (1, 1)], [good]),
        # the vertex-cone sums at one (lam, point) are built by whichever
        # evaluator comes first
        (weyl_character_eval, a2, (0, 2), [other]),
        (brion_eval, a2, (0, 2), [other]),
        # two weights at one point
        (brion_eval, a2, (1, 1), [other]),
        (weyl_character_eval, a2, (2, 0), [other]),
        (brion_eval, a2, (2, 0), [other]),
        (weyl_character_eval, a2, (1, 1), [other]),
        # one weight on two algebras at one point: terms and covector differ
        (brion_eval, g2, (1, 1), [good]),
        (brion_eval, a2, (1, 1), [good]),
        (weyl_character_eval, g2, (1, 1), [good]),
        (weyl_character_eval, a2, (1, 1), [good]),
        # a pole between two good points, at one weight
        (weyl_character_eval, a2, (0, 2), [good]),
        (weyl_character_eval, a2, (0, 2), [pole]),
        (brion_eval, a2, (0, 2), [other]),
        (brion_eval, a2, (0, 2), [pole]),
        (weyl_character_eval, a2, (0, 2), [good]),
        # samples: the tables hold a whole sample, keyed by all its points
        (brion_eval, a2, (1, 1), [good, other]),
        (evaluate, a2, lattice[a2, (1, 1)], [good, other]),
        # the first point shared with the previous sample, the second not
        (evaluate, a2, lattice[a2, (1, 1)], [good, third]),
        (brion_eval, a2, (1, 1), [good, third]),
        (weyl_character_eval, a2, (1, 1), [good, third]),
        # the same sample at another lam
        (weyl_character_eval, a2, (2, 0), [good, third]),
        (brion_eval, a2, (2, 0), [good, third]),
        (evaluate, a2, lattice[a2, (2, 0)], [good, third]),
        # the same points on another algebra
        (brion_eval, g2, (2, 0), [good, third]),
        (evaluate, g2, lattice[g2, (1, 1)], [good, third]),
        (weyl_character_eval, g2, (1, 1), [good, third]),
        # a pole as the last point: raised, not kept, raised again; the
        # good prefix then evaluates afresh
        (brion_eval, a2, (1, 1), [good, third, pole]),
        (weyl_character_eval, a2, (1, 1), [good, third, pole]),
        (brion_eval, a2, (1, 1), [good, third, pole]),
        (evaluate, a2, lattice[a2, (1, 1)], [good, third, pole]),  # no pole test here
        (weyl_character_eval, a2, (1, 1), [good, third]),
        (brion_eval, a2, (1, 1), [good, third]),
        # the points in another order, and one point twice
        (brion_eval, a2, (1, 1), [third, good]),
        (weyl_character_eval, a2, (1, 1), [third, third]),
    ]
    refs = {
        brion_eval: _ref_brion, weyl_character_eval: _ref_weyl_character,
        evaluate: _ref_evaluate,
    }
    outcomes = []
    for fn, rs, arg, sample in calls:
        outcome = _outcome(fn, rs, arg, sample)
        expected = _outcome(_on_sample(refs[fn]), rs, arg, sample)
        assert outcome == expected, (fn.__name__, rs.name, arg, sample)
        outcomes.append(outcome)
    genericity = (GenericityError, "sigma is within 1e-06 of a pole hyperplane; resample")
    assert [i for i, o in enumerate(outcomes) if o == genericity] == [
        9, 10, 13, 14, 37, 39, 52, 53, 54,
    ]
    assert [i for i, o in enumerate(outcomes) if o[0] is OverflowError] == [18, 21, 23]


def _ref_numeric_check(rs, lam, sigma_count, seed):
    lattice_sum = polytope_sum_oracle(rs, lam).sum
    character = _cached_character(rs, lam)
    brion_err = weyl_err = 0.0
    for sig in _ref_sample(rs, sigma_count, seed):
        ref = _ref_evaluate(rs, lattice_sum, sig)
        brion_err = max(brion_err, abs(_ref_brion(rs, lam, sig) - ref) / abs(ref))
        ref_ch = _ref_evaluate(rs, character, sig)
        weyl_err = max(weyl_err, abs(_ref_weyl_character(rs, lam, sig) - ref_ch) / abs(ref_ch))
    return {
        "algebra": rs.name, "lambda": list(lam), "sigma_count": sigma_count, "seed": seed,
        "brion_max_rel_err": brion_err, "weyl_max_rel_err": weyl_err, "tolerance": 1e-9,
        "pass": brion_err < 1e-9 and weyl_err < 1e-9,
    }


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_NUMERIC_ALGEBRAS), st.data())
def test_numeric_formula_check_bit_identical_to_reference_loop(name, data):
    # the whole check, whose points share every table, against the
    # reference evaluators point by point: the same report, its floats bit
    # for bit, or the same exception, whatever the chunk size: all points
    # in one chunk, one point per chunk (a budget of 1, or of the lattice
    # sum's size) and two per chunk, the last chunk short at odd counts
    rs = _cached_root_system(name)
    lam = data.draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank).map(tuple))
    count, seed = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 2**32))

    def outcome(check):
        try:
            report = check(rs, lam, count, seed)
        except Exception as exc:  # compared, not handled
            return type(exc), str(exc)
        return {k: v.hex() if isinstance(v, float) else v for k, v in report.items()}

    expected = outcome(_ref_numeric_check)
    size = len(polytope_sum_oracle(rs, lam).sum)
    for budget in (polysum._TABLE_BUDGET, 1, size, 2 * size):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polysum, "_TABLE_BUDGET", budget)
            assert outcome(numeric_formula_check) == expected, budget


def test_numeric_formula_check_tables_stay_within_the_budget(monkeypatch):
    # A1 (1000,) has 1001 lattice points, so 200 points go in chunks of
    # _TABLE_BUDGET // 1001 = 65: the exponential table the check leaves
    # holds its last chunk's, within the budget
    a1 = build_root_system("A1")
    exp_table, samples = formal.exp_table, []

    def spy(rs, points):
        samples.append(points)
        return exp_table(rs, points)

    monkeypatch.setattr(formal, "exp_table", spy)
    monkeypatch.setattr(polysum, "exp_table", spy)
    assert numeric_formula_check(a1, (1000,), 200)["pass"]
    assert [len(points) for points in dict.fromkeys(samples)] == [65, 65, 65, 5]
    hits = exp_table.cache_info().hits
    last = exp_table(a1, samples[-1])
    assert exp_table.cache_info().hits == hits + 1  # the entry the check left
    assert 0 < sum(len(exps) for _covector, exps in last) <= polysum._TABLE_BUDGET


@pytest.mark.parametrize("evaluator", [brion_eval, weyl_character_eval, evaluate])
def test_sample_checks_run_in_order(a2, evaluator):
    # lam (a sum's rank for evaluate), every point's length, the group cap,
    # every point's finiteness, then every pole test: each check runs over
    # the whole sample before the next, whatever the points' order
    arg = polytope_sum_oracle(a2, (1, 1)).sum if evaluator is evaluate else (1, 1)
    good, pole, nan, short = (0.3, 0.5), (0.0, 0.7), (math.nan, 0.5), (0.5,)
    with pytest.raises(ValueError, match="wrong length"):
        evaluator(a2, arg, [pole, nan, short])
    with pytest.raises(ValueError, match="non-finite"):
        evaluator(a2, arg, [pole, good, nan])
    if evaluator is not evaluate:
        with pytest.raises(ValueError, match="not dominant"):
            evaluator(a2, (-1, 0), [short])
        with pytest.raises(GenericityError):
            evaluator(a2, arg, [good, pole])
    assert evaluator(a2, arg, []) == []


def test_pole_test_comes_before_any_cross_check():
    # a point of C3's seed-10 sample fails the character's cross-check at
    # lam = 0; a pole later in the same sample is refused first
    c3 = build_root_system("C3")
    bad = [sig for sig in sample_generic_sigmas(c3, 20, 10)
           if _outcome(weyl_character_eval, c3, (0, 0, 0), [sig])[0] is CrossCheckError]
    assert bad
    with pytest.raises(CrossCheckError):
        weyl_character_eval(c3, (0, 0, 0), [bad[0], (0.5, 0.25, 0.125)])
    with pytest.raises(GenericityError):
        weyl_character_eval(c3, (0, 0, 0), [bad[0], (0.0, 0.25, 0.125)])


_NON_FINITE_POINTS = [(math.nan, 0.5), (math.inf, 0.5), (0.3, -math.inf)]


@pytest.mark.parametrize("sigma", _NON_FINITE_POINTS, ids=str)
def test_non_finite_points_are_refused(a2, sigma):
    # each evaluator refuses the point, every time, rather than returning
    # NaN; a good point right after evaluates as from scratch
    calls = [
        (brion_eval, (1, 1), _ref_brion),
        (weyl_character_eval, (1, 1), _ref_weyl_character),
        (evaluate, polytope_sum_oracle(a2, (1, 1)).sum, _ref_evaluate),
    ]
    message = f"sigma {check_sample(a2, [sigma])[0]} has a non-finite coordinate"
    for fn, arg, ref in calls:
        for _ in range(2):
            assert _outcome(fn, a2, arg, [sigma]) == (ValueError, message)
        good = [(0.3, 0.5)]
        assert _outcome(fn, a2, arg, good) == _outcome(_on_sample(ref), a2, arg, good)


def test_character_cross_check_fails_on_nan(monkeypatch, a2):
    # a NaN difference between the two character values is a failed check,
    # not a vacuous pass: the invariant sums are NaN, and the alternating
    # sum does not read them
    cone_sums = polysum._cone_sums
    monkeypatch.setattr(
        polysum, "_cone_sums",
        lambda *args: tuple((brion, math.nan) for brion, _invariant in cone_sums(*args)),
    )
    with pytest.raises(CrossCheckError, match="disagree beyond 1e-9"):
        weyl_character_eval(a2, (1, 1), [(0.3, 0.5)])


@_EVALUATORS
def test_evaluator_group_cap_comes_before_pole_test(evaluator):
    # sigma = 0 lies on every root hyperplane; rank 4 fails on the group first
    with pytest.raises(ValueError, match="capped at rank 3"):
        evaluator(build_root_system("A4"), (1, 0, 0, 0), [(0.0, 0.0, 0.0, 0.0)])


def test_freudenthal_a2(a2):
    mult = dominant_weight_multiplicities(a2, (1, 1))
    assert mult == {(1, 1): 1, (0, 0): 2}
    assert character_freudenthal(a2, (1, 1)) == character_demazure(a2, (1, 1))
    mult = dominant_weight_multiplicities(a2, (1, 0))
    assert mult == {(1, 0): 1}


def test_freudenthal_matches_demazure(b2, g2, a3):
    for rs, lam in ((b2, (2, 1)), (g2, (1, 1)), (a3, (1, 0, 2))):
        assert character_freudenthal(rs, lam) == character_demazure(rs, lam)


@pytest.mark.parametrize(
    "name,max_label",
    [("A2", 4), ("B2", 4), ("G2", 4), ("A3", 2), ("B3", 2), ("C3", 2)],
)
def test_freudenthal_matches_demazure_grid(name, max_label):
    rs = build_root_system(name)
    for lam in product(range(max_label + 1), repeat=rs.rank):
        assert character_freudenthal(rs, lam) == character_demazure(rs, lam)


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D4"])
def test_freudenthal_dimension_rank4(name):
    # Freudenthal against the Weyl dimension, both without a group table:
    # orbit sizes are products over roots (tests/test_demazure.py checks the
    # operator character against Freudenthal on the same grid)
    rs = build_root_system(name)
    for lam in product(range(2), repeat=4):
        mult = dominant_weight_multiplicities(rs, lam)
        total = sum(m * orbit_size(rs, mu) for mu, m in mult.items())
        assert total == weyl_dimension(rs, lam)


@pytest.mark.parametrize("name", ["A5", "B5", "C5", "D5"])
def test_freudenthal_dimension_rank5(name):
    rs, lam = build_root_system(name), (1,) * 5
    mult = dominant_weight_multiplicities(rs, lam)
    total = sum(m * orbit_size(rs, mu) for mu, m in mult.items())
    assert total == weyl_dimension(rs, lam)


@pytest.mark.parametrize(
    "name,lam,dim",
    [("A1", (0,), 1), ("A2", (1, 1), 8), ("A3", (1, 0, 0), 4),
     ("G2", (1, 0), 14), ("B2", (0, 1), 4), ("A3", (1, 1, 1), 64),
     ("G2", (0, 1), 7)],
)
def test_weyl_dimension(name, lam, dim):
    assert weyl_dimension(build_root_system(name), lam) == dim


def _gram_dimension(rs, lam):
    """Reference for `weyl_dimension`: Weyl's product with each factor's
    pairings (lam + rho, beta) and (rho, beta) taken through the Gram form,
    whose scale cancels."""
    rho = rs.weyl_vector
    lam_rho = tuple(x + 1 for x in lam)
    num = den = 1
    for root in rs.positive_roots:
        num *= rs.inner_scaled(lam_rho, root.weight_coords)
        den *= rs.inner_scaled(rho, root.weight_coords)
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("name,max_label", [
    ("A1", 12), ("A2", 5), ("B2", 5), ("C2", 5), ("G2", 5), ("A3", 3), ("B3", 3),
    ("C3", 3), ("D3", 3), ("A4", 2), ("B4", 2), ("C4", 2), ("D4", 2), ("A5", 1),
    ("D5", 1), ("B6", 1), ("C6", 1), ("A7", 1), ("D7", 1), ("A8", 1), ("B8", 1),
    ("D8", 1),
])
def test_weyl_dimension_matches_the_gram_product(name, max_label):
    # the coroot-label product against the Gram-form product, ranks 1-8
    rs = build_root_system(name)
    for lam in product(range(max_label + 1), repeat=rs.rank):
        assert weyl_dimension(rs, lam) == _gram_dimension(rs, lam), lam


def test_broken_products_name_their_fraction(a1, monkeypatch):
    # the messages write the failed quotient as a Fraction, imported only
    # on this path.  A stand-in coroot table holding only A2's highest
    # coroot makes the dimension product at (1, 0) come out (1 + 2) / 2 =
    # 3/2, and a patched form makes A1's Freudenthal quotient 8/9
    stand_in = SimpleNamespace(rank=2, coroots={(1, 1): (1, 1)})
    with pytest.raises(ArithmeticError,
                       match="^dimension product is not a positive integer: 3/2$"):
        weyl_dimension(stand_in, (1, 0))

    inner_scaled = RootSystem.inner_scaled

    def top_plus_one(rs, mu, nu):
        return inner_scaled(rs, mu, nu) + (tuple(mu) == tuple(nu) == (3,))

    monkeypatch.setattr(RootSystem, "inner_scaled", top_plus_one)
    with pytest.raises(ArithmeticError, match=r"^multiplicity recursion broke at \(0,\): 8/9$"):
        dominant_weight_multiplicities(a1, (2,))


@pytest.mark.parametrize(
    "name,max_label,dims", [("A1", 12, 91), ("A2", 4, 825), ("B2", 3, 950), ("G2", 2, 1394),
                            ("A3", 1, 134)],
)
def test_verify_budget_walks_no_weight_under_the_cap(monkeypatch, name, max_label, dims):
    # the verify-sweep workload's grids: their dimensions add up far under
    # the cap, so the sweep's size gate makes no walk, and each lam is
    # walked once, by its oracle.  The spy sits on the packed walk, which
    # both the size gate and the oracle call directly
    rs = build_root_system(name)
    grid = list(product(range(max_label + 1), repeat=rs.rank))
    assert sum(weyl_dimension(rs, lam) for lam in grid) == dims
    walked = []
    walk = polysum._walk_below
    monkeypatch.setattr(polysum, "_walk_below",
                        lambda rs, lam: walked.append(lam) or walk(rs, lam))
    assert len(verify_polytope_formula(rs, max_label)) == len(grid)
    assert walked == grid


def test_dominant_weights_below_order(a2):
    below = dominant_weights_below(a2, (2, 2))
    assert below == [(2, 2), (0, 3), (3, 0), (1, 1), (0, 0)]


# References for the packed walk and Freudenthal strings: the same loops on
# weight tuples, which have no field width to outgrow.
def _tuple_walk(rs, lam):
    steps = [(root.weight_coords, root.height) for root in rs.positive_roots]
    seen = {lam}
    walked = [(0, lam)]
    for depth, mu in walked:
        for alpha, h in steps:
            nu = tuple(m - a for m, a in zip(mu, alpha))
            if nu not in seen and min(nu) >= 0:
                seen.add(nu)
                walked.append((depth + h, nu))
    walked.sort()
    return [mu for _depth, mu in walked]


def _tuple_multiplicities(rs, lam, doms):
    rho = rs.weyl_vector
    lam_rho = tuple(x + 1 for x in lam)
    top = rs.inner_scaled(lam_rho, lam_rho)
    mult, memo = {lam: 1}, {}
    for mu in doms[1:]:
        acc = 0
        for root in rs.positive_roots:
            wc = root.weight_coords
            a, b = rs.inner_scaled(mu, wc), rs.inner_scaled(wc, wc)
            nu = mu
            while True:
                nu = tuple(x + y for x, y in zip(nu, wc))
                if nu not in memo:
                    memo[nu] = mult.get(dominant_representative(rs, nu)[0], 0)
                if not memo[nu]:
                    break
                a += b
                acc += memo[nu] * a
        mu_rho = tuple(m + d for m, d in zip(mu, rho))
        value, rem = divmod(2 * acc, top - rs.inner_scaled(mu_rho, mu_rho))
        assert rem == 0 and value > 0, mu
        mult[mu] = value
    return mult


# Weights at the edges of the packed loops' field widths: the walk's
# rejected candidates and each string's last weight lie one root outside
# lam's hull, and the codec must hold them too.  A1 (126), (127) and
# (32767), A2 (63, 63) and (64, 63) and G2 (21, 21) need a wider field for
# that step than for the hull; the others sit at or past such an edge.
_CODEC_EDGES = pytest.mark.parametrize("name,lam", [
    ("A1", (126,)), ("A1", (127,)), ("A1", (128,)), ("A1", (32767,)), ("A1", (32768,)),
    ("A2", (63, 63)), ("A2", (64, 63)), ("B2", (32, 32)), ("G2", (21, 21)),
    ("C3", (10, 10, 11)),
])


def _reference_rows(rs, lam, doms):
    # the tuple reference is quadratic on A1 (each mu's string runs up to
    # lam: about 26 s at 32767), so there it gets the walk's first weights
    # alone; every one of their strings ends at lam + alpha, past the hull
    return doms[:64] if rs.rank == 1 and lam[0] > 1000 else doms


@_CODEC_EDGES
def test_packed_loops_match_tuple_references_at_codec_edges(monkeypatch, name, lam):
    rs = build_root_system(name)
    doms = _tuple_walk(rs, lam)
    assert dominant_weights_below(rs, lam) == doms
    mult = dominant_weight_multiplicities(rs, lam)
    if rs.rank == 1:
        # A1's closed form: every weight lam, lam - 2, ... has multiplicity 1
        assert list(mult.items()) == [(mu, 1) for mu in doms]
    rows = _reference_rows(rs, lam, doms)
    if rows is not doms:
        monkeypatch.setattr(polysum, "dominant_weights_below", lambda rs, lam: rows)
        mult = dominant_weight_multiplicities(rs, lam)
    assert list(mult.items()) == list(_tuple_multiplicities(rs, lam, rows).items())


@_CODEC_EDGES
def test_packed_fold_matches_dominant_representative_at_codec_edges(name, lam):
    # every weight of every string, its last one (multiplicity 0, one root
    # past the hull) included, straightens on packed ints to the packed
    # dominant_representative
    rs = build_root_system(name)
    doms = _reference_rows(rs, lam, dominant_weights_below(rs, lam))
    mult = _tuple_multiplicities(rs, lam, doms)
    codec = _codec_for(rs, (lam,))
    folded = {}
    for mu in doms:
        for root in rs.positive_roots:
            nu = mu
            while True:
                nu = tuple(x + y for x, y in zip(nu, root.weight_coords))
                if nu not in folded:
                    folded[nu] = dominant_representative(rs, nu)[0]
                    assert codec.unpack(codec.straighten(codec.pack(nu))[0]) == folded[nu], nu
                if folded[nu] not in mult:
                    break
    assert any(dom not in mult for dom in folded.values())  # the last weights


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "C3"])
def test_straighten_counts_the_reflections_of_dominant_representative(name):
    # the fold the straightening route reads its sign and depth from: the
    # reflections dominant_representative takes, and the height they add
    rs = build_root_system(name)
    codec = _codec_for(rs, ((3,) * rs.rank,))
    for mu in product(range(-3, 4), repeat=rs.rank):
        dom, word = dominant_representative(rs, mu)
        q, flips, raised = codec.straighten(codec.pack(mu))
        rise = sum(rs.root_coords_of_weight(tuple(x - y for x, y in zip(dom, mu))))
        assert (codec.unpack(q), flips, raised) == (dom, len(word), rise), mu


@pytest.mark.parametrize("name,labels", [
    ("A4", range(2)), ("B4", range(2)), ("C4", range(2)), ("D4", range(2)),
    ("D4", (2,)), ("A5", range(2)), ("D5", range(2)),
])
def test_freudenthal_matches_tuple_reference(name, labels):
    # the strings that stop at a tabulated dominant weight and add its tail
    # against the tuple strings that run to their first 0: values and order
    rs = build_root_system(name)
    for lam in product(labels, repeat=rs.rank):
        doms = dominant_weights_below(rs, lam)
        expected = _tuple_multiplicities(rs, lam, doms)
        assert list(dominant_weight_multiplicities(rs, lam).items()) == list(expected.items()), lam


def _tuple_peel(rs, lam, mult):
    """Reference for `polytope_expansion`'s peel: one root-coordinate solve
    per weight and an entrywise comparison of gaps per pair."""
    coeffs, gaps = {}, {}
    for mu, value in mult.items():
        gap = gaps[mu] = rs.root_coords_of_weight(tuple(x - y for x, y in zip(lam, mu)))
        for nu, c in coeffs.items():
            if all(g >= h for g, h in zip(gap, gaps[nu])):
                value -= c
        if value:
            coeffs[mu] = value
    return coeffs


@pytest.mark.parametrize("name,lams", [
    ("B3", list(product(range(4), repeat=3))), ("C3", list(product(range(4), repeat=3))),
    ("D4", list(product(range(3), repeat=4))), ("C3", [(10, 10, 11)]),
], ids=["B3", "C3", "D4", "C3-10-10-11"])
def test_expansion_matches_tuple_peel(name, lams):
    # D4 [0..2]^4 has negative coefficients (D4 (0, 0, 2, 2) first); C3
    # (10, 10, 11) has 2,036 coefficients
    # the dict's order is the documented one, sorted by weight, on both routes
    rs = build_root_system(name)
    negative = 0
    for lam in lams:
        expected = _tuple_peel(rs, lam, dominant_weight_multiplicities(rs, lam))
        assert list(polytope_expansion(rs, lam).items()) == sorted(expected.items()), lam
        negative += min(expected.values()) < 0
    assert (negative > 0) == (name == "D4")


# the algebras whose product g straightens, each with a grid whose walls
# (zero labels) give singular weights
_STRAIGHTENED = {
    "A1": 11, "A2": 7, "B2": 6, "C2": 6, "G2": 5,
    "A3": 4, "B3": 3, "C3": 3, "D3": 3, "A4": 2,
}
_ALL_ALGEBRAS = ([f"A{r}" for r in range(1, 9)] + [f"{f}{r}" for f in "BC" for r in range(2, 9)]
                 + [f"D{r}" for r in range(3, 9)] + ["G2"])


def test_straightening_rule_picks_rank_at_most_3_and_a4():
    picked = {name for name in _ALL_ALGEBRAS
              if polysum._brion_numerator(build_root_system(name)) is not None}
    assert picked == set(_STRAIGHTENED)


@pytest.mark.parametrize("name", sorted(_STRAIGHTENED))
def test_straightening_matches_tuple_peel(name):
    # Brion's straightening against the root-coordinate peel of
    # Freudenthal's multiplicities: values and order, singular lam included
    rs = build_root_system(name)
    terms = polysum._brion_numerator(rs)
    for lam in product(range(_STRAIGHTENED[name]), repeat=rs.rank):
        expected = _tuple_peel(rs, lam, dominant_weight_multiplicities(rs, lam))
        got = polysum._straightened_expansion(rs, lam, terms)
        assert list(got.items()) == sorted(expected.items()), lam


@pytest.fixture
def straightening_bound(monkeypatch):
    """Set the straightening bound, with `_brion_numerator`'s cache cleared
    before and after, so no product built under a patched bound is kept."""
    def patch(bound):
        monkeypatch.setattr(polysum, "_STRAIGHTEN_TERMS_PER_ROOT", bound)
        polysum._brion_numerator.cache_clear()

    yield patch
    polysum._brion_numerator.cache_clear()


@pytest.mark.parametrize("name,lams", [
    ("G2", list(product(range(4), repeat=2))),  # |g| = 12 = 2 |Phi+|
    ("D4", list(product(range(2), repeat=4)) + [(0, 0, 2, 2)]),  # |g| = 122, 10.2 |Phi+|
])
def test_routes_agree_on_each_side_of_the_bound(monkeypatch, straightening_bound, name, lams):
    # at the smallest bound that takes g the route straightens, one below
    # it peels, and both give one dict in one key order
    rs = build_root_system(name)
    per_root = {"G2": 2, "D4": 11}[name]
    routes = []
    for wrapped in ("_straightened_expansion", "_freudenthal_peel"):
        original = getattr(polysum, wrapped)

        def spy(*args, _name=wrapped, _original=original):
            routes.append(_name)
            return _original(*args)

        monkeypatch.setattr(polysum, wrapped, spy)
    sides = []
    for bound in (per_root, per_root - 1):
        straightening_bound(bound)
        routes.clear()
        sides.append([polytope_expansion(rs, lam) for lam in lams])
        taken = "_straightened_expansion" if bound == per_root else "_freudenthal_peel"
        assert routes == [taken] * len(lams)
    assert sides[0] == sides[1]
    assert [list(d) for d in sides[0]] == [list(d) for d in sides[1]]  # one key order
    assert (min(min(d.values()) for d in sides[0]) < 0) == (name == "D4")


def test_product_is_never_expanded_past_the_bound(monkeypatch):
    # B8 has 56 non-simple roots; the product is abandoned at the first
    # partial product past 5 |Phi+| = 320 terms, after a few factors
    b8 = build_root_system("B8")
    bound = polysum._STRAIGHTEN_TERMS_PER_ROOT * len(b8.positive_roots)
    sizes = []
    original = polysum._accumulate

    def spy(acc, terms, shift, sign):
        original(acc, terms, shift, sign)
        sizes.append(len(acc))

    monkeypatch.setattr(polysum, "_accumulate", spy)
    assert polysum._brion_numerator.__wrapped__(b8) is None
    assert max(sizes) > bound
    assert all(size <= bound for size in sizes[:-1])
    assert len(sizes) < len(b8.positive_roots) - b8.rank


def test_expansion_a2(a2):
    assert polytope_expansion(a2, (1, 1)) == {(1, 1): 1, (0, 0): 1}
    assert polytope_expansion(a2, (1, 0)) == {(1, 0): 1}


def test_expansion_a2_closed_form(a2):
    # A2: c = 1 exactly on lam - k theta, 0 <= k <= min(lam), theta = (1, 1)
    for lam in product(range(9), repeat=2):
        expected = {(lam[0] - k, lam[1] - k): 1 for k in range(min(lam) + 1)}
        assert polytope_expansion(a2, lam) == expected, lam


def test_expansion_reconstructs(b2, g2):
    for rs, lam in ((b2, (2, 2)), (g2, (1, 1))):
        coeffs = polytope_expansion(rs, lam)
        assert coeffs[lam] == 1
        total = FormalSum(rs.rank)
        for mu, c in coeffs.items():
            total = total + polytope_sum_oracle(rs, mu).sum.scale(c)
        assert total == character_freudenthal(rs, lam)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3"])
def test_expansion_reconstructs_grid(name):
    # the root-coordinate peel against the Demazure character, an independent route
    rs = build_root_system(name)
    for lam in product(range(3), repeat=rs.rank):
        total = FormalSum(rs.rank)
        for mu, c in polytope_expansion(rs, lam).items():
            total = total + polytope_sum_oracle(rs, mu).sum.scale(c)
        assert total == character_demazure(rs, lam), lam


@pytest.mark.parametrize(
    "name,max_label,formula",
    [("A1", 4, "demazure_a1"), ("A2", 2, "demazure_rank2"), ("B2", 2, "demazure_rank2"),
     ("G2", 2, "demazure_rank2"), ("A3", 1, "demazure_a3")],
    ids=["A1", "A2", "B2", "G2", "A3"],
)
def test_verification_reports(name, max_label, formula):
    rs = build_root_system(name)
    reports = verify_polytope_formula(rs, max_label)
    assert len(reports) == (max_label + 1) ** rs.rank
    assert all(r["match"] for r in reports)
    for blob in reports:
        assert set(blob) == {
            "formula", "algebra", "lambda", "match", "diff", "n_points",
        }
        assert blob["formula"] == formula
        assert blob["algebra"] == name


def test_sampler_deterministic(g2):
    assert sample_generic_sigmas(g2, 4) == sample_generic_sigmas(g2, 4, DEFAULT_SEED)
    assert sample_generic_sigmas(g2, 4, 1) != sample_generic_sigmas(g2, 4, 2)


_ALL_ALGEBRAS = (
    [f"A{r}" for r in range(1, 9)]
    + [f"{family}{r}" for family in "BC" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["G2"]
)


@pytest.mark.parametrize("name", _ALL_ALGEBRAS)
def test_sampled_points_pair_at_least_a_thirtieth_with_every_root(name):
    # beta = sum_i c_i alpha_i pairs with sigma to sum_i c_i sigma_i
    # (alpha_i, alpha_i) / 2, least on [0.1, 1.1]^r at sigma = 0.1 * (1, ...,
    # 1), where it is inner_scaled(beta, (1, ..., 1)) / (10 * form_scale):
    # at least 1/30 means 3 * inner_scaled >= form_scale, equal on G2 alone
    rs = build_root_system(name)
    ones = (1,) * rs.rank
    least = min(rs.inner_scaled(root.weight_coords, ones) for root in rs.positive_roots)
    assert 3 * least >= rs.form_scale
    assert (3 * least == rs.form_scale) == (name == "G2")
    roots = [root.weight_coords for root in rs.positive_roots]
    for seed in range(10):
        for sig in sample_generic_sigmas(rs, 20, seed):
            assert min(_ref_inner_float(rs, beta, sig) for beta in roots) >= 1 / 30, (seed, sig)


@pytest.mark.parametrize("name", _ALL_ALGEBRAS)
def test_sampler_draws_what_the_filtering_reference_keeps(name):
    # the reference still resamples near a pole; no point of the box is near
    # one, so it keeps every draw, in the sampler's order
    rs = build_root_system(name)
    for seed in (0, 1, DEFAULT_SEED):
        assert sample_generic_sigmas(rs, 20, seed) == _ref_sample(rs, 20, seed)


def test_numeric_check_shape(a2):
    out = numeric_formula_check(a2, (1, 0), sigma_count=5)
    assert out["pass"] is True
    assert out["brion_max_rel_err"] < 1e-9
    assert out["weyl_max_rel_err"] < 1e-9
    assert out["lambda"] == [1, 0]


def test_numeric_check_needs_a_sample(a2):
    for count in (0, -3):
        with pytest.raises(ValueError):
            numeric_formula_check(a2, (1, 1), sigma_count=count)
