"""FormalSum arithmetic, canonical JSON, and numeric evaluation."""

import itertools
import json
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychar import FormalSum, build_root_system, evaluate, orbit
from polychar.formal import _codec, _codec_for, terms_json_text
from polychar.polysum import polytope_sum_oracle

weights2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
sums2 = st.dictionaries(weights2, st.integers(-9, 9), max_size=8).map(
    lambda d: FormalSum(2, d)
)


def test_zero_coefficients_pruned():
    s = FormalSum(2, {(1, 0): 3, (0, 1): 0})
    assert len(s) == 1
    assert s.terms.get((0, 1), 0) == 0
    assert s.terms.get((1, 0), 0) == 3


def test_entries_that_cancel_leave_no_term():
    s = FormalSum(2, [((1, 0), 2), ((0, 1), 1), ((1, 0), -2)])
    assert dict(s.terms) == {(0, 1): 1}
    assert FormalSum(1, [((3,), 1), ((3,), -1)]).is_zero()
    # an entry that cancels and comes back is kept with its last total
    assert dict(FormalSum(1, [((3,), 1), ((3,), -1), ((3,), 4)]).terms) == {(3,): 4}


def test_scale_by_zero_is_the_zero_sum():
    s = FormalSum(2, {(1, 0): 3, (0, 1): -2})
    for x in (s, _packed_only(build_root_system("A2"), dict(s.terms))):
        assert x.scale(0).is_zero() and len(x.scale(0)) == 0
        assert x.scale(0) == FormalSum(2)


def test_equality_against_other_objects_and_ranks():
    s = FormalSum(2, {(1, 0): 3})
    assert s.__eq__(3) is NotImplemented and s.__eq__({(1, 0): 3}) is NotImplemented
    assert (s == 3) is False and (s != {(1, 0): 3}) is True
    # sums of different ranks are never equal, not even two zeros
    assert FormalSum(1) != FormalSum(2)
    assert FormalSum.exp((0,)) != FormalSum.exp((0, 0))


def test_constructor_merges_nothing_but_validates():
    with pytest.raises(ValueError):
        FormalSum(2, {(1, 0, 0): 1})
    with pytest.raises(TypeError):
        FormalSum(2, {(1, 0): 1.5})
    with pytest.raises(ValueError):
        FormalSum(0, {})


def test_bools_rejected():
    with pytest.raises(ValueError):
        FormalSum(True, {(1,): 1})
    with pytest.raises(TypeError):
        FormalSum(1, {(1,): True})
    with pytest.raises(TypeError):
        FormalSum.exp((1,)).scale(True)
    # exponent entries: bools and floats are refused on every way in
    for bad in ((True, 0), (0, 0.5), (1.0, 0)):
        with pytest.raises(TypeError, match="non-integer entry"):
            FormalSum(2, {bad: 1})
        with pytest.raises(TypeError, match="non-integer entry"):
            FormalSum.exp(bad)


def test_add_and_cancellation():
    s = FormalSum.exp((1, 1))
    t = FormalSum(2, {(1, 1): -1, (0, 0): 2})
    out = s + t
    assert out == FormalSum(2, {(0, 0): 2})
    assert (s - s).is_zero()


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        FormalSum.exp((1, 0)).add(FormalSum.exp((1, 0, 0)))
    with pytest.raises(TypeError):
        FormalSum.exp((1, 0)).add(7)


def test_difference_is_one_pass_sum_of_negation():
    rng = random.Random(5)
    for _ in range(200):
        a = FormalSum(2, {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4)
                          for _ in range(rng.randint(0, 8))})
        b = FormalSum(2, {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4)
                          for _ in range(rng.randint(0, 8))})
        diff = a - b
        assert diff == a + b.scale(-1)
        assert 0 not in diff.terms.values()
        # full cancellation: a copy built apart from a
        assert (a - FormalSum(2, dict(a.terms))).is_zero()
        assert (diff - diff).to_json_obj() == []
    a = FormalSum(2, {(1, 0): 2, (0, 1): -1})
    assert (a - a).is_zero()
    with pytest.raises(ValueError, match="rank mismatch"):
        a - FormalSum.exp((1, 0, 0))
    with pytest.raises(TypeError):
        a - 3


def _packed_only(rs, terms):
    """A sum holding only the packed form of ``terms``, as an operator
    returns it: no tuple is built until something reads one."""
    return FormalSum._of(rs.rank, *FormalSum(rs.rank, terms)._packed_for(rs))


@given(sums2, sums2)
@settings(max_examples=60)
def test_packed_sum_is_indistinguishable_from_tuple_sum(x, y):
    rs = build_root_system("G2")
    terms = dict(x.terms)

    def fresh():
        return _packed_only(rs, terms)

    assert fresh() == x and x == fresh()
    assert fresh() == fresh()
    assert dict(fresh().terms) == terms
    assert len(fresh()) == len(x) and bool(fresh()) == bool(x)
    assert fresh().is_zero() == x.is_zero()
    assert fresh().coefficient_sum() == x.coefficient_sum()
    assert fresh().items_sorted() == x.items_sorted()
    assert fresh().to_json_text() == x.to_json_text()
    assert fresh().to_json_obj() == x.to_json_obj()
    assert repr(fresh()) == repr(x)
    # each way round, against a tuple sum and a packed one
    other = _packed_only(rs, dict(y.terms))
    for left, right in ((fresh(), y), (x, other), (fresh(), other)):
        assert (left + right).to_json_text() == (x + y).to_json_text()
        assert (right + left) == y + x
        assert (left - right).to_json_text() == (x - y).to_json_text()
        assert (right - left) == y - x
    assert (fresh() - x).is_zero() and (x - fresh()).is_zero()
    assert fresh().scale(-3) == x.scale(-3) and -fresh() == -x
    # one coefficient changed, same support: packed sums of one codec that
    # differ compare unequal both ways, as their tuple forms do
    w, c = next(iter(terms.items()), ((0, 0), 0))
    changed = {**terms, w: 2 * c or 1}
    packed = _packed_only(rs, changed)
    assert packed._codec is fresh()._codec
    assert packed != fresh() and fresh() != packed
    assert FormalSum(2, changed) != x and x != FormalSum(2, changed)


def test_packed_sum_builds_its_tuples_once():
    g2 = build_root_system("G2")
    terms = {(2, -1): 3, (0, 1): -2, (-4, 3): 1}
    # packing reads a tuple sum and leaves it as it was; a sum packed for
    # G2 gives its own dict
    source = FormalSum(2, terms)
    own = source._terms
    packed, codec = source._packed_for(g2)
    assert source._codec is None and source._terms is own and own == terms
    assert all(type(k) is int for k in packed) and codec is _codec_for(g2, terms)
    again, same = FormalSum._of(2, packed, codec)._packed_for(g2)
    assert again is packed and same is codec
    sorted_first = _packed_only(g2, terms)
    canonical = sorted_first._canonical()
    # the same exponent objects, whichever is read first
    assert [w for w, _c in canonical] == list(sorted_first.terms)
    assert all(w is k for (w, _c), k in zip(canonical, sorted_first.terms))
    terms_first = _packed_only(g2, terms)
    keys = set(map(id, terms_first.terms))
    assert set(id(w) for w, _c in terms_first._canonical()) == keys


def test_packed_coefficient_reads_as_the_tuple_sum():
    # G2 (4,5)'s oracle sum is packed in 1-byte fields, labels in [-128, 128)
    g2 = build_root_system("G2")
    packed = polytope_sum_oracle(g2, (4, 5)).sum
    assert packed._codec.offset == 128
    tuples = FormalSum(2, dict(packed.terms))
    grid = [(a, b) for a in range(-30, 31) for b in range(-30, 31)]  # hull and past it
    assert sum(1 for w in grid if tuples.terms.get(w, 0)) == len(packed) == 487
    edge = [(127, 0), (-128, 0), (128, 0), (-129, 0), (0, 10**30), (0, -(10**30))]
    # out of range, these pack to the ints of terms: (a + 1, b - 256) to (a, b)
    edge += [(a + 1, b - 256) for a, b in tuples.terms]
    odd = [(1.0, 1), (True, True), (1, 1.5), (1,), (1, 1, 0)]
    for w in grid + edge + odd:
        assert packed.terms.get(w, 0) == tuples.terms.get(w, 0)
    assert packed.terms.get((1.0, 1), 0) == packed.terms.get((True, True), 0) == 1


def test_reading_a_packed_sum_keeps_it_packed():
    # a sum's form moves one way: reads and arithmetic leave a packed sum
    # packed, on its codec, with the same int keys
    g2 = build_root_system("G2")
    terms = {(2, -1): 3, (0, 1): -2, (-4, 3): 1}
    x = _packed_only(g2, terms)
    codec, packed = x._codec, dict(x._terms)
    wide = _packed_only(g2, {(42, 0): 1, (0, 1): 2})
    assert codec.nbytes == 1 and wide._codec.nbytes == 2
    reads = [lambda: dict(x.terms), x.items_sorted, x.to_json_text]
    # packed for another root system: a new dict of B2's codec, x unchanged
    b2 = build_root_system("B2")
    reads += [lambda: x._packed_for(g2), lambda: x._packed_for(b2)]
    for other in (FormalSum(2, {(0, 1): 2, (5, 5): 1}), wide):
        for op in (operator.eq, operator.add, operator.sub):
            reads += [lambda op=op, o=other: op(x, o), lambda op=op, o=other: op(o, x)]
    own = x._terms
    for read in reads:
        read()
        assert x._codec is codec and x._terms is own and own == packed
        assert all(type(k) is int for k in x._terms)
    b2_terms, b2_codec = x._packed_for(b2)
    assert b2_codec.rs is b2 and b2_terms is not own
    assert FormalSum._of(2, b2_terms, b2_codec) == x
    assert wide._codec.nbytes == 2
    scaled = x.scale(-3)
    assert scaled._codec is codec
    assert scaled == FormalSum(2, {w: -3 * c for w, c in terms.items()})


def _canonical_json(terms: dict) -> str:
    return json.dumps([{"w": list(w), "c": c} for w, c in sorted(terms.items())],
                      sort_keys=True, separators=(",", ":"))


def test_sums_of_different_codecs_combine_on_tuples():
    # G2: c_max = 3 and a root's largest label is 3, so one-byte fields hold
    # |mu|_1 <= 41; B2's one-byte codec is another object
    g2, b2 = build_root_system("G2"), build_root_system("B2")
    x = {(41, 0): 1, (0, -41): 2}
    cases = (
        (g2, {(42, 0): 5, (0, -41): -2}, 2),
        (b2, {(1, 1): 3, (41, 0): -1}, 1),
    )
    left = _packed_only(g2, x)
    left_terms = left._terms
    assert left._codec.nbytes == 1
    for rs, y, nbytes in cases:
        right = _packed_only(rs, y)
        right_codec, right_terms = right._codec, right._terms
        assert right_codec.nbytes == nbytes
        for op, sign in ((operator.add, 1), (operator.sub, -1)):
            want = {w: x.get(w, 0) + sign * y.get(w, 0) for w in {**x, **y}}
            want = {w: c for w, c in want.items() if c}
            # x +- y, and y +- x, which is sign * (x +- y)
            for out, factor in ((op(left, right), 1), (op(right, left), sign)):
                expected = {w: factor * c for w, c in want.items()}
                assert out._codec is None
                assert out == FormalSum(2, expected)
                assert out.to_json_text() == _canonical_json(expected)
                # the operands keep their codecs and their packed dicts
                assert left._codec.rs is g2 and left._terms is left_terms
                assert right._codec is right_codec and right._terms is right_terms
    # one codec: the sum stays packed by it
    same = _packed_only(g2, x)
    total = same + _packed_only(g2, {(0, 41): 1})
    assert total._codec is same._codec
    assert total.to_json_text() == '[{"c":2,"w":[0,-41]},{"c":1,"w":[0,41]},{"c":1,"w":[41,0]}]'


@pytest.mark.parametrize("name,lam", [
    ("A1", (124,)), ("A1", (125,)), ("A1", (126,)), ("A1", (127,)),
    # the orbits' largest labels: 123 and 126 (G2), 124 and 126 (C3)
    ("G2", (41, 0)), ("G2", (42, 0)), ("C3", (0, 31, 31)), ("C3", (0, 31, 32)),
])
def test_one_rule_sizes_the_operator_and_walk_codecs(name, lam):
    # e^lam's operator codec is the codec of the walk below lam and of its
    # Freudenthal strings, and holds every Weyl image of lam - alpha
    rs = build_root_system(name)
    codec = FormalSum.exp(lam)._packed_for(rs)[1]
    assert codec is _codec_for(rs, (lam,))
    for mu in orbit(rs, lam):
        for root in rs.positive_roots:
            for nu in (tuple(map(operator.sub, mu, root.weight_coords)),
                       tuple(map(operator.add, mu, root.weight_coords))):
                assert codec.unpack(codec.pack(nu)) == nu


@pytest.mark.parametrize("name", ["A1", "A2", "G2", "B3"])
@pytest.mark.parametrize("nbytes", [1, 2, 4, 8, 9])
def test_codec_round_trips_at_every_width(name, nbytes):
    # 1, 2, 4 and 8 bytes decode in bulk through struct, 9 field by field;
    # one weight always decodes field by field, and unpack_all regroups the
    # flat decode, rank labels to a weight
    rs = build_root_system(name)
    codec = _codec(rs, nbytes)
    edges = (-codec.offset, -1, 0, codec.offset - 1)
    weights = list(itertools.product(edges, repeat=rs.rank))
    packed = [codec.pack(w) for w in weights]
    for w, p in zip(weights, packed):
        assert codec.unpack(p) == codec.unpack_all([p])[0] == w
        assert list(codec.unpack_flat([p])) == list(w)
    assert codec.unpack_all(packed) == list(map(codec.unpack, packed)) == weights
    # the flat decode the sum writer reads: every label, rank to a weight
    assert list(codec.unpack_flat(packed)) == [x for w in weights for x in w]
    assert list(codec.unpack_flat([])) == codec.unpack_all([]) == []


@given(sums2, sums2, sums2)
def test_add_associative_commutative(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


@given(sums2)
@settings(max_examples=60)
def test_json_roundtrip(s):
    blob = json.dumps(s.to_json_obj())
    assert _read_json(2, json.loads(blob)) == s


def _read_json(rank, obj) -> FormalSum:
    """A sum read back from its JSON form: the constructor, with its checks,
    on the (exponent, coefficient) pairs."""
    return FormalSum(rank, [(tuple(e["w"]), e["c"]) for e in obj])


def _dumps(pairs) -> str:
    """The reference text: json.dumps of the term dicts, as the CLI's
    canonical form prints them."""
    obj = [{"w": list(w), "c": c} for w, c in sorted(pairs)]
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# small ones, and ones past the 64-bit range on either side of zero
coefficients = st.one_of(
    st.integers(-9, 9),
    st.integers(2**63 - 2, 2**63 + 2),
    st.integers(-(2**63) - 2, -(2**63) + 2),
    st.integers(-(2**100), 2**100),
)


# the edge labels of the codec widths that struct decodes (1, 2, 4 and 8
# bytes) and of one it does not (9): -offset and offset - 1
_EDGE_LABELS = [x for n in (1, 2, 4, 8, 9) for x in (-(1 << 8 * n - 1), (1 << 8 * n - 1) - 1)]
_RANKED = {1: "A1", 2: "B2", 3: "C3", 4: "D4"}


@st.composite
def ranked_terms(draw):
    rank = draw(st.integers(1, 4))
    labels = st.one_of(st.integers(-40, 40), st.sampled_from(_EDGE_LABELS))
    weights = st.tuples(*[labels] * rank)
    return rank, draw(st.dictionaries(weights, coefficients, max_size=10))


@given(ranked_terms())
@settings(max_examples=200)
def test_json_text_is_json_dumps(case):
    rank, terms = case
    s = FormalSum(rank, terms)
    text = s.to_json_text()
    assert text == _dumps(s.terms.items())
    assert _read_json(rank, json.loads(text)) == s
    # `expand` writes its coefficient dict's sorted items the same way
    items = sorted(terms.items())
    labels = [x for w, _c in items for x in w]
    assert terms_json_text(labels, [c for _w, c in items], rank) == _dumps(terms.items())
    # packed: decoded in bulk by struct at 1, 2, 4 and 8 bytes, and field by
    # field at 9, each codec holding the terms whose labels fit its fields
    rs = build_root_system(_RANKED[rank])
    for nbytes in (1, 2, 4, 8, 9):
        codec = _codec(rs, nbytes)
        fit = {w: c for w, c in terms.items() if all(-codec.offset <= x < codec.offset for x in w)}
        packed = FormalSum._of(rank, {codec.pack(w): c for w, c in fit.items()}, codec)
        assert packed.to_json_text() == _dumps(fit.items())


def test_json_text_of_the_empty_sum(a2):
    for rank in (1, 4):
        assert FormalSum(rank).to_json_text() == "[]"
        assert terms_json_text([], [], rank) == "[]"
    for nbytes in (1, 9):
        assert FormalSum._of(2, {}, _codec(a2, nbytes)).to_json_text() == "[]"


@pytest.mark.parametrize(
    "entry",
    [{"w": [1, 0], "c": 1.7}, {"w": [1, 0], "c": True}, {"w": [1, 0], "c": "3"},
     {"w": [0.5, 0], "c": 1}, {"w": [True, 0], "c": 1}, {"w": ["1", 0], "c": 1}],
)
def test_from_json_rejects_non_integers(entry):
    with pytest.raises(TypeError):
        _read_json(2, [entry])


def test_json_is_lex_sorted():
    s = FormalSum(2, {(1, -1): 1, (0, 2): 1, (1, 0): 1})
    ws = [tuple(e["w"]) for e in s.to_json_obj()]
    assert ws == sorted(ws)


def test_sorted_order_is_kept_and_not_shared():
    base = FormalSum(2, {(1, 0): 3, (-1, 2): -1, (0, 0): 2})
    sums = [
        base,
        FormalSum._of(2, {(2, -1): 1, (0, 1): 4, (-3, 0): -2}),
        base.add(FormalSum(2, {(1, 0): -3, (5, -5): 1})),
        base.scale(-2),
        _packed_only(build_root_system("A2"), dict(base.terms)),
        _read_json(2, base.to_json_obj()),
    ]
    for s in sums:
        expected = sorted(s.terms.items())
        first = s.items_sorted()
        assert first == expected
        first.reverse()
        first.append(((9, 9), 1))
        assert s.items_sorted() == expected
        assert s.to_json_obj() == [{"w": list(w), "c": c} for w, c in expected]
    # filled by to_json_obj, then read by items_sorted
    fresh = FormalSum(2, {(0, 1): 1, (0, -1): 1})
    fresh.to_json_obj()
    assert fresh.items_sorted() == [((0, -1), 1), ((0, 1), 1)]


def test_evaluate_simple(a1, a2):
    s = FormalSum.exp((2,))
    sigma = (0.7,)
    # <2*Lambda1, sigma> with quadratic form 1/2 gives 0.7
    assert evaluate(a1, s, [sigma]) == [pytest.approx(math.exp(0.7))]
    ch = FormalSum(2, {(1, 0): 1, (-1, 1): 1, (0, -1): 1})
    # at sigma = 0 every exponential is 1
    assert evaluate(a2, ch, [(0.0, 0.0)]) == [pytest.approx(3.0)]


def test_evaluate_refuses_a_total_past_the_float_range(a1):
    # e^{<1400 Lambda1, sigma>} = e^700 is finite; 10**20 of it is not
    s = FormalSum(1, {(1400,): 10**20})
    assert math.isfinite(evaluate(a1, FormalSum.exp((1400,)), [(1.0,)])[0])
    with pytest.raises(OverflowError):
        evaluate(a1, s, [(1.0,)])
    with pytest.raises(OverflowError):
        evaluate(a1, s + FormalSum(1, {(1398,): -2 * 10**20}), [(1.0,)])  # inf - inf: NaN


def test_evaluate_rank_checks(a2):
    with pytest.raises(ValueError):
        evaluate(a2, FormalSum.exp((1,)), [(0.1, 0.2)])
    with pytest.raises(ValueError):
        evaluate(a2, FormalSum.exp((1, 0)), [(0.1,)])
