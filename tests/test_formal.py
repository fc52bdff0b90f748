"""FormalSum arithmetic, JSON round-trips, and numeric evaluation."""

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
    assert s.coefficient((0, 1)) == 0
    assert s.coefficient((1, 0)) == 3


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
        with pytest.raises(TypeError, match="non-integer entry"):
            FormalSum.exp((0, 0)).mul_exp(bad)
        with pytest.raises(TypeError, match="non-integer entry"):
            FormalSum.from_json_obj([{"w": list(bad), "c": 1}])


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
    s = FormalSum(rs.rank, terms)
    s._packed_for(rs)
    return s


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
    assert all(fresh().coefficient(w) == c for w, c in terms.items())
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
    assert fresh().mul_exp((1, -2)) == x.mul_exp((1, -2))
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
    assert sum(1 for w in grid if tuples.coefficient(w)) == len(packed) == 487
    edge = [(127, 0), (-128, 0), (128, 0), (-129, 0), (0, 10**30), (0, -(10**30))]
    # out of range, these pack to the ints of terms: (a + 1, b - 256) to (a, b)
    edge += [(a + 1, b - 256) for a, b in tuples.terms]
    odd = [(1.0, 1), (True, True), (1, 1.5), (1,), (1, 1, 0), [1, 1]]
    for w in grid + edge + odd:
        assert packed.coefficient(w) == tuples.coefficient(w)
    assert packed.coefficient((1.0, 1)) == packed.coefficient((True, True)) == 1
    assert packed.coefficient(iter((1, 1))) == 1


def test_reading_a_packed_sum_keeps_it_packed():
    # a sum's form moves one way: reads and arithmetic leave a packed sum
    # packed, on its codec, with the same int keys
    g2 = build_root_system("G2")
    terms = {(2, -1): 3, (0, 1): -2, (-4, 3): 1}
    x = _packed_only(g2, terms)
    codec, packed = x._codec, dict(x._terms)
    wide = _packed_only(g2, {(42, 0): 1, (0, 1): 2})
    assert codec.nbytes == 1 and wide._codec.nbytes == 2
    reads = [lambda: dict(x.terms), lambda: x.coefficient((2, -1)), lambda: x.mul_exp((1, -2))]
    for other in (FormalSum(2, {(0, 1): 2, (5, 5): 1}), wide):
        for op in (operator.eq, operator.add, operator.sub):
            reads += [lambda op=op, o=other: op(x, o), lambda op=op, o=other: op(o, x)]
    for read in reads:
        read()
        assert x._codec is codec and x._terms == packed
        assert all(type(k) is int for k in x._terms)
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
    assert _packed_only(g2, x)._codec.nbytes == 1
    for rs, y, nbytes in cases:
        assert _packed_only(rs, y)._codec.nbytes == nbytes
        for op, sign in ((operator.add, 1), (operator.sub, -1)):
            want = {w: x.get(w, 0) + sign * y.get(w, 0) for w in {**x, **y}}
            want = {w: c for w, c in want.items() if c}
            # x +- y, and y +- x, which is sign * (x +- y)
            for out, factor in ((op(_packed_only(g2, x), _packed_only(rs, y)), 1),
                                (op(_packed_only(rs, y), _packed_only(g2, x)), sign)):
                expected = {w: factor * c for w, c in want.items()}
                assert out._codec is None
                assert out == FormalSum(2, expected)
                assert out.to_json_text() == _canonical_json(expected)
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


@pytest.mark.parametrize("name", ["A2", "G2"])
@pytest.mark.parametrize("nbytes", [1, 2, 4, 8, 9])
def test_codec_round_trips_at_every_width(name, nbytes):
    # 1, 2, 4 and 8 bytes decode in bulk through struct, 9 field by field;
    # one weight always decodes field by field
    codec = _codec(build_root_system(name), nbytes)
    edges = (-codec.offset, -1, 0, codec.offset - 1)
    weights = [(a, b) for a in edges for b in edges]
    packed = [codec.pack(w) for w in weights]
    for w, p in zip(weights, packed):
        assert codec.unpack(p) == codec.unpack_all([p])[0] == w
    assert codec.unpack_all(packed) == weights


def test_mul_exp_translates():
    s = FormalSum(2, {(0, 0): 1, (1, 1): 2})
    assert s.mul_exp((2, -1)) == FormalSum(2, {(2, -1): 1, (3, 0): 2})


@given(sums2, sums2, sums2)
def test_add_associative_commutative(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


@given(sums2, sums2, weights2)
def test_mul_exp_distributes(x, y, w):
    assert (x + y).mul_exp(w) == x.mul_exp(w) + y.mul_exp(w)


@given(sums2)
@settings(max_examples=60)
def test_json_roundtrip(s):
    blob = json.dumps(s.to_json_obj())
    back = FormalSum.from_json_obj(json.loads(blob), rank=2)
    assert back == s


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


@st.composite
def ranked_terms(draw):
    rank = draw(st.integers(1, 4))
    weights = st.tuples(*[st.integers(-40, 40)] * rank)
    return rank, draw(st.dictionaries(weights, coefficients, max_size=10))


@given(ranked_terms())
@settings(max_examples=200)
def test_json_text_is_json_dumps(case):
    rank, terms = case
    s = FormalSum(rank, terms)
    text = s.to_json_text()
    assert text == _dumps(s.terms.items())
    assert FormalSum.from_json_obj(json.loads(text), rank=rank) == s
    # `expand` writes its coefficient dict's sorted items the same way
    assert terms_json_text(sorted(terms.items())) == _dumps(terms.items())


def test_json_text_of_the_empty_sum():
    for rank in (1, 4):
        assert FormalSum.zero(rank).to_json_text() == "[]"
    assert terms_json_text([]) == "[]"


@pytest.mark.parametrize(
    "entry",
    [{"w": [1, 0], "c": 1.7}, {"w": [1, 0], "c": True}, {"w": [1, 0], "c": "3"},
     {"w": [0.5, 0], "c": 1}, {"w": [True, 0], "c": 1}, {"w": ["1", 0], "c": 1}],
)
def test_from_json_rejects_non_integers(entry):
    with pytest.raises(TypeError):
        FormalSum.from_json_obj([entry], rank=2)
    with pytest.raises(TypeError):
        FormalSum.from_json_obj([entry])


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
        base.mul_exp((1, -1)),
        FormalSum.from_json_obj(base.to_json_obj()),
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


def test_from_json_needs_rank_when_empty():
    with pytest.raises(ValueError):
        FormalSum.from_json_obj([])
    assert FormalSum.from_json_obj([], rank=3).is_zero()


def test_evaluate_simple(a1, a2):
    s = FormalSum.exp((2,))
    sigma = (0.7,)
    # <2*Lambda1, sigma> with quadratic form 1/2 gives 0.7
    assert evaluate(a1, s, sigma) == pytest.approx(math.exp(0.7))
    ch = FormalSum(2, {(1, 0): 1, (-1, 1): 1, (0, -1): 1})
    # at sigma = 0 every exponential is 1
    assert evaluate(a2, ch, (0.0, 0.0)) == pytest.approx(3.0)


def test_evaluate_rank_checks(a2):
    with pytest.raises(ValueError):
        evaluate(a2, FormalSum.exp((1,)), (0.1, 0.2))
    with pytest.raises(ValueError):
        evaluate(a2, FormalSum.exp((1, 0)), (0.1,))
