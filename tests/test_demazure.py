"""Demazure operators: string values, braid relations, both character
formulas.  The point-by-point string formula below is kept as the
reference that certifies the running-sum cores, and the sum over the
Weyl group (`character_demazure_sum`) as a reference for ``char``."""

from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychar import (
    FormalSum,
    PolytopeSizeError,
    Root,
    apply_D_root,
    apply_D_simple,
    apply_d_root,
    apply_d_simple,
    apply_r_simple,
    apply_word,
    build_root_system,
    character_demazure,
    character_freudenthal,
    dominant_representative,
    dominant_weights_below,
    orbit_size,
    polytope_expansion,
    polytope_sum_demazure,
    polytope_sum_oracle,
    weyl_group,
)
from polychar import polysum
from polychar.demazure import _demazure, _reflect, apply_r_root
from polychar.formal import _codec_for
from polychar.rootsys import check_weight


def character_demazure_sum(rs, weight) -> FormalSum:
    """Character as the sum over the whole Weyl group of the d-flavored word
    operators applied to e^weight (the identity term included).

    Each element's value is derived from its parent's in the BFS word tree:
    the reduced word of a child extends its parent's on the left, so one
    more d operator finishes the job.  The memo starts from e^weight
    packed, so every value shares its codec and the sum adds packed.
    """
    lam = check_weight(rs, weight, dominant=True)
    group = weyl_group(rs)
    memo = {(): FormalSum._of(rs.rank, *FormalSum.exp(lam)._packed_for(rs))}
    for el in group[1:]:  # group[0] is the identity
        word = el.word
        memo[word] = apply_d_simple(rs, word[0], memo[word[1:]])
    return reduce(FormalSum.add, memo.values())


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
    """The largest |mu|_1 whose codec bound, c_max * |mu|_1 plus a positive
    root's largest label, one-byte fields hold."""
    root_label = max(max(map(abs, root.weight_coords)) for root in rs.positive_roots)
    return (127 - root_label) // max(map(max, rs.coroots.values()))


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


def _far(rs, root, terms, big):
    """``terms`` moved by ``big`` times a vector on root's hyperplane, so
    its strings keep their lengths and the sum gets wide fields."""
    labels = rs.coroot_labels(root)
    i = next(k for k, cv in enumerate(labels) if cv)
    j = next(k for k in range(rs.rank) if k != i)
    v = [0] * rs.rank
    v[i], v[j] = labels[j], -labels[i]  # <v, root^vee> = 0
    return {tuple(x + big * a for x, a in zip(w, v)): c for w, c in terms.items()}


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
        far = FormalSum(rs.rank, _far(rs, root, terms, big))
        assert far._packed_for(rs)[1].nbytes > 8
        _assert_cores_match(rs, root, far)


def _string_edges(rs, root):
    """Sums that meet each edge of the string fill on one root's strings,
    by name: a table of one entry that cancels or holds one term, a running
    total that returns to 0 partway down or that grows down to radius 0 or
    1, and n = -1 terms, which write nothing."""
    labels = rs.coroot_labels(root)

    def at(n):  # the weight nearest 0 of pairing n with the coroot
        box = product(range(-8, 9), repeat=rs.rank)
        return min((mu for mu in box if sum(map(int.__mul__, labels, mu)) == n),
                   key=lambda mu: (sum(map(abs, mu)), mu))

    def down(mu, k):  # mu - k beta
        return tuple(x - k * a for x, a in zip(mu, root.weight_coords))

    return {
        # e^{s_beta mu - beta} = e^{mu - (n+1) beta}: D gives 0
        "one entry cancels": {at(3): 1, down(at(3), 4): 1},
        "total returns to 0, even": {at(6): 1, down(at(6), 2): -1},
        "total returns to 0, odd": {at(5): 1, down(at(5), 2): -1},
        "total grows to radius 0": {at(2): 1, down(at(2), 1): 2},
        "total grows to radius 1": {at(3): -1, down(at(3), 1): 3},
        "one term at n = 0": {at(0): 2},
        "one term at n = 1": {at(1): -3},
        "n = -1 alone": {at(-1): 1},
        "n = -1 beside a term": {at(-1): 1, down(at(-1), -2): 2},
    }


@pytest.mark.parametrize("name,big", [("A1", 0), ("G2", 0), ("G2", 2**63)],
                         ids=["A1", "G2", "G2-9-byte"])
def test_string_fill_edges_match_reference(name, big):
    rs = build_root_system(name)
    for root in rs.positive_roots:
        for case, terms in _string_edges(rs, root).items():
            s = FormalSum(rs.rank, _far(rs, root, terms, big) if big else terms)
            assert s._packed_for(rs)[1].nbytes == (9 if big else 1), case
            _assert_cores_match(rs, root, s)
            if case in ("one entry cancels", "n = -1 alone"):
                assert _demazure(rs, root, s, True).is_zero(), case


@pytest.mark.parametrize("name", ("A1", "A2", "B2", "G2", "A3"))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cores_match_reference_on_dense_sums(name, data):
    # up to 30 terms in a small box: most strings carry several entries
    rs = build_root_system(name)
    weights = st.tuples(*[st.integers(-2, 2)] * rs.rank)
    terms = data.draw(st.dictionaries(weights, st.integers(-2, 2).filter(bool), max_size=30))
    s = FormalSum(rs.rank, terms)
    for root in rs.positive_roots:
        _assert_cores_match(rs, root, s)


def test_sum_packed_for_one_algebra_is_repacked_for_another(a2, g2):
    # A2's codec holds |mu|_1 <= 127 in one byte, but G2's hull of the
    # same support reaches labels of 300
    s = apply_D_simple(a2, 1, FormalSum.exp((100, 0)))
    assert s._codec.rs is a2 and s._codec.nbytes == 1
    for root in g2.positive_roots:
        _assert_cores_match(g2, root, s)


def test_operators_leave_their_input_as_it_was(a2, g2, monkeypatch):
    # a sum's form is fixed when it is built: an operator reads a packed copy
    # of a tuple input, and a sum packed for A2 keeps its codec under G2's
    theta = a2.root((1, 1))
    calls = (
        lambda s: apply_D_simple(a2, 1, s), lambda s: apply_d_simple(a2, 2, s),
        lambda s: apply_r_simple(a2, 1, s), lambda s: apply_D_root(a2, theta, s),
        lambda s: apply_d_root(a2, theta, s), lambda s: apply_r_root(a2, theta, s),
        lambda s: apply_word(a2, (1, 2, 1), s), lambda s: apply_word(a2, (2, 1), s, "d"),
        lambda s: polysum._edge_bracket(a2, [(root, None) for root in polysum._formula(a2)[1]], s),
    )
    for call in calls:
        s = FormalSum(2, {(2, -1): 3, (0, 1): -2})
        own = s._terms
        out = call(s)
        assert s._codec is None and s._terms is own
        assert out._codec is _codec_for(a2, own)
    # character_demazure and the sum route read e^lam and leave it a tuple
    # sum; their values share e^lam's codec, so the sum route adds packed
    built = []
    exp = FormalSum.exp.__func__

    def recording_exp(cls, weight):
        s = exp(cls, weight)
        built.append((s, s._terms))
        return s

    monkeypatch.setattr(FormalSum, "exp", classmethod(recording_exp))
    for route in (character_demazure, character_demazure_sum):
        built.clear()
        out = route(a2, (2, 1))
        assert out == character_freudenthal(a2, (2, 1))
        assert out._codec is _codec_for(a2, ((2, 1),))
        [(lam, own)] = built
        assert lam._codec is None and lam._terms is own
    monkeypatch.undo()
    s = apply_D_simple(a2, 1, FormalSum.exp((100, 0)))
    codec, own = s._codec, s._terms
    for root in g2.positive_roots:
        for out in (apply_D_root(g2, root, s), apply_d_root(g2, root, s),
                    apply_r_root(g2, root, s)):
            assert out._codec.rs is g2
            assert s._codec is codec and s._terms is own
    assert codec.rs is a2


def test_operators_check_their_input(a2):
    for op in (lambda s: apply_D_simple(a2, 1, s), lambda s: apply_r_root(a2, a2.root((1, 1)), s),
               lambda s: apply_word(a2, (), s)):
        with pytest.raises(TypeError, match="expected a FormalSum, got dict"):
            op({(1, 0): 1})
        with pytest.raises(ValueError, match="sum has rank 1, algebra A2 has rank 2"):
            op(FormalSum.exp((1,)))


@pytest.mark.parametrize("name", ("A2", "G2"))
def test_operators_refuse_foreign_roots_with_a_warm_table(name):
    # the operators read a root's step and pairing from the codec's root
    # table, keyed by simple-root coordinates; RootSystem.coroot_labels is
    # still the root check, before and after a valid call built the table
    from polychar import formal

    rs, b2 = build_root_system(name), build_root_system("B2")
    ops = (apply_d_root, apply_D_root, apply_r_root)
    top = rs.positive_roots[-1]
    foreign = [Root(tuple(x + 1 for x in root.weight_coords), root.root_coords)
               for root in rs.positive_roots]
    # B2's alpha_2, (-1, 2) over (0, 1), is A2's and G2's alpha_2 too
    foreign += [root for root in b2.positive_roots if root not in rs.positive_roots]
    assert len(foreign) == len(rs.positive_roots) + 3
    s = FormalSum.exp((2, 1))
    formal._codec.cache_clear()
    for warm in (False, True):
        codec = _codec_for(rs, s.terms)
        for root in foreign:
            for op in ops:
                with pytest.raises(ValueError, match="positive root|inconsistent root data"):
                    op(rs, root, s)
        assert _codec_for(rs, s.terms) is codec
        if not warm:
            for op in ops:
                assert op(rs, top, s)._codec is codec


def _reference_bracket(rs, bracket, s):
    total = staged = s
    for root, translate in bracket:
        term = _reference_demazure(rs, root, staged, False)
        if translate is not None:
            shift = translate.weight_coords
            term = term + FormalSum(
                rs.rank, {tuple(a + b for a, b in zip(w, shift)): c for w, c in term.terms.items()}
            )
        total = total + term
        staged = _reference_reflect(rs, root, staged)
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
    out = expected = s
    for bracket in polysum._formula(rs)[2]:
        out = polysum._edge_bracket(rs, bracket, out)
        expected = _reference_bracket(rs, bracket, expected)
        assert out == expected
        _assert_well_formed(rs, out)


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
    lam = data.draw(st.tuples(*[st.integers(0, 2)] * rs.rank))
    root = rs.simple_root(1)
    x, y = FormalSum(rs.rank, x_terms), FormalSum(rs.rank, y_terms)
    got = {
        "D x": apply_D_simple(rs, 1, x),
        "d x": apply_d_simple(rs, 1, x),
        "r y": apply_r_simple(rs, 1, y),
        "bsum": polysum.polytope_sum_demazure(rs, lam),
    }
    # an operator leaves its input as it was, and its outputs are packed by
    # the codec derived from the input's terms
    assert _form(x) == _form(y) == "tuples"
    x_codec, y_codec = _codec_for(rs, x.terms), _codec_for(rs, y.terms)
    assert got["D x"]._codec is got["d x"]._codec is x_codec
    assert got["r y"]._codec is y_codec
    got["D x + d x"] = got["D x"] + got["d x"]
    assert got["D x + d x"]._codec is x_codec
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
    # neither an operator nor a read changes a sum's form: the inputs and
    # the references stay tuples, and the oracle's stays packed on e^lam's
    # codec
    oracle = ref.pop("bsum")
    assert {_form(s) for s in [x, y, ref_x, ref_y, *ref.values()]} == {"tuples"}
    assert _form(oracle) == "packed"
    assert oracle._codec is _codec_for(rs, (lam,))


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
    assert ch.terms.get((0, 0), 0) == 2
    assert ch.terms.get((1, 1), 0) == 1
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
    assert len(weyl_group(b2)[-1].word) == 4


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3"])
def test_w0_word_from_dominant_representative_is_the_tables(name):
    # character_demazure reads its word off the walk from -lam to its
    # dominant image; at a regular lam it is w0's, and up to rank 3 it is
    # the word the Weyl table stores for w0, so at regular weights the
    # operators run in the same order as when the table supplied it
    rs = build_root_system(name)
    w0_word = weyl_group(rs)[-1].word
    for lam in product(range(1, 4), repeat=rs.rank):
        assert dominant_representative(rs, tuple(-x for x in lam))[1] == w0_word, lam


def _w0_route(rs, lam):
    """D_{w0} e^lam through the whole of w0's word, read off the walk from
    -rho to rho (only w0 maps -rho to rho)."""
    w0_word = dominant_representative(rs, tuple(-x for x in rs.weyl_vector))[1]
    return apply_word(rs, w0_word, FormalSum.exp(lam), "D")


# the grids the coset word is checked on: every label up to 2 at ranks 2-3,
# up to 1 at ranks 4-5 (B5's and C5's grids take 2 s each, so rank 5 is A5
# and D5)
_COSET_GRIDS = [(name, 2) for name in ("A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3")] + [
    (name, 1) for name in ("A4", "B4", "C4", "D4", "A5", "D5")]


@pytest.mark.parametrize("name,top", _COSET_GRIDS, ids=[name for name, _top in _COSET_GRIDS])
def test_character_applies_only_the_coset_word(name, top):
    # D_{w0} = D_u D_{w0,lam}, with u the shortest element taking lam to
    # w0 lam, and D_{w0,lam} fixes e^lam: so u's word alone gives w0's
    # character, with fewer letters than w0's word unless it is w0's (at a
    # regular lam, where the two routes are one computation)
    rs = build_root_system(name)
    w0_word = dominant_representative(rs, tuple(-x for x in rs.weyl_vector))[1]
    for lam in product(range(top + 1), repeat=rs.rank):
        word = dominant_representative(rs, tuple(-x for x in lam))[1]
        if word == w0_word:
            assert all(lam), lam
            continue
        assert len(word) < len(w0_word)
        assert character_demazure(rs, lam) == _w0_route(rs, lam), lam


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D4"])
def test_character_rank_4_matches_freudenthal(name):
    # past the Weyl table's rank cap: the operator route needs no table
    rs = build_root_system(name)
    for lam in product(range(2), repeat=4):
        assert character_demazure(rs, lam) == character_freudenthal(rs, lam)


def test_character_rank_8_fundamental_matches_freudenthal():
    rs = build_root_system("D8")
    omega1 = (1,) + (0,) * 7
    ch = character_demazure(rs, omega1)
    assert ch == character_freudenthal(rs, omega1)
    assert len(ch) == 16  # the vector representation's weights, +-e_i


# every algebra the sweep below draws: A-D at ranks 1-8, plus G2
_SWEEP_ALGEBRAS = tuple(
    f"{family}{rank}" for family, first in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for rank in range(first, 9)
) + ("G2",)
# the largest polytope, in lattice points, the sweep takes a weight of
_SWEEP_POINT_BUDGET = 1000


def _fits_budget(rs, lam):
    try:
        points = sum(orbit_size(rs, mu) for mu in dominant_weights_below(rs, lam))
    except PolytopeSizeError:
        return False
    return points <= _SWEEP_POINT_BUDGET


def _draw_under_budget(rs, data, top):
    """A weight drawn with labels 0..top that loses one from its largest
    label (the last of equals) until its polytope fits the point budget,
    so every draw is used."""
    lam = list(data.draw(st.tuples(*[st.integers(0, top)] * rs.rank)))
    while not _fits_budget(rs, lam):
        largest = max(lam)
        lam[max(k for k, x in enumerate(lam) if x == largest)] -= 1
    return tuple(lam)


def _first_difference(left, right):
    """The first weight, in canonical order, where two sums differ, and
    the two coefficients there."""
    diff = (left - right).terms
    weight = min(diff)
    return weight, left.terms.get(weight, 0), right.terms.get(weight, 0)


@pytest.mark.parametrize("name", _SWEEP_ALGEBRAS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_char_is_freudenthal_and_weyl_invariant_at_every_rank(name, data):
    rs = build_root_system(name)
    lam = _draw_under_budget(rs, data, 3)
    ch = character_demazure(rs, lam)
    freudenthal = character_freudenthal(rs, lam)
    assert ch == freudenthal, (
        "char equals character_freudenthal fails on {} {}: at weight {}, "
        "operators {} against Freudenthal {}".format(
            name, lam, *_first_difference(ch, freudenthal))
    )
    for i in range(1, rs.rank + 1):
        reflected = apply_r_simple(rs, i, ch)
        assert reflected == ch, (
            "s_{} fixes char fails on {} {}: at weight {}, reflected {} "
            "against char {}".format(i, name, lam, *_first_difference(reflected, ch))
        )


@pytest.mark.parametrize("name", _SWEEP_ALGEBRAS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_polytope_expansion_rebuilds_char_at_every_rank(name, data):
    # the peel, the oracle and the operators meet past rank 3
    rs = build_root_system(name)
    lam = _draw_under_budget(rs, data, 3)
    coeffs = polytope_expansion(rs, lam)
    assert coeffs.get(lam) == 1, (
        "the expansion's coefficient at lam is 1 fails on {} {}: at weight {}, "
        "expansion {} against 1".format(name, lam, lam, coeffs.get(lam, 0))
    )
    total = FormalSum(rs.rank)
    for mu, c in coeffs.items():
        total = total + polytope_sum_oracle(rs, mu).sum.scale(c)
    ch = character_demazure(rs, lam)
    assert total == ch, (
        "the sum of c_mu B_mu equals char fails on {} {}: at weight {}, "
        "expansion {} against char {}".format(name, lam, *_first_difference(total, ch))
    )


@pytest.mark.parametrize("name,top", [("A1", 12), ("A2", 12), ("B2", 12), ("G2", 12), ("A3", 4)],
                         ids=["A1", "A2", "B2", "G2", "A3"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_polytope_formula_equals_oracle_drawn(name, top, data):
    rs = build_root_system(name)
    lam = _draw_under_budget(rs, data, top)
    formula = polytope_sum_demazure(rs, lam)
    oracle = polytope_sum_oracle(rs, lam).sum
    assert formula == oracle, (
        "the polytope formula equals the oracle fails on {} {}: at weight {}, "
        "formula {} against oracle {}".format(name, lam, *_first_difference(formula, oracle))
    )


def test_character_requires_dominant(a2):
    with pytest.raises(ValueError):
        character_demazure(a2, (-1, 0))
    with pytest.raises(ValueError):
        character_freudenthal(a2, (0, -2))
