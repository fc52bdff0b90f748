"""The value classes: constructors, field-wise equality and hashing, repr
text, refused assignment, and the members each one caches."""

import copy
import pickle

import pytest

from polychar import AlgebraId, FormalSum, PolytopeSum, Root, RootSystem, WeylElement
from polychar import build_root_system, weyl_group
from polychar.polysum import VerificationReport, inversion_sequence
from polychar.weyl import WeylGroupTable

_ROOT_SYSTEM_FIELDS = (
    "id", "cartan", "positive_roots", "coroots", "weyl_vector",
    "cartan_det", "cartan_adjugate", "form_scale", "gram_scaled",
)


def _check_frozen(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        setattr(value, "not_a_field", None)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_algebra_id():
    aid = AlgebraId("A", 2)
    assert aid == AlgebraId(family="A", rank=2) == AlgebraId.parse("a2")
    assert hash(aid) == hash(AlgebraId("A", 2))
    assert aid != AlgebraId("B", 2) and aid != AlgebraId("A", 3)
    assert aid != ("A", 2) and aid != "A2"
    assert repr(aid) == "AlgebraId(family='A', rank=2)"
    assert str(aid) == "A2"
    assert (aid.family, aid.rank) == ("A", 2)
    _check_frozen(aid, "rank")
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        AlgebraId(family="A", rank=True)
    with pytest.raises(TypeError):
        AlgebraId("A")


def test_root():
    root = Root((2, -1), (1, 0))
    assert root == Root(weight_coords=(2, -1), root_coords=(1, 0))
    assert hash(root) == hash(Root((2, -1), (1, 0)))
    assert root != Root((2, -1), (0, 1)) and root != ((2, -1), (1, 0))
    assert repr(root) == "Root(weight_coords=(2, -1), root_coords=(1, 0))"
    assert root.height == 1
    _check_frozen(root, "root_coords")
    # equal roots built apart are one set element
    assert len({root, Root((2, -1), (1, 0)), Root((-1, 2), (0, 1))}) == 2


def test_inversion_sequence_counts_distinct_roots(a2):
    assert len(inversion_sequence(a2, (1, 2, 1))) == 3
    with pytest.raises(AssertionError, match="not a reduced word of w0"):
        inversion_sequence(a2, (1, 2))


def test_root_system(a1, a2):
    fields = [getattr(a1, name) for name in _ROOT_SYSTEM_FIELDS]
    built = RootSystem(*fields)
    named = RootSystem(**dict(zip(_ROOT_SYSTEM_FIELDS, fields)))
    for rs in (built, named):
        assert [getattr(rs, name) for name in _ROOT_SYSTEM_FIELDS] == fields
        assert rs.rank == 1 and rs.name == "A1"
    assert build_root_system("A2") == a2 and hash(build_root_system("a2")) == hash(a2)
    assert a1 != a2 and a2 != build_root_system("A3") and a2 != "A2"
    assert build_root_system("B2") != build_root_system("C2")
    assert repr(a1) == (
        "RootSystem(id=AlgebraId(family='A', rank=1), cartan=((2,),), "
        "positive_roots=(Root(weight_coords=(2,), root_coords=(1,)),), "
        "coroots={(1,): (1,)}, weyl_vector=(1,), cartan_det=2, "
        "cartan_adjugate=((1,),), form_scale=2, gram_scaled=((1,),))"
    )
    _check_frozen(a2, "form_scale")


def test_root_system_caches_its_derived_members():
    rs = RootSystem(*[getattr(build_root_system("B2"), name) for name in _ROOT_SYSTEM_FIELDS])
    assert "simple_roots" not in vars(rs)
    simple = rs.simple_roots
    assert simple is rs.simple_roots and vars(rs)["simple_roots"] is simple
    assert [root.root_coords for root in simple] == [(1, 0), (0, 1)]


def test_one_root_system_per_algebra():
    rs = build_root_system("a2")
    assert rs is build_root_system("A2") is build_root_system(AlgebraId("A", 2))
    assert rs.id == AlgebraId("A", 2)
    # a parse error is raised on every call, never kept
    for _ in range(2):
        with pytest.raises(ValueError, match="cannot parse algebra name"):
            build_root_system("A")


def test_root_system_hash_is_the_object_hash(a2):
    # the caches keyed on a root system hash it in C
    assert type(a2).__hash__ is object.__hash__
    assert hash(a2) == object.__hash__(a2)


def test_weyl_element():
    args = ((-1,), (1,), -1, ((-1,),))
    el = WeylElement(*args)
    assert el == WeylElement(fingerprint=(-1,), word=(1,), sign=-1, matrix=((-1,),))
    assert hash(el) == hash(WeylElement(*args))
    assert el != WeylElement((1,), (), 1, ((1,),)) and el != args
    assert repr(el) == "WeylElement(fingerprint=(-1,), word=(1,), sign=-1, matrix=((-1,),))"
    assert el.apply((3,)) == (-3,)
    _check_frozen(el, "sign")


def test_weyl_group_table(a1, a2):
    table = weyl_group(a1)
    fields = (table.elements, table.positive_roots)
    copy_ = WeylGroupTable(*fields)
    assert copy_ == table and hash(copy_) == hash(table)
    assert WeylGroupTable(elements=fields[0], positive_roots=fields[1]) == table
    assert table != weyl_group(a2) and table != fields
    assert repr(table) == (
        "WeylGroupTable(elements=(WeylElement(fingerprint=(1,), word=(), sign=1, "
        "matrix=((1,),)), WeylElement(fingerprint=(-1,), word=(1,), sign=-1, "
        "matrix=((-1,),))), positive_roots=((2,),))"
    )
    assert len(table.elements) == 2 and table.longest is table.elements[1]
    _check_frozen(table, "elements")


def test_weyl_group_table_caches_its_root_permutation(a2):
    # a table of its own: weyl_group's cached one may have built it already
    shared = weyl_group(a2)
    table = WeylGroupTable(shared.elements, shared.positive_roots)
    assert "root_permutation" not in vars(table)
    perm = table.root_permutation
    assert perm is table.root_permutation and vars(table)["root_permutation"] is perm
    assert perm[0] == (1, 2, 3)


def test_polytope_sum():
    s = FormalSum(1, {(1,): 1, (-1,): 1})
    value = PolytopeSum(s, frozenset({(1,)}))
    same = PolytopeSum(sum=FormalSum(1, {(-1,): 1, (1,): 1}), vertex_set=frozenset({(1,)}))
    assert value == same
    assert value != PolytopeSum(s, frozenset({(1,), (-1,)}))
    assert value != (s, frozenset({(1,)}))
    assert repr(value) == (
        "PolytopeSum(sum=FormalSum(rank=1, {(-1,): 1, (1,): 1}), vertex_set=frozenset({(1,)}))"
    )
    with pytest.raises(TypeError):
        hash(value)  # a FormalSum is unhashable
    _check_frozen(value, "sum")


def test_verification_report():
    args = ("A2-operator", "A2", (1, 0), True, FormalSum.zero(2), 3)
    report = VerificationReport(*args)
    assert report == VerificationReport(
        formula="A2-operator", algebra="A2", lam=(1, 0), match=True,
        diff=FormalSum.zero(2), n_points=3,
    )
    assert report != VerificationReport(*args[:-1], 4) and report != args
    assert repr(report) == (
        "VerificationReport(formula='A2-operator', algebra='A2', lam=(1, 0), match=True, "
        "diff=FormalSum(rank=2, {}), n_points=3)"
    )
    with pytest.raises(TypeError):
        hash(report)
    _check_frozen(report, "match")


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda v: pickle.loads(pickle.dumps(v))])
def test_values_copy_and_pickle(a2, copier):
    values = (
        AlgebraId("B", 3), a2.positive_roots[2], weyl_group(a2).elements[3], weyl_group(a2),
        PolytopeSum(FormalSum.exp((1, 0)), frozenset({(1, 0)})),
        VerificationReport("f", "A2", (1, 0), True, FormalSum.zero(2), 1),
    )
    for value in values:
        out = copier(value)
        assert out == value and type(out) is type(value)
    assert copier(a2) == a2
