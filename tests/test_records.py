"""Value semantics of the package's records: the immutable ones compare
and hash by their fields and refuse assignment, the mutable certificate
gets fresh containers, and constructors keep their validation messages."""

import pytest

from tropnorm.border import BorderedBlocks, BorderVector
from tropnorm.core import DimensionMismatch, NormalMatrix, identity
from tropnorm.families import Atom, FamilySpec, MmVariant, family, mm_pair
from tropnorm.ortho import IndicatorReport, RowType, ZeroClass, indicator
from tropnorm.search import ThetaCertificate

_A, _B = mm_pair(MmVariant(1, 2, 0), 4)

# per record: a builder of one value, a builder of another value, and the
# fields that == and hash go over, in order
RECORDS = {
    "NormalMatrix": (
        lambda: NormalMatrix(2, (1, 2)), lambda: NormalMatrix(2, (3, 2)), ("n", "rows")),
    "ZeroClass": (
        lambda: ZeroClass("cost", cost_witnesses=frozenset({2})), lambda: ZeroClass("gift"),
        ("tag", "cost_witnesses", "gift_witnesses")),
    "IndicatorReport": (
        lambda: indicator(_A, _B), lambda: indicator(_B, _A),
        ("a", "b", "left", "right", "indicator", "prop_rows", "cost_rows", "gift_rows",
         "prop_count", "cost_count", "gift_count", "duplicate_count")),
    "RowType": (
        lambda: RowType("cost", k=1), lambda: RowType("gift", k=1, m=2), ("kind", "k", "m")),
    "Atom": (lambda: Atom("V", 1, 2), lambda: Atom("W", 1, 2), ("kind", "p", "q")),
    "FamilySpec": (
        lambda: FamilySpec(3, (Atom("V", 1, 2),)), lambda: FamilySpec(3, (Atom("Z", 1, 2),)),
        ("n", "atoms")),
    "MmVariant": (lambda: MmVariant(1, 2, 0), lambda: MmVariant(2, 1, 0), ("k", "m", "variant")),
    "BorderVector": (
        lambda: BorderVector(3, {1, 3}), lambda: BorderVector(3, {1}), ("n", "zeros")),
    "BorderedBlocks": (
        lambda: BorderedBlocks(identity(2), BorderVector(2, {1}), BorderVector(2, ())),
        lambda: BorderedBlocks(identity(2), BorderVector(2, ()), BorderVector(2, {1})),
        ("b", "v", "w")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_equal_records(name):
    make, other, fields = RECORDS[name]
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    # the hash of the field tuple, so sets of records iterate in the same order
    assert hash(x) == hash(tuple(getattr(x, f) for f in fields))
    assert x != other() and other() != x
    assert len({x, y, other()}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_other_classes_and_tuples_differ(name):
    make, _, fields = RECORDS[name]
    x = make()
    assert x != tuple(getattr(x, f) for f in fields)
    for other_name, (other, _, _) in RECORDS.items():
        if other_name != name:
            assert x != other()


def test_same_values_in_another_record_class_differ():
    assert Atom("V", 1, 2) != RowType("V", 1, 2)
    assert MmVariant(1, 2, 0) != Atom(1, 2, 0)
    assert NormalMatrix(2, (1, 2)) != FamilySpec(2, (1, 2))
    assert NormalMatrix(2, (1, 2)) != (2, (1, 2))


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, _, fields = RECORDS[name]
    x = make()
    for f in fields:
        value = getattr(x, f)
        with pytest.raises(AttributeError):
            setattr(x, f, value)
        with pytest.raises(AttributeError):
            delattr(x, f)
        assert getattr(x, f) is value
    with pytest.raises(AttributeError):
        x.extra = 1


def test_indicator_report_ignores_column_masks():
    r = indicator(_A, _B)
    other = IndicatorReport(
        r.a, r.b, r.left, r.right, r.indicator, r.prop_rows, r.cost_rows, r.gift_rows,
        acols=(0,) * 4, bcols=(0,) * 4, prop_count=r.prop_count, cost_count=r.cost_count,
        gift_count=r.gift_count, duplicate_count=r.duplicate_count,
    )
    assert other == r and hash(other) == hash(r)
    with pytest.raises(AttributeError):
        r.acols = other.acols
    # the cached classification lives on the instance and is built once
    assert r.classes is r.classes


def test_records_keep_a_tuple_of_the_callers_list():
    rows = [1, 2]
    a = NormalMatrix(2, rows)
    assert a == identity(2) and hash(a) == hash(identity(2))
    assert a.rows == (1, 2)
    rows[0] = 3  # the caller's list no longer reaches the built matrix
    assert a.rows == (1, 2)
    with pytest.raises(TypeError):
        a.rows[0] = 3
    atoms = [Atom("V", 1, 2)]
    spec = FamilySpec(3, atoms)
    assert spec == family(3, ("V", 1, 2)) and hash(spec) == hash(family(3, ("V", 1, 2)))
    atoms.append(Atom("Z", 1, 2))
    assert spec.atoms == (Atom("V", 1, 2),)
    # a tuple is kept as it is
    same = (1, 2)
    assert NormalMatrix(2, same).rows is same


def test_normal_matrix_has_no_instance_dict():
    assert not hasattr(NormalMatrix(2, (1, 2)), "__dict__")


def test_normal_matrix_repr():
    assert repr(NormalMatrix(2, (1, 2))) == "NormalMatrix(n=2, rows=(1, 2))"


def test_theta_certificate_fresh_containers():
    c1 = ThetaCertificate(3, "pair", 4, "exhaustive")
    c2 = ThetaCertificate(n=3, kind="pair", value=4, completeness="exhaustive")
    c1.witnesses.append((_A, _B))
    c1.search_stats["nodes"] = 1
    assert c2.witnesses == [] and c2.search_stats == {}
    assert (c2.budget, c2.total_witnesses, c2.notes) == (None, 0, "")


@pytest.mark.parametrize(
    "build, exc, message",
    [
        (lambda: NormalMatrix(2, (1,)), ValueError, "row count does not match order"),
        (lambda: NormalMatrix(2, (1, 6)), ValueError, "row 2 has bits outside [1..n]"),
        (lambda: NormalMatrix(2, (1, 1)), ValueError, "diagonal entry (2,2) must be zero"),
        (lambda: MmVariant(1, 2, 7), ValueError, "variant must be in 0..3, got 7"),
        (lambda: BorderVector(0, ()), ValueError, "vector length must be positive"),
        (lambda: BorderVector(2, {3}), ValueError, "zero position 3 out of range 1..2"),
        (lambda: BorderedBlocks(identity(2), BorderVector(3, ()), BorderVector(2, ())),
         DimensionMismatch, "border vectors must match the block order"),
        (lambda: BorderedBlocks(identity(2), BorderVector(2, ()), BorderVector(1, ())),
         DimensionMismatch, "border vectors must match the block order"),
    ],
    ids=["row-count", "row-bits", "diagonal", "variant", "length", "position", "v-order",
         "w-order"],
)
def test_validation_messages(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert str(info.value) == message
