import random

import pytest

from conftest import rand_normal
from tropnorm import fixtures
from tropnorm.core import (
    NormalMatrix,
    all_normal_matrices,
    all_zero,
    identity,
    make_elementary,
    mat_odot,
    mat_oplus,
    naive_odot,
    nu,
)
from tropnorm.ortho import (
    TAG_COST,
    TAG_GIFT,
    TAG_NONZERO,
    TAG_PROPAGATION,
    indicator,
    is_orthogonal,
    majority_zero_pair,
    orth_set,
    residue_pair,
    row_majority_counterexample,
    row_type,
)


def test_orthogonality_basics():
    for n in (2, 3, 4):
        z, i = all_zero(n), identity(n)
        assert is_orthogonal(z, i)
        assert is_orthogonal(z, z)
        assert not is_orthogonal(i, i)


def test_orthogonal_iff_indicator_zero():
    rng = random.Random(10)
    for _ in range(500):
        n = rng.randint(2, 6)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        rep = indicator(a, b)
        assert is_orthogonal(a, b) == (rep.indicator == all_zero(n))
        # is_orthogonal and indicator share the row-union kernel; the
        # triple-loop product is independent of it
        assert is_orthogonal(a, b) == (
            naive_odot(a, b) == all_zero(n) == naive_odot(b, a)
        )
        assert rep.left == mat_odot(a, b)
        assert rep.right == mat_odot(b, a)


def test_n2_pair():
    u12 = make_elementary("U", 2, 1, 2)
    u21 = make_elementary("U", 2, 2, 1)
    assert is_orthogonal(u12, u21)
    assert not is_orthogonal(u12, u12)


def test_indicator_classification_counts():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 6)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        rep = indicator(a, b)
        tags = [c.tag for c in rep.classes.values()]
        assert rep.prop_count == tags.count(TAG_PROPAGATION)
        assert rep.cost_count == tags.count(TAG_COST)
        assert rep.gift_count == tags.count(TAG_GIFT)
        offdiag_zeros = nu(rep.indicator) - n
        assert rep.prop_count + rep.cost_count + rep.gift_count == offdiag_zeros


def test_propagation_has_precedence():
    # a zero of A at (s,t) is always classified as propagation
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(2, 6)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        rep = indicator(a, b)
        for (s, t), cls in rep.classes.items():
            if a.entry(s, t) == 0 or b.entry(s, t) == 0:
                assert cls.tag == TAG_PROPAGATION


def test_cost_witnesses_complete():
    # cost zero at (s,t): all middle indices satisfying the four-zero pattern
    a = NormalMatrix.from_zeros(4, [(1, 3), (3, 2)])
    rep = indicator(a, a)
    cls = rep.classes[(1, 2)]
    assert cls.tag == TAG_COST
    assert cls.cost_witnesses == frozenset({3})


def test_gift_witnesses_complete():
    a6, b6 = fixtures.minimal_pair_outside_family(6)
    rep = indicator(a6, b6)
    assert rep.classes[(1, 2)].gift_witnesses == frozenset({(4, 5)})
    assert rep.classes[(1, 3)].gift_witnesses == frozenset({(4, 6)})


def test_gift_zeros_absent_for_equal_and_small():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 5)
        a = rand_normal(rng, n)
        assert indicator(a, a).gift_count == 0
    for _ in range(300):
        n = rng.randint(2, 3)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        assert indicator(a, b).gift_count == 0


def test_duplicates():
    a = NormalMatrix.from_zeros(3, [(1, 2), (2, 1)])
    b = NormalMatrix.from_zeros(3, [(1, 2), (3, 1)])
    assert indicator(a, b).duplicate_count == 1
    # zero by convention when the matrices coincide
    assert indicator(a, a).duplicate_count == 0


def test_row_type_cost_and_gift():
    # the circulant is its own pair: each row is a cost row
    c = fixtures.circulant_3()
    rep = indicator(c, c)
    kinds = {row_type(rep, i).kind for i in range(1, 4)}
    assert kinds == {"cost"}
    # generic minimal pair rows away from k, m are gift rows
    a, b = fixtures.mm43_pair_n6(0)
    rep = indicator(a, b)
    rt = row_type(rep, 1)
    assert rt.kind == "gift"
    assert (rt.k, rt.m) == (4, 3)
    # the stored outsider rows carry two distinct gift witnesses, so they
    # have no single (k, m) label
    a6, b6 = fixtures.minimal_pair_outside_family(6)
    rep6 = indicator(a6, b6)
    assert row_type(rep6, 1).kind == "other"


def test_orth_set_elementary():
    e12 = make_elementary("E", 3, 1, 2)
    assert len(orth_set(e12)) == 40
    z = all_zero(3)
    assert len(orth_set(z)) == 64


def test_orth_set_guard_and_candidates():
    with pytest.raises(ValueError):
        orth_set(identity(6))
    # explicit candidates bypass the guard
    z6 = all_zero(6)
    assert orth_set(z6, candidates=[identity(6)]) == {identity(6)}


def test_majority_zero_pairs_are_orthogonal():
    rng = random.Random(14)
    seen = 0
    mats = list(all_normal_matrices(3))
    for a in mats:
        for b in mats:
            if majority_zero_pair(a, b):
                seen += 1
                assert is_orthogonal(a, b)
    assert seen > 0
    for _ in range(2000):
        n = rng.randint(2, 6)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        if majority_zero_pair(a, b):
            assert is_orthogonal(a, b)


def test_row_majority_alone_insufficient():
    for n in (3, 4, 5):
        a = row_majority_counterexample(n)
        for i in range(1, n + 1):
            assert a.row_mask(i).bit_count() > n / 2
        assert not is_orthogonal(a, a)


def test_residue_pair_orthogonal():
    for n in (4, 6, 7, 8, 9, 10):
        a, b = residue_pair(n)
        assert is_orthogonal(a, b)
    # the documented n = 5 exception: column 5 of A is zero only in odd rows
    a, b = residue_pair(5)
    assert not is_orthogonal(a, b)
    with pytest.raises(ValueError, match="residue pair needs n >= 4, got 3"):
        residue_pair(3)


def _zero_cells(n, zero):
    """The matrix whose zeros are the cells (i, j) with zero(i, j)."""
    cells = range(1, n + 1)
    return NormalMatrix.from_zeros(n, [(i, j) for i in cells for j in cells if zero(i, j)])


def test_residue_and_row_majority_match_zero_positions():
    for n in range(4, 14):
        assert residue_pair(n) == (
            _zero_cells(n, lambda i, j: i == j or (i + j) % 3 == 2),
            _zero_cells(n, lambda i, j: (i + j) % 2 == 0),
        )
    for n in range(1, 14):
        want = _zero_cells(n, lambda i, j: j != n or i == n)
        assert row_majority_counterexample(n) == want
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"order must be >= 1, got {n}"):
            row_majority_counterexample(n)


def test_oplus_zero_implies_orthogonal():
    rng = random.Random(15)
    for _ in range(500):
        n = rng.randint(2, 6)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        if mat_oplus(a, b) == all_zero(n):
            assert is_orthogonal(a, b)
