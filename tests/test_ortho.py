import random

import pytest

from conftest import rand_normal
import fixtures
from tropnorm.core import (
    NormalMatrix,
    _cols,
    all_normal_matrices,
    all_zero,
    identity,
    make_elementary,
    mat_odot,
    mat_oplus,
    naive_odot,
    nu,
)
from tropnorm.families import MmVariant, mm_pair
from tropnorm.ortho import (
    TAG_COST,
    TAG_GIFT,
    TAG_NONZERO,
    TAG_PROPAGATION,
    RowType,
    ZeroClass,
    indicator,
    is_orthogonal,
    orth_set,
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


def _oracle_classify(a, b):
    """The class of every off-diagonal cell from the definitions on the
    0 / -1 entries, 1-based: (tag, cost witnesses, gift witnesses).  A zero
    of the indicator is propagation under a zero of A or B; else cost when
    some k outside {s, t} has a_sk = b_kt = b_sk = a_kt = 0; else gift when
    some (k, m) with s, t, k, m distinct has a_sk = b_kt = b_sm = a_mt = 0."""
    n = a.n
    x = [[a.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    y = [[b.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]

    def product_zero(p, q, s, t):
        return any(p[s][k] == 0 and q[k][t] == 0 for k in range(n))

    cells = {}
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            cost, gift = frozenset(), frozenset()
            if not (product_zero(x, y, s, t) and product_zero(y, x, s, t)):
                tag = TAG_NONZERO
            elif x[s][t] == 0 or y[s][t] == 0:
                tag = TAG_PROPAGATION
            else:
                cost = frozenset(
                    k + 1 for k in range(n)
                    if k not in (s, t) and x[s][k] == y[k][t] == y[s][k] == x[k][t] == 0
                )
                if not cost:
                    gift = frozenset(
                        (k + 1, m + 1) for k in range(n) for m in range(n)
                        if len({s, t, k, m}) == 4
                        and x[s][k] == y[k][t] == y[s][m] == x[m][t] == 0
                    )
                tag = TAG_COST if cost else TAG_GIFT if gift else "unclassified"
            cells[(s + 1, t + 1)] = (tag, cost, gift)
    return cells


def _oracle_row_types(a, b, cells):
    """Row types from the cell classes: a cost row has n-2 cost zeros, one
    propagation zero and a witness common to its cost zeros; a gift row has
    n-3 gift zeros, two propagation zeros, two off-diagonal zeros of the
    pair in the row and a witness (k, m) common to its gift zeros.  A row
    with no cost (gift) zero has no common witness."""
    n = a.n
    out = []
    for i in range(1, n + 1):
        row = [cells[(i, j)] for j in range(1, n + 1) if j != i]
        tags = [tag for tag, _, _ in row]
        costs = [c for tag, c, _ in row if tag == TAG_COST]
        gifts = [g for tag, _, g in row if tag == TAG_GIFT]
        pair_zeros = sum(
            (a.entry(i, j) == 0) + (b.entry(i, j) == 0) for j in range(1, n + 1) if j != i
        )
        kind = RowType("other")
        if tags.count(TAG_COST) == n - 2 and tags.count(TAG_PROPAGATION) == 1 and costs:
            common = frozenset.intersection(*costs)
            if common:
                kind = RowType("cost", k=min(common))
        elif (tags.count(TAG_GIFT) == n - 3 and tags.count(TAG_PROPAGATION) == 2
              and pair_zeros == 2 and gifts):
            common = frozenset.intersection(*gifts)
            if common:
                k, m = min(common)
                kind = RowType("gift", k=k, m=m)
        out.append(kind)
    return out


def _oracle_pairs():
    """Every pair at n = 2 and 3, seeded random pairs at n = 4..8 and
    family pairs at n = 4..12."""
    for n in (2, 3):
        mats = list(all_normal_matrices(n))
        yield from ((a, b) for a in mats for b in mats)
    rng = random.Random(16)
    for n in range(4, 9):
        for _ in range(40):
            yield rand_normal(rng, n), rand_normal(rng, n)
    for n in range(4, 13):
        for _ in range(10):
            k, m = rng.randint(1, n), rng.randint(1, n)
            yield mm_pair(MmVariant(k, m, rng.randrange(4)), n)


def test_classifier_matches_entry_oracle():
    kinds = set()
    for a, b in _oracle_pairs():
        n = a.n
        want = _oracle_classify(a, b)
        rep = indicator(a, b)
        assert rep.classes == {pos: ZeroClass(*cls) for pos, cls in want.items()}
        tags = [tag for tag, _, _ in want.values()]
        dup = 0 if a == b else sum(
            a.entry(i, j) == b.entry(i, j) == 0
            for i in range(1, n + 1) for j in range(1, n + 1) if i != j
        )
        assert (rep.prop_count, rep.cost_count, rep.gift_count, rep.duplicate_count) == (
            tags.count(TAG_PROPAGATION), tags.count(TAG_COST), tags.count(TAG_GIFT), dup)
        cells = []
        for (s, t), (tag, cost, gift) in sorted(want.items()):
            cells.append({"pos": [s, t], "class": tag})
            if tag == TAG_COST:
                cells[-1]["witnesses"] = sorted(cost)
            elif tag == TAG_GIFT:
                cells[-1]["witnesses"] = [list(w) for w in sorted(gift)]
        assert rep.to_document()["cells"] == cells
        rows = [row_type(rep, i) for i in range(1, n + 1)]
        assert rows == _oracle_row_types(a, b, want)
        kinds.update((n, r.kind) for r in rows)
    # the comparison reaches both row kinds, and the orders where a row's
    # cost (n = 2) or gift (n = 3) cells are none
    assert {(2, "other"), (3, "cost"), (3, "other"), (6, "gift")} <= kinds


def test_orth_set_elementary():
    e12 = make_elementary("E", 3, 1, 2)
    assert len(orth_set(e12)) == 40
    z = all_zero(3)
    assert len(orth_set(z)) == 64


def _orth_set_oracle(a):
    # every normal matrix of the order, tested one by one
    return {b for b in all_normal_matrices(a.n) if is_orthogonal(a, b)}


def test_orth_set_matches_per_matrix_oracle():
    for n in (1, 2, 3):
        for a in all_normal_matrices(n):
            assert orth_set(a) == _orth_set_oracle(a), a
    rng = random.Random(17)
    some = [make_elementary("E", 4, 1, 2), identity(4), all_zero(4),
            *(rand_normal(rng, 4) for _ in range(50))]
    for a in some:
        assert orth_set(a) == _orth_set_oracle(a), a


def test_orth_set_guard():
    with pytest.raises(ValueError, match=r"order 6 is refused \(guard: n <= 5\)"):
        orth_set(identity(6))


def majority_zero_pair(a, b):
    """Hypothesis check: every row and column of both matrices has strictly
    more than n/2 zeros.  Pairs satisfying it are always orthogonal."""
    half = a.n / 2
    return all(r.bit_count() > half for m in (a, b) for r in (*m.rows, *_cols(m.rows)))


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


def _zero_cells(n, zero):
    """The matrix whose zeros are the cells (i, j) with zero(i, j)."""
    cells = range(1, n + 1)
    return NormalMatrix.from_zeros(n, [(i, j) for i in cells for j in cells if zero(i, j)])


def test_row_majority_alone_insufficient():
    # all zero except column n off the diagonal: every row has n - 1 zeros,
    # a strict majority, yet the column condition fails
    for n in (3, 4, 5):
        a = _zero_cells(n, lambda i, j: j != n or i == n)
        for i in range(1, n + 1):
            assert a.row_mask(i).bit_count() > n / 2
        assert not majority_zero_pair(a, a)
        assert not is_orthogonal(a, a)


def _residue_pair(n):
    """a_ij = 0 iff i = j or i + j = 2 mod 3; b_ij = 0 iff i + j even."""
    return (_zero_cells(n, lambda i, j: i == j or (i + j) % 3 == 2),
            _zero_cells(n, lambda i, j: (i + j) % 2 == 0))


def test_residue_pair_orthogonal():
    for n in (4, 6, 7, 8, 9, 10):
        a, b = _residue_pair(n)
        assert is_orthogonal(a, b)
    # the n = 5 exception: column 5 of A is zero only in odd rows {3, 5},
    # so (BA)_{2,5} != 0
    a, b = _residue_pair(5)
    assert not is_orthogonal(a, b)
    assert mat_odot(b, a).entry(2, 5) == -1


def test_oplus_zero_implies_orthogonal():
    rng = random.Random(15)
    for _ in range(500):
        n = rng.randint(2, 6)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        if mat_oplus(a, b) == all_zero(n):
            assert is_orthogonal(a, b)
