"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Each test prints an `ACCEPTANCE k: PASS` line on success; a failing
criterion shows up as the usual pytest failure for that test.
"""

import itertools
import random
import time
from collections import Counter

from conftest import rand_normal
import fixtures
from tropnorm.border import (
    BorderVector,
    BorderedBlocks,
    border_compose,
    border_orthogonality_condition,
    self_ortho_border_condition,
)
from tropnorm.core import (
    all_normal_matrices,
    all_zero,
    format_matrix,
    from_offdiag_mask,
    identity,
    make_elementary,
    mat_odot,
    mat_oplus,
    naive_odot,
    nu,
    nu_row,
    permute_conjugate,
    sigma,
    transpose,
)
from tropnorm.families import (
    MmVariant,
    family,
    mm_classify,
    mm_pair,
    spec_generic,
)
from tropnorm.graphs import ORTHO, VNL, WNL, build, dist, girth, stats
from tropnorm.ortho import (
    TAG_COST,
    TAG_GIFT,
    TAG_NONZERO,
    TAG_PROPAGATION,
    indicator,
    is_orthogonal,
    orth_set,
)
from tropnorm.search import (
    COMPLETENESS_BOUNDED,
    check_theorem_theta,
    enumerate_orthogonal_pairs,
    theta_bounded,
    theta_delta_exhaustive,
    theta_exhaustive,
)


def _ok(k, msg):
    print(f"ACCEPTANCE {k}: PASS - {msg}")


def test_criterion_01_theta_table_exhaustive():
    expected = {2: 2, 3: 6, 4: 8}
    for n, value in expected.items():
        t0 = time.monotonic()
        cert = theta_exhaustive(n)
        elapsed = time.monotonic() - t0
        assert cert.value == value
        assert elapsed < 60
    _ok(1, "minimum pair zero counts 2/6/8 at n=2/3/4")


def test_criterion_02_theta5_bounded_closure():
    cert = theta_bounded(5, budget=13, time_limit=3600)
    assert cert.completeness == COMPLETENESS_BOUNDED
    assert cert.value == 14
    # the attached witness realizes the value exactly
    assert cert.witnesses
    a, b = cert.witnesses[0]
    assert (a, b) == mm_pair(MmVariant(1, 2, 0), 5)
    assert is_orthogonal(a, b)
    assert sigma(a, b) == 14
    _ok(2, "no orthogonal pair at n=5 within budget 13; witness at 14")


def test_criterion_03_n2_census():
    cert = theta_exhaustive(2)
    i2, z2 = identity(2), all_zero(2)
    u12 = make_elementary("U", 2, 1, 2)
    u21 = make_elementary("U", 2, 2, 1)
    assert set(cert.witnesses) == {(z2, i2), (i2, z2), (u12, u21), (u21, u12)}
    _ok(3, "exact minimal census at n=2: {(Z,I),(I,Z),(U12,U21),(U21,U12)}")


def test_criterion_04_forward_direction_large_n():
    t0 = time.monotonic()
    for n in (7, 8, 9, 10):
        for k in range(1, n + 1):
            for m in range(1, n + 1):
                if k == m:
                    continue
                for variant in range(4):
                    a, b = mm_pair(MmVariant(k, m, variant), n)
                    rep = indicator(a, b)
                    assert rep.indicator == all_zero(n)
                    assert sigma(a, b) == 4 * n - 6
                    assert rep.prop_count == 4 * n - 6
                    assert rep.gift_count == (n - 2) * (n - 3)
        assert check_theorem_theta(n)["holds"]
    assert time.monotonic() - t0 < 10
    _ok(4, "all family pairs at n=7..10 orthogonal with the exact counts")


def test_criterion_05_printed_counterexamples():
    expected_sigma = {3: 6, 4: 8, 5: 14, 6: 18}
    for n in (3, 4, 5, 6):
        a, b = fixtures.minimal_pair_outside_family(n)
        assert is_orthogonal(a, b)
        # and by the triple-loop oracle, in both orders
        assert naive_odot(a, b) == naive_odot(b, a) == all_zero(n)
        assert sigma(a, b) == expected_sigma[n]
        assert mm_classify(a, b) is None
    _ok(5, "outsider pairs at n=3..6: orthogonal, extremal, outside the family")


def test_criterion_06_gift_pattern_reproduction():
    n, k, m = 6, 4, 3
    inner = {k, m}
    for variant in range(4):
        a, b = fixtures.mm43_pair_n6(variant)
        assert (a, b) == mm_pair(MmVariant(k, m, variant), n)
        rep = indicator(a, b)
        assert rep.indicator == all_zero(n)
        gift_cells = {
            pos for pos, cls in rep.classes.items() if cls.tag == TAG_GIFT
        }
        expected = {
            (s, t)
            for s in range(1, n + 1)
            for t in range(1, n + 1)
            if s != t and s not in inner and t not in inner
        }
        assert gift_cells == expected
        assert len(gift_cells) == 12
        for pos in gift_cells:
            assert (k, m) in rep.classes[pos].gift_witnesses
    _ok(6, "all four (4,3) pairs at n=6 show the 12-cell gift pattern")


def test_criterion_07_self_orthogonal_extremals():
    cert3 = theta_delta_exhaustive(3)
    assert cert3.value == 3
    circulant = fixtures.circulant_3()
    assert circulant in set(cert3.witnesses)
    v_generics_3 = {spec_generic(family(3, ("V", p, p))) for p in range(1, 4)}
    assert circulant not in v_generics_3
    t0 = time.monotonic()
    cert5 = theta_delta_exhaustive(5)
    elapsed = time.monotonic() - t0
    assert cert5.value == 8
    assert elapsed < 30
    expected = {spec_generic(family(5, ("V", p, p))) for p in range(1, 6)}
    assert set(cert5.witnesses) == expected
    _ok(7, "self-orthogonal minima 3 (with circulant) and 8 (five minimizers)")


def test_criterion_08_graph_metrics():
    assert girth(build(ORTHO, 3)) == 3
    assert girth(build(VNL, 3)) == 3
    for n in (3, 4):
        t0 = time.monotonic()
        s = stats(build(ORTHO, n))
        assert time.monotonic() - t0 < 300
        assert s["connected"]
        assert s["diameter"] == 3
        assert stats(build(VNL, n))["diameter"] == 2
    assert stats(build(WNL, 4))["diameter"] == 2
    g = build(WNL, 3)
    a, b = fixtures.wnl3_distance_example()
    assert dist(g, a, b) == 3
    _ok(8, "girth/diameter/connectivity match on all three graphs")


# -- criterion 9: property suites ----------------------------------------


def _all_n3():
    return list(all_normal_matrices(3))


def _suite_semiring_laws(rng):
    # scalar level, exhaustive: max/min laws over {0,-1}
    R = (0, -1)
    for a, c, d in itertools.product(R, repeat=3):
        assert max(a, c) == max(c, a)
        assert max(max(a, c), d) == max(a, max(c, d))
        assert max(a, a) == a
        assert min(min(a, c), d) == min(a, min(c, d))
        assert min(a, max(c, d)) == max(min(a, c), min(a, d))
    # matrix level, exhaustive n=3 via product/sum tables
    mats = _all_n3()
    idx = {m: i for i, m in enumerate(mats)}
    k = len(mats)
    prod = [[idx[mat_odot(x, y)] for y in mats] for x in mats]
    plus = [[idx[mat_oplus(x, y)] for y in mats] for x in mats]
    for i in range(k):
        for j in range(k):
            assert plus[i][j] == plus[j][i]
        assert plus[i][i] == i
    for i, j, l in itertools.product(range(k), repeat=3):
        assert prod[prod[i][j]][l] == prod[i][prod[j][l]]
        assert plus[plus[i][j]][l] == plus[i][plus[j][l]]
        assert prod[i][plus[j][l]] == plus[prod[i][j]][prod[i][l]]
        assert prod[plus[j][l]][i] == plus[prod[j][i]][prod[l][i]]
    # random spot checks at larger orders
    for _ in range(1000):
        n = rng.randint(2, 8)
        a, b, c = (rand_normal(rng, n) for _ in range(3))
        assert mat_odot(mat_odot(a, b), c) == mat_odot(a, mat_odot(b, c))
        assert mat_odot(a, mat_oplus(b, c)) == mat_oplus(
            mat_odot(a, b), mat_odot(a, c)
        )
        assert mat_oplus(a, b) == mat_oplus(b, a)
        assert mat_oplus(a, a) == a


def _suite_neutrality_absorption(rng):
    cases = [(3, a) for a in _all_n3()]
    for _ in range(1000):
        n = rng.randint(1, 8)
        cases.append((n, rand_normal(rng, n)))
    for n, a in cases:
        i, z = identity(n), all_zero(n)
        assert mat_odot(i, a) == a == mat_odot(a, i)
        assert mat_oplus(a, i) == a == mat_oplus(i, a)
        assert mat_odot(z, a) == z == mat_odot(a, z)
        assert mat_oplus(a, z) == z


def _suite_order_two_laws():
    mats2 = list(all_normal_matrices(2))
    assert len(mats2) == 4
    for a, b in itertools.product(mats2, repeat=2):
        ab = mat_odot(a, b)
        assert ab == mat_oplus(a, b) == mat_odot(b, a)
        assert mat_odot(a, a) == a
        assert is_orthogonal(a, b) == (mat_oplus(a, b) == all_zero(2))


def _suite_propagation(rng):
    cases = [(a, b) for a in _all_n3() for b in _all_n3()]
    for _ in range(1000):
        n = rng.randint(2, 8)
        cases.append((rand_normal(rng, n), rand_normal(rng, n)))
    for a, b in cases:
        union = a.zeros | b.zeros
        left, right = mat_odot(a, b), mat_odot(b, a)
        assert union <= left.zeros
        assert union <= right.zeros
        # full-cover corollary: A + B = Z forces both products to Z
        if mat_oplus(a, b) == all_zero(a.n):
            assert left == right == all_zero(a.n)


def _suite_cover_implies_orthogonal(rng):
    for _ in range(1000):
        n = rng.randint(2, 8)
        a = rand_normal(rng, n)
        full = (1 << (n * n - n)) - 1
        from tropnorm.core import to_offdiag_mask

        b = from_offdiag_mask(
            n, (full ^ to_offdiag_mask(a)) | (rng.getrandbits(n * n - n))
        )
        assert mat_oplus(a, b) == all_zero(n)
        assert is_orthogonal(a, b)


def _witnesses(a, b, s, t):
    """Brute-force cost and gift witness sets of cell (s, t) from entry()."""
    n = a.n
    cost = {
        k
        for k in range(1, n + 1)
        if k not in (s, t)
        and a.entry(s, k) == 0
        and b.entry(k, t) == 0
        and b.entry(s, k) == 0
        and a.entry(k, t) == 0
    }
    gift = {
        (k, m)
        for k in range(1, n + 1)
        for m in range(1, n + 1)
        if len({s, t, k, m}) == 4
        and a.entry(s, k) == 0
        and b.entry(k, t) == 0
        and b.entry(s, m) == 0
        and a.entry(m, t) == 0
    }
    return cost, gift


def _check_classification(a, b):
    rep = indicator(a, b)
    n = a.n
    total = {TAG_PROPAGATION: 0, TAG_COST: 0, TAG_GIFT: 0}
    for (s, t), cls in rep.classes.items():
        assert s != t
        c_zero = rep.indicator.entry(s, t) == 0
        assert (cls.tag != TAG_NONZERO) == c_zero
        if cls.tag == TAG_PROPAGATION:
            assert a.entry(s, t) == 0 or b.entry(s, t) == 0
        elif cls.tag == TAG_COST:
            assert a.entry(s, t) != 0 and b.entry(s, t) != 0
            assert cls.cost_witnesses
            assert cls.cost_witnesses == _witnesses(a, b, s, t)[0]
            for k in cls.cost_witnesses:
                assert k not in (s, t)
                assert a.entry(s, k) == b.entry(k, t) == 0
                assert b.entry(s, k) == a.entry(k, t) == 0
        elif cls.tag == TAG_GIFT:
            assert a.entry(s, t) != 0 and b.entry(s, t) != 0
            assert cls.gift_witnesses
            cost, gift = _witnesses(a, b, s, t)
            assert not cost
            assert cls.gift_witnesses == gift
            for k, m in cls.gift_witnesses:
                assert len({s, t, k, m}) == 4
                assert a.entry(s, k) == b.entry(k, t) == 0
                assert b.entry(s, m) == a.entry(m, t) == 0
        if cls.tag in total:
            total[cls.tag] += 1
    assert total[TAG_PROPAGATION] == rep.prop_count
    assert total[TAG_COST] == rep.cost_count
    assert total[TAG_GIFT] == rep.gift_count
    if a == b:
        assert rep.gift_count == 0
        assert rep.duplicate_count == 0
    if n <= 3:
        assert rep.gift_count == 0
    return rep


def _suite_classifier_and_row_bounds(rng):
    cases = [(a, b) for a in _all_n3() for b in _all_n3()]
    for _ in range(1000):
        n = rng.randint(2, 8)
        cases.append((rand_normal(rng, n), rand_normal(rng, n)))
    for a, b in cases:
        rep = _check_classification(a, b)
        n = a.n
        for i in range(1, n + 1):
            others = [j for j in range(1, n + 1) if j != i]
            # row i and column i, their tags counted alike
            for cells in ([(i, t) for t in others], [(s, i) for s in others]):
                tags = Counter(rep.classes[pos].tag for pos in cells)
                assert tags[TAG_COST] <= n - 2
                if tags[TAG_COST]:
                    assert tags[TAG_PROPAGATION] >= 1
                assert tags[TAG_GIFT] <= max(n - 3, 0)
                if tags[TAG_GIFT]:
                    assert tags[TAG_PROPAGATION] >= 2
        # cost zeros force two duplicates and two loaded indices
        if a != b:
            for (s, t), cls in rep.classes.items():
                if cls.tag != TAG_COST:
                    continue
                for k in cls.cost_witnesses:
                    for i in (s, k):
                        pair_zeros = (
                            nu_row(a, i) - 1 + nu_row(b, i) - 1
                        )
                        assert pair_zeros >= 2


def _suite_bounds(rng):
    cases = [(a, b) for a in _all_n3() for b in _all_n3()]
    for _ in range(1000):
        n = rng.randint(2, 8)
        cases.append((rand_normal(rng, n), rand_normal(rng, n)))
    for a, b in cases:
        rep = indicator(a, b)
        n = a.n
        if a == b:
            assert rep.prop_count == nu(a) - n
            continue
        assert max(nu(a), nu(b)) - n <= rep.prop_count <= sigma(a, b)
        assert (rep.prop_count == sigma(a, b)) == (rep.duplicate_count == 0)


def _suite_two_zeros_per_index(rng):
    found = [
        p for p in enumerate_orthogonal_pairs(3, max_sigma=6)
    ]
    assert found
    for _ in range(1000):
        n = rng.randint(3, 8)
        a = rand_normal(rng, n)
        full = (1 << (n * n - n)) - 1
        from tropnorm.core import to_offdiag_mask

        b = from_offdiag_mask(n, full ^ to_offdiag_mask(a))
        if is_orthogonal(a, b):
            found.append((a, b))
    for a, b in found:
        n = a.n
        for i in range(1, n + 1):
            assert (nu_row(a, i) - 1) + (nu_row(b, i) - 1) >= 2


def _suite_count_formulas():
    def c(p, q):
        return 0 if p != q else -1

    for n in range(2, 13):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                assert nu(spec_generic(family(n, ("V", p, q)))) - n == 2 * n - 3 - c(p, q)
                assert nu(spec_generic(family(n, ("W", p, q)))) - n == 2 * n - 4 - 2 * c(p, q)
                assert (
                    nu(spec_generic(family(n, ("W", p, q), ("Z", p, q), ("Z", q, p)))) - n
                    == 2 * n - 2
                )


def _suite_aligned_zero_converse():
    # a matrix with a full zero row p and column q constrains everything
    # orthogonal to it entrywise
    n = 4
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            if p == q:
                continue
            a = spec_generic(family(n, ("V", p, q)))
            for b in orth_set(a):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        assert b.entry(i, j) == 0 or (
                            b.entry(q, j) == 0 and b.entry(i, p) == 0
                        )


def _suite_border_equivalences(rng):
    def rand_vector(n):
        return BorderVector(
            n, frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
        )

    checked_pair = 0
    while checked_pair < 1000:
        n = rng.randint(1, 6)
        b1, b2 = rand_normal(rng, n), rand_normal(rng, n)
        if not is_orthogonal(b1, b2):
            continue
        blocks1 = BorderedBlocks(b1, rand_vector(n), rand_vector(n))
        blocks2 = BorderedBlocks(b2, rand_vector(n), rand_vector(n))
        res = border_orthogonality_condition(blocks1, blocks2)
        assert res["orthogonal"] == is_orthogonal(
            border_compose(blocks1), border_compose(blocks2)
        )
        checked_pair += 1
    checked_self = 0
    while checked_self < 1000:
        n = rng.randint(1, 6)
        b = rand_normal(rng, n)
        if not is_orthogonal(b, b):
            continue
        blocks = BorderedBlocks(b, rand_vector(n), rand_vector(n))
        res = self_ortho_border_condition(blocks)
        a = border_compose(blocks)
        assert res["self_orthogonal"] == is_orthogonal(a, a)
        checked_self += 1


def _suite_symmetry_invariance(rng):
    cases = [(a, b) for a in _all_n3() for b in _all_n3()]
    for _ in range(1000):
        n = rng.randint(2, 8)
        cases.append((rand_normal(rng, n), rand_normal(rng, n)))
    for a, b in cases:
        n = a.n
        direct = is_orthogonal(a, b)
        assert direct == is_orthogonal(transpose(b), transpose(a))
        i, j = 1, n
        assert direct == is_orthogonal(
            permute_conjugate(a, i, j), permute_conjugate(b, i, j)
        )


def test_criterion_09_property_suites():
    rng = random.Random(1009)
    _suite_semiring_laws(rng)
    _suite_neutrality_absorption(rng)
    _suite_order_two_laws()
    _suite_propagation(rng)
    _suite_cover_implies_orthogonal(rng)
    _suite_classifier_and_row_bounds(rng)
    _suite_bounds(rng)
    _suite_two_zeros_per_index(rng)
    _suite_count_formulas()
    _suite_aligned_zero_converse()
    _suite_border_equivalences(rng)
    _suite_symmetry_invariance(rng)
    _ok(9, "all algebraic property suites hold with zero failures")


def test_criterion_10_oracle_independence():
    rng = random.Random(1010)
    for _ in range(100_000):
        n = rng.randint(1, 8)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        assert mat_odot(a, b) == naive_odot(a, b)
    _ok(10, "bit-parallel and naive products agree on 100000 random cases")
