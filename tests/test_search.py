import random
import time
from collections import Counter

import pytest

from tropnorm import fixtures
from tropnorm.core import (
    all_normal_matrices,
    all_zero,
    from_offdiag_mask,
    is_canonical,
    naive_odot,
    nu,
    offdiag_rows,
    permute_conjugate,
    sigma,
    to_offdiag_mask,
    transpose,
)
from tropnorm.families import MmVariant, mm_pair
from tropnorm.ortho import is_orthogonal
from tropnorm.search import (
    COMPLETENESS_BOUNDED,
    COMPLETENESS_EXHAUSTIVE,
    COMPLETENESS_LOWER_BOUND,
    SearchInconclusive,
    _bounded_pairs,
    _full_family,
    check_theorem_theta,
    enumerate_orthogonal_pairs,
    theta_bounded,
    theta_delta_exhaustive,
    theta_exhaustive,
)

THETA = {1: 0, 2: 2, 3: 6, 4: 8}
THETA_WITNESSES = {2: 4, 3: 66, 4: 18}
THETA_DELTA = {1: 0, 2: 2, 3: 3, 4: 6, 5: 8}
THETA_DELTA_WITNESSES = {1: 1, 2: 1, 3: 2, 4: 16, 5: 5}
# pairs (matrices) tested: every one with at most `value` zeros
THETA_NODES = {1: 1, 2: 11, 3: 2510, 4: 1_271_626}
THETA_DELTA_NODES = {1: 1, 2: 4, 3: 42, 4: 2510, 5: 263_950}


def test_theta_exhaustive_values():
    for n, value in THETA.items():
        cert = theta_exhaustive(n)
        assert cert.value == value
        assert cert.completeness == COMPLETENESS_EXHAUSTIVE
        assert cert.kind == "pair"
        if n in THETA_WITNESSES:
            assert cert.total_witnesses == THETA_WITNESSES[n]
        assert cert.search_stats["nodes"] == THETA_NODES[n]
        for a, b in cert.witnesses:
            assert is_orthogonal(a, b)
            assert sigma(a, b) == value


def test_theta_exhaustive_guard():
    with pytest.raises(ValueError):
        theta_exhaustive(5)
    with pytest.raises(ValueError):
        theta_exhaustive(0)


def test_theta_delta_values():
    for n, value in THETA_DELTA.items():
        cert = theta_delta_exhaustive(n)
        assert cert.value == value
        assert cert.kind == "self"
        assert cert.total_witnesses == THETA_DELTA_WITNESSES[n]
        assert cert.search_stats["nodes"] == THETA_DELTA_NODES[n]
        for a in cert.witnesses:
            assert is_orthogonal(a, a)
            assert nu(a) - n == value
    with pytest.raises(ValueError):
        theta_delta_exhaustive(6)


def _naive_orthogonal(a, b) -> bool:
    zero = all_zero(a.n)
    return naive_odot(a, b) == zero and naive_odot(b, a) == zero


def _full_family_orthogonal(a, b) -> bool:
    rs_a, nf_a = _full_family(a.n, a.rows)
    rs_b, nf_b = _full_family(b.n, b.rows)
    return not (rs_a & nf_b or rs_b & nf_a)


def test_full_family_predicate_matches_naive_odot():
    mats = list(all_normal_matrices(3))
    for a in mats:
        for b in mats:
            assert _full_family_orthogonal(a, b) == _naive_orthogonal(a, b)
    # a uniform pair of order 4 is rarely orthogonal, so half the factors
    # have each off-diagonal cell zero with probability 3/4
    rng = random.Random(1204)

    def factor():
        bits = rng.getrandbits(12)
        if rng.random() < 0.5:
            bits |= rng.getrandbits(12)
        return from_offdiag_mask(4, bits)

    seen = Counter()
    for _ in range(20_000):
        a, b = factor(), factor()
        want = _naive_orthogonal(a, b)
        assert _full_family_orthogonal(a, b) == want
        seen[want] += 1
    assert min(seen.values()) > 1000


@pytest.mark.parametrize("n", [3, 4])
def test_theta_delta_matches_naive_scan(n):
    zero = all_zero(n)
    selfs = sorted(
        (nu(a) - n, to_offdiag_mask(a))
        for a in all_normal_matrices(n)
        if naive_odot(a, a) == zero
    )
    value = selfs[0][0]
    minimal = [m for s, m in selfs if s == value]
    cert = theta_delta_exhaustive(n)
    assert cert.value == value
    assert [to_offdiag_mask(a) for a in cert.witnesses] == minimal
    assert cert.total_witnesses == len(minimal)
    assert cert.search_stats["nodes"] == sum(
        1 for m in range(1 << (n * n - n)) if m.bit_count() <= value
    )


def test_theta_delta_3_is_circulant():
    cert = theta_delta_exhaustive(3)
    mats = set(cert.witnesses)
    c = fixtures.circulant_3()
    assert c in mats
    from tropnorm.core import transpose

    assert mats == {c, transpose(c)}


def test_theta_delta_5_witnesses_are_v_generics():
    from tropnorm.families import family, spec_generic

    cert = theta_delta_exhaustive(5)
    mats = set(cert.witnesses)
    expected = {spec_generic(family(5, ("V", k, k))) for k in range(1, 6)}
    assert mats == expected


def test_bounded_agrees_with_exhaustive():
    for n in (2, 3, 4):
        cert = theta_bounded(n, budget=4 * n - 7 if n > 2 else 1)
        if cert.value <= (4 * n - 7 if n > 2 else 1):
            assert cert.completeness == COMPLETENESS_EXHAUSTIVE
    # full runs: at their extremal budgets the engine matches the oracle
    oracle = theta_exhaustive(4)
    cert = theta_bounded(4, budget=8)
    assert cert.value == 8
    assert cert.completeness == COMPLETENESS_EXHAUSTIVE
    assert set(cert.witnesses) == set(oracle.witnesses)


def test_bounded_proof_below_true_value():
    cert = theta_bounded(3, budget=5)
    assert cert.completeness == COMPLETENESS_BOUNDED
    assert cert.value == 6
    # the reported value is attained by a stored family pair
    assert cert.witnesses
    for a, b in cert.witnesses:
        assert is_orthogonal(a, b)
        assert sigma(a, b) == 6


@pytest.mark.slow
def test_theta_5_closure():
    cert = theta_bounded(5, budget=13)
    assert cert.completeness == COMPLETENESS_BOUNDED
    assert cert.value == 14
    assert cert.witnesses
    for a, b in cert.witnesses:
        assert is_orthogonal(a, b)
        assert sigma(a, b) == 14


STATS_KEYS = ["nodes", "elapsed_s", "left_factors", "canonical", "col_cut", "leaves", "ba_rejects"]


def _counters(stats):
    assert list(stats) == STATS_KEYS
    return tuple(v for k, v in stats.items() if k != "elapsed_s")


def test_bounded_resource_cap():
    with pytest.raises(SearchInconclusive) as exc:
        theta_bounded(6, budget=10, node_limit=100)
    # the tick past the cap raises before its extension is counted
    assert _counters(exc.value.stats) == (101, 100, 42, 42, 0, 0)


def test_bounded_rejects_invalid_caps():
    for caps in ({"node_limit": -5}, {"time_limit": -1.0}, {"time_limit": float("nan")}):
        with pytest.raises(ValueError, match="negative"):
            theta_bounded(3, 2, **caps)
        with pytest.raises(ValueError, match="negative"):
            list(enumerate_orthogonal_pairs(3, 2, **caps))
    assert theta_bounded(3, 5, time_limit=float("inf")).value == 6
    assert list(enumerate_orthogonal_pairs(3, 0, node_limit=0, time_limit=0.0)) == []


def test_bounded_time_limit_at_order_6():
    # the clock is read on every tick; listing every pair with at most 18
    # zeros takes about 1.5 s on a 2-CPU host, seven times the limit
    t0 = time.monotonic()
    with pytest.raises(SearchInconclusive, match="time limit"):
        list(enumerate_orthogonal_pairs(6, 18, time_limit=0.2))
    assert time.monotonic() - t0 < 10


def test_bounded_phase_counters():
    stats = theta_bounded(4, budget=9).search_stats
    # (nodes, left_factors, canonical, col_cut, leaves, ba_rejects)
    assert _counters(stats) == (500, 89, 33, 20, 207, 162)
    # the canonical left factors searched: one per orbit of S_4 x C2 with
    # at most 9 // 2 zeros
    assert stats["canonical"] == sum(
        1 for m in all_normal_matrices(4) if nu(m) - 4 <= 9 // 2 and is_canonical(m.rows)
    )
    assert stats["left_factors"] < stats["nodes"]
    assert stats["col_cut"] <= stats["canonical"]
    assert stats["ba_rejects"] <= stats["leaves"]
    stats = theta_bounded(5, budget=13).search_stats
    assert _counters(stats) == (3237, 834, 354, 304, 1000, 1000)


def _brute_force_pairs(n):
    """(sigma, left mask, right mask) of every orthogonal pair, from the
    triple-loop product in both orders."""
    mats = list(all_normal_matrices(n))
    zero = all_zero(n)
    out = []
    for a in mats:
        for b in mats:
            if naive_odot(a, b) == zero and naive_odot(b, a) == zero:
                out.append((sigma(a, b), to_offdiag_mask(a), to_offdiag_mask(b)))
    return sorted(out)


def test_enumerate_matches_brute_force_n3():
    brute = _brute_force_pairs(3)
    for budget in range(7):
        pairs = [
            (sigma(a, b), to_offdiag_mask(a), to_offdiag_mask(b))
            for a, b in enumerate_orthogonal_pairs(3, budget)
        ]
        assert pairs == [t for t in brute if t[0] <= budget]


def test_theta_exhaustive_matches_naive_scan_n3():
    brute = _brute_force_pairs(3)
    value = brute[0][0]
    minimal = [(am, bm) for s, am, bm in brute if s == value]
    cert = theta_exhaustive(3)
    assert cert.value == value
    assert [(to_offdiag_mask(a), to_offdiag_mask(b)) for a, b in cert.witnesses] == minimal
    assert cert.total_witnesses == len(minimal)
    masks = range(1 << 6)
    assert cert.search_stats["nodes"] == sum(
        1 for am in masks for bm in masks if am.bit_count() + bm.bit_count() <= value
    )


def test_bounded_pairs_match_full_family_scan_n4():
    # every pair of order-4 masks with at most 10 zeros in all, tested by
    # the row-set and full-family predicate of the exhaustive oracle
    by_count = [[] for _ in range(11)]
    for m in range(1 << 12):
        if m.bit_count() <= 10:
            by_count[m.bit_count()].append((m, *_full_family(4, offdiag_rows(4, m))))
    scan = {
        (ka + kb, am, bm)
        for ka in range(11)
        for kb in range(11 - ka)
        for am, rs_a, nf_a in by_count[ka]
        for bm, rs_b, nf_b in by_count[kb]
        if not (rs_a & nf_b or rs_b & nf_a)
    }
    triples, _ = _bounded_pairs(4, 10)
    assert len(triples) == len(scan) == 2946
    assert set(triples) == scan


def test_enumerate_n4_counts_and_closure():
    pairs = list(enumerate_orthogonal_pairs(4, 10))
    assert Counter(sigma(a, b) for a, b in pairs) == {8: 18, 9: 288, 10: 2640}
    found = set(pairs)
    assert len(found) == len(pairs)
    for a, b in pairs:
        assert (b, a) in found
        assert (transpose(b), transpose(a)) in found
        for i in range(1, 4):
            assert (permute_conjugate(a, i, i + 1), permute_conjugate(b, i, i + 1)) in found


def test_bounded_guards():
    with pytest.raises(ValueError):
        theta_bounded(7, budget=5)
    with pytest.raises(ValueError):
        theta_bounded(4, budget=12)  # budget above 4n - 7


def test_enumerate_orthogonal_pairs():
    for n in (3, 4):
        oracle = theta_exhaustive(n)
        pairs = list(enumerate_orthogonal_pairs(n, max_sigma=oracle.value))
        # ordered by total zero count, then lexicographic masks
        keys = [
            (sigma(a, b), to_offdiag_mask(a), to_offdiag_mask(b)) for a, b in pairs
        ]
        assert keys == sorted(keys)
        assert all(is_orthogonal(a, b) for a, b in pairs)
        minimal = [p for p in pairs if sigma(*p) == oracle.value]
        assert set(minimal) == set(oracle.witnesses)
        # determinism
        assert list(enumerate_orthogonal_pairs(n, max_sigma=oracle.value)) == pairs


def test_enumerate_contains_family_pairs():
    pairs = set(enumerate_orthogonal_pairs(4, max_sigma=10))
    for variant in range(4):
        assert mm_pair(MmVariant(1, 2, variant), 4) in pairs
    with pytest.raises(ValueError):
        list(enumerate_orthogonal_pairs(7, max_sigma=4))
    with pytest.raises(ValueError):
        list(enumerate_orthogonal_pairs(4, max_sigma=11))


def test_certificate_document():
    cert = theta_exhaustive(3)
    doc = cert.to_document()
    assert doc["n"] == 3
    assert doc["value"] == 6
    assert doc["completeness"] == COMPLETENESS_EXHAUSTIVE
    assert len(doc["witnesses"]) == min(66, 10_000)
    assert doc["total_witnesses"] == 66


def test_check_theorem_small_orders():
    assert check_theorem_theta(2)["holds"]
    # (theta, minimal pairs, minimal pairs outside the family) per order
    expected = {
        3: (6, 66, 46), 4: (8, 18, 18), 5: (14, 6680, 6600), 6: (18, 3000, 2880)
    }
    for n, counts in expected.items():
        res = check_theorem_theta(n)
        assert res["mode"] == "counterexample"
        assert res["holds"] and res["stored_outsider_found"], res
        assert (res["theta"], res["minimal_pairs"], res["outside_family"]) == counts


@pytest.mark.slow
def test_check_theorem_large_orders():
    for n in (7, 8, 9, 10):
        res = check_theorem_theta(n)
        assert res["holds"], res


def test_check_theorem_guard():
    for n in (1, 11):
        with pytest.raises(ValueError, match=r"use 2\.\.10"):
            check_theorem_theta(n)


def test_search_argument_checks():
    with pytest.raises(ValueError, match="negative"):
        theta_bounded(5, -5)
    with pytest.raises(ValueError, match="negative"):
        list(enumerate_orthogonal_pairs(3, -1))
    # the order is checked before the 4n-6 guard
    with pytest.raises(ValueError, match="2 <= n <= 6"):
        list(enumerate_orthogonal_pairs(1, 0))
    with pytest.raises(ValueError, match="2 <= n <= 6"):
        theta_bounded(1, 0)
    # no pair fits and no witness at budget + 1: only a lower bound
    cert = theta_bounded(3, 0)
    assert (cert.completeness, cert.value, cert.witnesses) == (
        COMPLETENESS_LOWER_BOUND, 1, []
    )
    assert list(enumerate_orthogonal_pairs(3, 0)) == []
