import pytest

from tropnorm import fixtures
from tropnorm.core import nu, sigma, to_offdiag_mask
from tropnorm.families import MmVariant, mm_pair
from tropnorm.ortho import is_orthogonal
from tropnorm.search import (
    COMPLETENESS_BOUNDED,
    COMPLETENESS_EXHAUSTIVE,
    COMPLETENESS_LOWER_BOUND,
    SearchInconclusive,
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


def test_theta_exhaustive_values():
    for n, value in THETA.items():
        cert = theta_exhaustive(n)
        assert cert.value == value
        assert cert.completeness == COMPLETENESS_EXHAUSTIVE
        assert cert.kind == "pair"
        if n in THETA_WITNESSES:
            assert cert.total_witnesses == THETA_WITNESSES[n]
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
        for a in cert.witnesses:
            assert is_orthogonal(a, a)
            assert nu(a) - n == value
    with pytest.raises(ValueError):
        theta_delta_exhaustive(6)


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


def test_bounded_resource_cap():
    with pytest.raises(SearchInconclusive) as exc:
        theta_bounded(6, budget=10, node_limit=100)
    assert exc.value.stats["nodes"] <= 200


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
    for n in (2, 3, 4):
        res = check_theorem_theta(n)
        assert res["holds"], res


@pytest.mark.slow
def test_check_theorem_large_orders():
    for n in (7, 8, 9, 10):
        res = check_theorem_theta(n)
        assert res["holds"], res


def test_check_theorem_guard():
    with pytest.raises(ValueError):
        check_theorem_theta(5)


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
