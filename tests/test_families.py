import functools
import random

import pytest

from conftest import atom_zeros, rand_normal
import fixtures
from tropnorm.core import (
    DimensionMismatch,
    NormalMatrix,
    all_normal_matrices,
    from_offdiag_mask,
    identity,
    make_elementary,
    nu,
    sigma,
    to_offdiag_mask,
)
from tropnorm.families import (
    Atom,
    FamilySpec,
    MmVariant,
    family,
    mm_classify,
    mm_pair,
    spec_contains,
    spec_generic,
)
from tropnorm.ortho import TAG_GIFT, TAG_PROPAGATION, indicator, is_orthogonal


def _c(p, q):
    return 0 if p != q else -1


def test_spec_parse_round_trip():
    spec = FamilySpec.parse(4, "V:1,2&Z:2,1")
    assert spec.atoms == (Atom("V", 1, 2), Atom("Z", 2, 1))
    assert str(spec) == "V:1,2&Z:2,1"
    assert FamilySpec.parse(4, str(spec)) == spec
    with pytest.raises(ValueError):
        FamilySpec.parse(4, "")
    with pytest.raises(ValueError):
        FamilySpec.parse(4, "Q:1,2")
    with pytest.raises(ValueError):
        FamilySpec.parse(4, "V:12")


def test_v_is_w_cap_z():
    for n in (2, 3, 4, 5):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                v = family(n, ("V", p, q))
                wz = family(n, ("W", p, q), ("Z", p, q))
                assert v.rows == wz.rows
                # V(p;p) = W(p;p) and Z(p;p) forces nothing new
                if p == q:
                    w = family(n, ("W", p, p))
                    assert v.rows == w.rows


def test_generic_matrix_and_membership():
    spec = family(3, ("V", 1, 2))
    g = spec_generic(spec)
    assert g == NormalMatrix.from_zeros(
        3, [(1, 1), (1, 2), (1, 3), (2, 2), (3, 2), (3, 3)]
    )
    assert spec_contains(spec, g)
    assert not spec_contains(spec, identity(3))
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(2, 6)
        p, q = rng.randint(1, n), rng.randint(1, n)
        spec = family(n, ("W", p, q))
        a = rand_normal(rng, n)
        assert spec_contains(spec, a) == (_spec_zeros(spec) <= a.zeros)


def _spec_zeros(spec):
    """The zeros a spec forces, diagonal included, as a set of positions."""
    zeros = {(i, i) for i in range(1, spec.n + 1)}
    for atom in spec.atoms:
        zeros |= atom_zeros(atom.kind, atom.p, atom.q, spec.n)
    return zeros


def test_atom_rows_match_positions():
    # every atom of orders 1..7, against its definition as a position set
    for n in range(1, 8):
        for kind in ("V", "W", "Z"):
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    rows = Atom(kind, p, q).rows(n)
                    got = {(i + 1, j + 1) for i, r in enumerate(rows)
                           for j in range(n) if r >> j & 1}
                    assert got == atom_zeros(kind, p, q, n), (kind, p, q, n)
    for atom in (Atom("V", 0, 1), Atom("W", 1, 4), Atom("Z", 4, 4)):
        with pytest.raises(ValueError, match="out of range for n=3"):
            atom.rows(3)
    with pytest.raises(ValueError, match="unknown atom kind 'Q'"):
        Atom("Q", 1, 2).rows(3)


def test_spec_contains_is_set_inclusion():
    # random conjunctions of up to three atoms against random and generic
    # matrices, and the generic matrix is the spec's own position set
    rng = random.Random(22)
    hits = 0
    for _ in range(600):
        n = rng.randint(1, 7)
        atoms = [(rng.choice("VWZ"), rng.randint(1, n), rng.randint(1, n))
                 for _ in range(rng.randint(1, 3))]
        spec = family(n, *atoms)
        assert spec_generic(spec).zeros == _spec_zeros(spec)
        for a in (rand_normal(rng, n), spec_generic(family(n, rng.choice(atoms)))):
            want = _spec_zeros(spec) <= a.zeros
            assert spec_contains(spec, a) == want, (spec, a)
            hits += want
    assert 0 < hits < 1200
    with pytest.raises(DimensionMismatch):
        spec_contains(family(3, ("V", 1, 2)), identity(4))


def test_generic_zero_counts():
    # closed forms for the three generic families, all orders up to 12
    for n in range(2, 13):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                v = spec_generic(family(n, ("V", p, q)))
                assert nu(v) - n == 2 * n - 3 - _c(p, q)
                w = spec_generic(family(n, ("W", p, q)))
                assert nu(w) - n == 2 * n - 4 - 2 * _c(p, q)
                wzz = spec_generic(family(n, ("W", p, q), ("Z", p, q), ("Z", q, p)))
                assert nu(wzz) - n == 2 * n - 2


def test_mm_pair_variants():
    for v in range(4):
        a, b = mm_pair(MmVariant(4, 3, v), 6)
        assert (a, b) == fixtures.mm43_pair_n6(v)
        assert is_orthogonal(a, b)
        assert sigma(a, b) == 4 * 6 - 6


def test_mm_pair_k_equals_m_collapses():
    pairs = {mm_pair(MmVariant(1, 1, v), 3) for v in range(4)}
    assert len(pairs) == 1
    a, b = pairs.pop()
    assert a == b == spec_generic(family(3, ("V", 1, 1)))


def test_mm_variant_validation():
    with pytest.raises(ValueError):
        MmVariant(1, 2, 4)
    with pytest.raises(ValueError):
        mm_pair(MmVariant(1, 7, 0), 3)


def test_mm_classify_round_trip():
    for n in (2, 3, 4, 5):
        for k in range(1, n + 1):
            for m in range(1, n + 1):
                for variant in range(4):
                    a, b = mm_pair(MmVariant(k, m, variant), n)
                    got = mm_classify(a, b)
                    assert got is not None
                    # the classifier may return an equivalent earlier label;
                    # it must regenerate the same pair
                    assert mm_pair(got, n) == (a, b)


@functools.lru_cache(maxsize=None)
def _generic_pair(v: MmVariant, n: int):
    return mm_pair(v, n)


def _classify_brute_force(a, b):
    """The unfiltered loop: every (k, m) and variant in lexicographic order."""
    n = a.n
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            for variant in range(4):
                v = MmVariant(k, m, variant)
                if _generic_pair(v, n) == (a, b):
                    return v
    return None


def _flip(rng, a):
    """A with one off-diagonal cell flipped between 0 and -1."""
    n = a.n
    slot = rng.randrange(n * n - n)
    return from_offdiag_mask(n, to_offdiag_mask(a) ^ (1 << slot))


def _rand_density(rng, n, density):
    mask = 0
    for slot in range(n * n - n):
        if rng.random() < density:
            mask |= 1 << slot
    return from_offdiag_mask(n, mask)


def test_mm_classify_matches_brute_force():
    rng = random.Random(9)
    cases = []
    for n in range(1, 9):
        for k in range(1, n + 1):
            for m in range(1, n + 1):
                for variant in range(4):
                    a, b = mm_pair(MmVariant(k, m, variant), n)
                    cases += [(a, b), (b, a), (a, a), (b, b)]
                    if n > 1:
                        cases += [(_flip(rng, a), b), (a, _flip(rng, b))]
    matrices = list(all_normal_matrices(3))
    cases += [(a, b) for a in matrices for b in matrices]
    # 0.97 makes most rows pass the filter; dense pairs cost the most
    for density, count in ((0.3, 1250), (0.6, 1250), (0.9, 250), (0.97, 250)):
        for _ in range(count):
            n = rng.randint(2, 12)
            cases.append((_rand_density(rng, n, density), _rand_density(rng, n, density)))
    found = 0
    for a, b in cases:
        want = _classify_brute_force(a, b)
        assert mm_classify(a, b) == want, (a, b)
        found += want is not None
    # the cases reach both answers: family pairs and outsiders
    assert 0 < found < len(cases)


def test_mm_classify_rejects_outsiders():
    for n in (3, 4, 5, 6):
        a, b = fixtures.minimal_pair_outside_family(n)
        assert mm_classify(a, b) is None
    assert mm_classify(identity(3), identity(3)) is None


def test_mm_classify_tie_break_deterministic():
    # n = 2: several specs share a generic matrix; the label is the
    # lexicographically smallest match
    u12 = make_elementary("U", 2, 1, 2)
    u21 = make_elementary("U", 2, 2, 1)
    got = mm_classify(u12, u21)
    assert got is not None
    assert mm_pair(got, 2) == (u12, u21)
    candidates = [
        MmVariant(k, m, v)
        for k in (1, 2)
        for m in (1, 2)
        for v in range(4)
        if mm_pair(MmVariant(k, m, v), 2) == (u12, u21)
    ]
    assert got == candidates[0]


def _characterize_brute_force(report):
    """Recover (k, m) from an indicator report alone, every cell condition
    evaluated: all off-diagonal cells outside rows and columns k and m are
    gift zeros witnessed by (k, m), the (k, m) and (m, k) cells are
    propagation zeros, and the pair has no duplicates."""
    if report.a == report.b or report.duplicate_count != 0:
        return None
    n = report.n
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            if k == m:
                continue
            gifts = all(
                report.classes[(s, t)].tag == TAG_GIFT
                and (k, m) in report.classes[(s, t)].gift_witnesses
                for s in range(1, n + 1)
                for t in range(1, n + 1)
                if s != t and not {s, t} & {k, m}
            )
            props = all(
                report.classes[pos].tag == TAG_PROPAGATION for pos in ((k, m), (m, k))
            )
            if gifts and props:
                return (k, m)
    return None


def test_mm_characterize():
    for variant in range(4):
        a, b = mm_pair(MmVariant(4, 3, variant), 6)
        assert _characterize_brute_force(indicator(a, b)) == (4, 3)
    # rows with two distinct gift witnesses are not of the (k, m) shape
    a6, b6 = fixtures.minimal_pair_outside_family(6)
    assert _characterize_brute_force(indicator(a6, b6)) is None
    # equal matrices are excluded by definition
    c = fixtures.circulant_3()
    assert _characterize_brute_force(indicator(c, c)) is None


def test_sufficient_conditions_with_extra_zeros():
    # adding zeros to either member of a variant pair preserves orthogonality
    rng = random.Random(21)
    for _ in range(400):
        n = rng.randint(2, 8)
        k, m = rng.randint(1, n), rng.randint(1, n)
        variant = rng.randrange(4)
        a, b = mm_pair(MmVariant(k, m, variant), n)
        extra_a = rand_normal(rng, n)
        extra_b = rand_normal(rng, n)
        from tropnorm.core import mat_oplus

        assert is_orthogonal(mat_oplus(a, extra_a), mat_oplus(b, extra_b))
