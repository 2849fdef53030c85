import hashlib
import itertools
import json
import random
import time
from collections import Counter
from functools import reduce
from itertools import repeat
from math import comb
from operator import and_

import pytest

from burnside import orbit_counts
from conftest import conjugations
import fixtures
from tropnorm import cli, search
from tropnorm.core import (
    NormalMatrix,
    _bits,
    _cols,
    _row_union,
    _sliced_meets,
    _slot_images,
    all_normal_matrices,
    all_zero,
    from_offdiag_mask,
    is_canonical,
    naive_odot,
    nu,
    offdiag_mask,
    offdiag_rows,
    permute_conjugate,
    sigma,
    to_offdiag_mask,
    transpose,
)
from tropnorm.families import MmVariant, mm_classify, mm_pair
from tropnorm.ortho import is_orthogonal
from tropnorm.search import (
    COMPLETENESS_BOUNDED,
    COMPLETENESS_EXHAUSTIVE,
    COMPLETENESS_LOWER_BOUND,
    SearchInconclusive,
    _bounded_pairs,
    _canonical_sets,
    _levels,
    _mm_generic_pairs,
    _orbit,
    _pair_from_masks,
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
        theta_exhaustive(6)
    with pytest.raises(ValueError):
        theta_exhaustive(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_levels_hold_masks_by_bit_count(n):
    slots = n * n - n
    levels = _levels(slots)
    assert len(levels) == slots + 1
    for k, level in enumerate(levels):
        assert level == sum(1 << m for m in range(1 << slots) if m.bit_count() == k), k


def test_sliced_meets_built_once_per_order():
    """`orth_set`, an ORTHO build with its `stats` and `theta_exhaustive`
    of one order share one build of the meet tables."""
    from tropnorm.graphs import ORTHO, build, stats
    from tropnorm.ortho import orth_set

    _sliced_meets.cache_clear()
    for n in (2, 3, 4):
        misses = _sliced_meets.cache_info().misses
        orth_set(from_offdiag_mask(n, 1))
        stats(build(ORTHO, n))
        theta_exhaustive(n)
        assert _sliced_meets.cache_info().misses == misses + 1, n


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


def _full_family(n: int, rows: tuple[int, ...]) -> tuple[int, int]:
    """The row set of a matrix (bit r set iff some row is r) and the
    complement of its full family (bit p set iff the union of the rows
    picked by p is not full).  A*B = Z iff row_set(A) & nonfull(B) == 0."""
    full = (1 << n) - 1
    row_set = sum(1 << r for r in set(rows))
    # the union of pick p is that of p less its lowest bit, plus one row
    union = [0] * (1 << n)
    for p in range(1, 1 << n):
        union[p] = union[p & (p - 1)] | rows[(p & -p).bit_length() - 1]
    return row_set, sum(1 << p for p, u in enumerate(union) if u != full)


def _two_and_scan(n: int) -> tuple[int, list[tuple[int, int]], int]:
    """Reference exhaustive pair search, one pair at a time: the least
    total zero count, its pairs of masks in order and the pairs tested.
    A pair is orthogonal iff both ANDs of row set and full-family
    complement are zero."""
    slots = n * n - n
    by_count = [[] for _ in range(slots + 1)]
    for mask in range(1 << slots):
        by_count[mask.bit_count()].append((mask, *_full_family(n, offdiag_rows(n, mask))))
    nodes = 0
    for total in range(2 * slots + 1):
        found = []
        for ka in range(max(0, total - slots), min(slots, total) + 1):
            group_a, group_b = by_count[ka], by_count[total - ka]
            nodes += len(group_a) * len(group_b)
            found += [
                (am, bm)
                for am, rs_a, nf_a in group_a
                for bm, rs_b, nf_b in group_b
                if not (rs_a & nf_b or rs_b & nf_a)
            ]
        if found:
            return total, sorted(found), nodes
    raise AssertionError("unreachable: (Z, I) is always orthogonal")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_theta_exhaustive_matches_two_and_scan(n):
    value, found, nodes = _two_and_scan(n)
    cert = theta_exhaustive(n)
    assert cert.value == value
    assert [(to_offdiag_mask(a), to_offdiag_mask(b)) for a, b in cert.witnesses] == found
    assert cert.total_witnesses == len(found)
    assert cert.search_stats["nodes"] == nodes


def _by_total_theta(n: int) -> tuple[int, list[tuple[int, int]], int]:
    """The exhaustive pair search by increasing total zero count: for each
    total and each split ka + kb, every left factor with ka zeros ANDs the
    meet tables of its rows and columns into the right factors with kb
    zeros.  The least total with a pair, its pairs of masks in order and
    the pairs tested."""
    slots = n * n - n
    cols_meet, rows_meet = _sliced_meets(n)
    rows = [offdiag_rows(n, mask) for mask in range(1 << slots)]
    by_count = [[] for _ in range(slots + 1)]
    for mask in range(1 << slots):
        by_count[mask.bit_count()].append(mask)
    count_set = [sum(1 << m for m in group) for group in by_count]
    nodes = 0
    for total in range(2 * slots + 1):
        found = []
        for ka in range(max(0, total - slots), min(slots, total) + 1):
            kb = total - ka
            nodes += len(by_count[ka]) * len(by_count[kb])
            for amask in by_count[ka]:
                arows = rows[amask]
                cand = reduce(and_, map(cols_meet.__getitem__, arows), count_set[kb])
                if cand:
                    cand = reduce(and_, map(rows_meet.__getitem__, _cols(arows)), cand)
                    found += zip(repeat(amask), _bits(cand))
        if found:
            return total, sorted(found), nodes
    raise AssertionError("unreachable: (Z, I) is always orthogonal")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_theta_exhaustive_matches_by_total_loop(n):
    value, found, nodes = _by_total_theta(n)
    cert = theta_exhaustive(n)
    assert cert.value == value == THETA[n]
    assert [(to_offdiag_mask(a), to_offdiag_mask(b)) for a, b in cert.witnesses] == found
    assert cert.total_witnesses == len(found)
    # every pair with at most `value` zeros, 2 * slots cells in all
    assert cert.search_stats["nodes"] == nodes == THETA_NODES[n]
    assert nodes == sum(comb(2 * (n * n - n), t) for t in range(value + 1))


def _sliced_nonfull(n):
    # the bit-sliced non-full family theta_exhaustive reads: bit m of
    # entry p is set iff the rows of mask m picked by p do not cover every
    # column, the complement of cols_meet[p]
    everything = (1 << (1 << (n * n - n))) - 1
    return [everything ^ s for s in _sliced_meets(n)[0]]


def _assert_sliced_bit(n, nonfull, m):
    # bit m of nonfull[p] against bit p of mask m's own full-family complement
    _, nf = _full_family(n, offdiag_rows(n, m))
    for p, entry in enumerate(nonfull):
        assert entry >> m & 1 == nf >> p & 1, (p, m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sliced_nonfull_every_mask(n):
    nonfull = _sliced_nonfull(n)
    assert len(nonfull) == 1 << n
    assert all(entry >> (1 << (n * n - n)) == 0 for entry in nonfull)
    for m in range(1 << (n * n - n)):
        _assert_sliced_bit(n, nonfull, m)


def test_sliced_nonfull_seeded_masks_n4():
    nonfull = _sliced_nonfull(4)
    assert all(entry >> (1 << 12) == 0 for entry in nonfull)
    rng = random.Random(2020)
    for m in [0, (1 << 12) - 1] + [rng.getrandbits(12) for _ in range(2_000)]:
        _assert_sliced_bit(4, nonfull, m)


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


def _unbounded_row_walk(n, k):
    """The self-orthogonal masks of order n with k zeros, row by row with
    no bound on the zeros left: row t of A*A is tested once every row it
    picks is placed."""
    full, stride = (1 << n) - 1, n - 1
    values = [[[r for r in range(1 << n) if r >> i & 1 and r.bit_count() == c + 1]
               for c in range(n)] for i in range(n)]
    rows, found = [0] * n, []

    def place(i, left):
        if i == n:
            found.append(offdiag_mask(n, rows))
            return
        for c in range(max(0, left - stride * (n - 1 - i)), min(stride, left) + 1):
            for r in values[i][c]:
                rows[i] = r
                if all(x >> i != 1 or _row_union(x, rows) == full for x in rows[: i + 1]):
                    place(i + 1, left - c)

    place(0, k)
    return sorted(found)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_theta_delta_matches_unbounded_row_walk(n):
    # no self-orthogonal matrix below the value, and the same minimizers at it
    cert = theta_delta_exhaustive(n)
    for k in range(cert.value):
        assert _unbounded_row_walk(n, k) == [], k
    assert _unbounded_row_walk(n, cert.value) == [to_offdiag_mask(a) for a in cert.witnesses]


@pytest.mark.parametrize("n", range(1, 9))
def test_star_is_self_orthogonal(n):
    # row 1 and column 1 all zero: the bound 2n - 2 the theta_delta walk stops at
    star = NormalMatrix.from_zeros(n, [(1, j) for j in range(1, n + 1)]
                                   + [(i, 1) for i in range(1, n + 1)])
    assert nu(star) - n == 2 * n - 2
    assert naive_odot(star, star) == all_zero(n)


def _per_level_theta_delta(n: int) -> tuple[int, list[int], int]:
    """theta_delta by one walk per zero count: for k = 0, 1, ... the
    canonical sets with at most k zeros, cut by A*A = Z, until one with k
    zeros is self-orthogonal.  The value, the masks of the closure of those
    sets under S_n x C2 and the matrices counted as tested."""
    slots, full = n * n - n, (1 << n) - 1

    def self_orthogonal(rows, zeros):
        return all(_row_union(r, rows) == full for r in rows)

    nodes = 0
    for k in range(slots + 1):
        nodes += comb(slots, k)
        found = sorted({m for rows, _, proof in _canonical_sets(n, k, self_orthogonal, Counter())
                        if proof for m in _orbit(n, offdiag_mask(n, rows))})
        if found:
            return k, found, nodes
    raise AssertionError("unreachable: Z is self-orthogonal")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_theta_delta_matches_per_level_walks(n):
    value, found, nodes = _per_level_theta_delta(n)
    cert = theta_delta_exhaustive(n)
    assert cert.value == value == THETA_DELTA[n]
    assert [to_offdiag_mask(a) for a in cert.witnesses] == found
    assert cert.total_witnesses == len(found)
    assert cert.search_stats["nodes"] == nodes == THETA_DELTA_NODES[n]


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


def test_theta_5_closure():
    cert = theta_bounded(5, budget=13)
    assert cert.completeness == COMPLETENESS_BOUNDED
    assert cert.value == 14
    assert cert.witnesses
    for a, b in cert.witnesses:
        assert is_orthogonal(a, b)
        assert sigma(a, b) == 14


def test_bounded_documents_digest():
    """The sha256 of every `theta_bounded(n, budget)` document of n = 2..6
    at budgets 0..4n - 7, `elapsed_s` removed, as one JSON list, as the
    search gave them when each outcome built its own certificate.  It pins
    value, completeness, witnesses, `total_witnesses`, `notes` and every
    counter in its key order, in all three outcomes."""
    docs = []
    for n in range(2, 7):
        for budget in range(4 * n - 6):
            doc = theta_bounded(n, budget).to_document()
            del doc["search_stats"]["elapsed_s"]
            docs.append(doc)
    assert Counter(doc["completeness"] for doc in docs) == {
        COMPLETENESS_LOWER_BOUND: 44, COMPLETENESS_BOUNDED: 4, COMPLETENESS_EXHAUSTIVE: 2
    }
    digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
    assert digest == "fbf62493e69e4d0b7f08b0159f9528c7a96e270b3fdc4330a37fd78bde3ced1b"


STATS_KEYS = ["nodes", "elapsed_s", "left_factors", "canonical", "col_cut", "leaves", "ba_rejects",
              "pre_cut", "look_cut", "look_skipped", "canonical_by_zeros"]


def _counters(stats):
    assert list(stats) == STATS_KEYS
    return tuple(v for k, v in stats.items() if k != "elapsed_s")


def test_bounded_resource_cap():
    with pytest.raises(SearchInconclusive) as exc:
        theta_bounded(7, budget=21, node_limit=100)
    # the tick past the cap raises before its extension is counted; of
    # the 100 extensions tested, 71 reach the last level and fail the
    # column bound there, and every canonical left factor so far fails it
    # too, each stopping its child loop early
    stats = exc.value.stats
    assert _counters(stats) == (
        101, 100, 18, 18, 0, 0, 71, 18, 334, [1, 1, 1, 1, 1, 1, 1, 1, 2, 8, 0]
    )
    assert sum(stats["canonical_by_zeros"]) == stats["canonical"]


def test_bounded_rejects_invalid_caps():
    for caps in ({"node_limit": -5}, {"time_limit": -1.0}, {"time_limit": float("nan")}):
        with pytest.raises(ValueError, match="negative"):
            theta_bounded(3, 2, **caps)
        with pytest.raises(ValueError, match="negative"):
            list(enumerate_orthogonal_pairs(3, 2, **caps))
    assert theta_bounded(3, 5, time_limit=float("inf")).value == 6
    assert list(enumerate_orthogonal_pairs(3, 0, node_limit=0, time_limit=0.0)) == []


def test_bounded_time_limit_at_order_7():
    # the clock is read on every tick; the search of every pair of order 7
    # with at most 21 zeros takes about 1.2 s on a 2-CPU host, six times
    # the limit
    t0 = time.monotonic()
    with pytest.raises(SearchInconclusive, match="time limit"):
        _bounded_pairs(7, 21, time_limit=0.2)
    assert time.monotonic() - t0 < 10


def test_bounded_phase_counters():
    stats = theta_bounded(4, budget=9).search_stats
    # (nodes, left_factors, canonical, col_cut, leaves, ba_rejects,
    # pre_cut, look_cut, look_skipped, canonical_by_zeros)
    assert _counters(stats) == (208, 74, 21, 8, 45, 74, 15, 9, 15, [1, 1, 3, 9, 7])
    # below the last level, 9 // 2 zeros, the canonical left factors
    # searched are at most one per orbit of S_4 x C2, level by level: the
    # look-ahead skips one with 2 zeros whose subtree holds no pair
    below = Counter(
        nu(m) - 4 for m in all_normal_matrices(4)
        if nu(m) - 4 < 9 // 2 and is_canonical(m.rows, _cols(m.rows))
    )
    assert [below[k] for k in range(9 // 2)] == [1, 1, 4, 9]
    assert all(c <= below[k] for k, c in enumerate(stats["canonical_by_zeros"][:-1]))
    assert sum(stats["canonical_by_zeros"]) == stats["canonical"]
    assert stats["left_factors"] < stats["nodes"]
    assert stats["col_cut"] <= stats["canonical"]
    # the look-ahead stops child loops of levels below the last only
    assert stats["look_cut"] <= stats["canonical"] - stats["canonical_by_zeros"][-1]
    stats = theta_bounded(5, budget=13).search_stats
    assert _counters(stats) == (
        617, 504, 125, 75, 0, 150, 159, 77, 267, [1, 1, 3, 9, 25, 59, 27]
    )


@pytest.mark.parametrize("n, max_sigma, leaves", [(4, 9, 45), (4, 10, 244), (5, 14, 58)])
def test_bounded_leaves_are_orthogonal_right_factors(n, max_sigma, leaves):
    # a leaf is a complete right factor B with sigma(B) >= sigma(A), and
    # B*A = Z holds there by construction: the leaves are exactly the
    # orthogonal pairs (A, B) with A canonical and sigma(A) <= sigma(B)
    triples, stats = _bounded_pairs(n, max_sigma)
    assert stats["leaves"] == leaves
    pairs = {(a, b) for _, a, b in triples}
    reps = [
        (a, b) for _, a, b in triples
        if a.bit_count() <= b.bit_count()
        and is_canonical(offdiag_rows(n, a), _cols(offdiag_rows(n, a)))
    ]
    assert len(reps) == leaves
    for a, b in reps:
        assert (b, a) in pairs
        am, bm = from_offdiag_mask(n, a), from_offdiag_mask(n, b)
        assert naive_odot(am, bm) == naive_odot(bm, am) == all_zero(n)


def _orbit_walk_counts(n):
    """Orbits of zero sets by size, walked: each zero set not yet seen
    opens an orbit, and its images under every relabelling, with and
    without the transpose, are marked seen."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    images = [
        {(i, j): (p[j], p[i]) if t else (p[i], p[j]) for i, j in cells}
        for p in itertools.permutations(range(n)) for t in (False, True)
    ]
    seen, counts = set(), Counter()
    for k in range(len(cells) + 1):
        for zeros in itertools.combinations(cells, k):
            if frozenset(zeros) not in seen:
                counts[k] += 1
                seen.update(frozenset(image[c] for c in zeros) for image in images)
    return [counts[k] for k in range(len(cells) + 1)]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_orbit_counts_match_orbit_walk(n):
    assert orbit_counts(n, n * n - n) == _orbit_walk_counts(n)


def _unpruned_walk(n, kmax):
    """(rows, zeros) of the canonical zero sets with at most kmax zeros,
    from the engine's walk with an `alive` that is always true, so that no
    cut fires: every canonical set is reached."""
    stats = Counter()
    walk = [(rows, k) for rows, k, _ in _canonical_sets(n, kmax, lambda rows, zeros: True, stats)]
    assert stats["pre_cut"] == stats["look_cut"] == stats["look_skipped"] == 0
    assert stats["canonical"] == len(walk) and sum(stats["canonical_by_zeros"]) == len(walk)
    return walk


@pytest.mark.parametrize("n,budget,orbits", [
    (2, 2, 2), (3, 5, 5), (4, 9, 33), (5, 13, 354), (6, 17, 7_124), (7, 16, 18_893),
])
def test_canonical_equals_orbit_count(n, budget, orbits):
    """The walk with no cut reaches one canonical zero set per orbit of
    S_n x C2 on every level, the Burnside count.  The bounded search skips
    canonical sets whose subtrees hold no pair, so none of its levels
    exceeds that count, at budget // 2 as at budget // 2 + 1."""
    counts = orbit_counts(n, budget // 2 + 1)
    assert sum(counts[:-1]) == orbits
    walked = Counter(k for _, k in _unpruned_walk(n, budget // 2))
    assert [walked[k] for k in range(budget // 2 + 1)] == counts[:-1]
    for max_sigma in (budget, budget + 2):
        by_zeros = _bounded_pairs(n, max_sigma)[1]["canonical_by_zeros"]
        assert len(by_zeros) == max_sigma // 2 + 1
        assert all(c <= o for c, o in zip(by_zeros, counts)), (by_zeros, counts)


def _least_column(n, rows, j):
    """The fewest off-diagonal zeros of column j of a right factor B with
    A*B zero in column j: with its diagonal zero it meets every row of A."""
    return min(h.bit_count() for h in range(1 << n)
               if not h >> j & 1 and all((h | 1 << j) & r for r in rows))


@pytest.mark.parametrize("n, max_sigma", [(3, 6), (4, 9), (4, 10), (5, 13), (5, 14), (6, 17)])
def test_look_ahead_keeps_every_left_factor_within_the_bound(n, max_sigma):
    """The cuts skip only canonical left factors that fail the column
    bound: every one within it, from the walk with no bound, is searched
    (`canonical` less `col_cut`), and at the last level only those are
    counted."""
    within = Counter(
        k for rows, k in _unpruned_walk(n, max_sigma // 2)
        if sum(_least_column(n, rows, j) for j in range(n)) <= max_sigma - k
    )
    _, stats = _bounded_pairs(n, max_sigma)
    assert stats["canonical"] - stats["col_cut"] == sum(within.values())
    assert stats["canonical_by_zeros"][-1] == within[max_sigma // 2]


def _self_orthogonal_sets(walk, n, k):
    """The rows of the sets with k zeros of a walk that are self-orthogonal
    by the triple-loop product."""
    zero = all_zero(n)
    return sorted(rows for rows, zeros in walk
                  if zeros == k and naive_odot(m := NormalMatrix(n, rows), m) == zero)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_theta_delta_cut_keeps_every_self_orthogonal_set(n):
    """The walk cut by A*A = Z, as `theta_delta_exhaustive` cuts it, yields
    no self-orthogonal set below the value and the same ones as the walk
    with no cut at it, and only canonical sets that walk reaches."""
    zero = all_zero(n)

    def self_orthogonal(rows, zeros):
        return naive_odot(m := NormalMatrix(n, rows), m) == zero

    value = THETA_DELTA[n]
    unpruned = _unpruned_walk(n, value)
    for k in range(value + 1):
        stats = Counter()
        walk = [(rows, z) for rows, z, _ in _canonical_sets(n, k, self_orthogonal, stats)]
        assert set(walk) <= set(unpruned)
        assert _self_orthogonal_sets(walk, n, k) == _self_orthogonal_sets(unpruned, n, k)
        assert bool(_self_orthogonal_sets(walk, n, k)) == (k == value), k
    # the cuts fired, and from n = 3 on the last walk skipped canonical sets
    assert stats["look_cut"]
    assert len(walk) < len(unpruned) or n == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_matches_row_write_out(n):
    # every image of a mask under S_n x C2, from `conftest.conjugations`
    # of its rows and of its transpose; at n = 1 mask 0 under both elements
    for mask in range(min(1 << (n * n - n), 300)):
        rows = offdiag_rows(n, mask)
        want = [offdiag_mask(n, [img[a[s]] for s in src])
                for a in (rows, _cols(rows)) for src, img in conjugations(n)]
        assert sorted(_orbit(n, mask)) == sorted(want), mask


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
    # the row-set and full-family predicate of the exhaustive oracle, and
    # those with at most b zeros at every budget b below
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
    for budget in range(10):
        triples, _ = _bounded_pairs(4, budget)
        assert triples == sorted(t for t in scan if t[0] <= budget), budget


@pytest.mark.parametrize("n, max_sigma, count, digest", [
    (5, 14, 6680, "e4e22753145c2c872f1633ce71bd94f720abac426acb2fddda35e7a8aeaac1b8"),
    (6, 18, 3000, "e49b4c38140fb3889b1c88ec438b88573adc37586646bb6f8f2cb830d538ebe5"),
])
def test_bounded_triples_digest(n, max_sigma, count, digest):
    # the sha256 of the sorted (sigma, amask, bmask) triples' repr, as the
    # search gave them before the look-ahead cut
    triples, _ = _bounded_pairs(n, max_sigma)
    assert len(triples) == count
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == digest


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


def _closure_on_rows(n, reps):
    """Reference orbit closure, written out on rows: every conjugation
    (`conftest.conjugations`) of both factors and of both transposes,
    re-encoded to masks, each also swapped."""
    found = set()
    for sig, am, bm in reps:
        ar, br = offdiag_rows(n, am), offdiag_rows(n, bm)
        for a, b in ((ar, br), (_cols(ar), _cols(br))):
            for src, img in conjugations(n):
                ima = offdiag_mask(n, [img[a[s]] for s in src])
                imb = offdiag_mask(n, [img[b[s]] for s in src])
                found |= {(sig, ima, imb), (sig, imb, ima)}
    return found


@pytest.mark.parametrize("n, max_sigma", [(4, 10), (5, 14), (6, 18)])
def test_closure_matches_row_write_out(n, max_sigma):
    # the pairs the engine finds before closing them: canonical left
    # factor with no more zeros than the right one; their closure on rows
    # is the engine's closure on masks
    triples, stats = _bounded_pairs(n, max_sigma)
    reps = [
        (sig, am, bm) for sig, am, bm in triples
        if 2 * am.bit_count() <= sig
        and is_canonical(rows := offdiag_rows(n, am), _cols(rows))
    ]
    assert len(reps) == stats["leaves"]
    assert _closure_on_rows(n, reps) == set(triples)


def test_slot_table_built_only_when_pairs_are_found():
    _slot_images.cache_clear()
    cert = theta_bounded(5, 13)
    assert cert.total_witnesses == 1 and cert.completeness == COMPLETENESS_BOUNDED
    assert _slot_images.cache_info().currsize == 0
    assert theta_bounded(4, 9).value == 8
    assert _slot_images.cache_info().currsize == 1


@pytest.mark.parametrize("n, max_sigma", [(3, 6), (4, 10)])
def test_enumerate_decodes_each_triple(n, max_sigma):
    pairs = list(enumerate_orthogonal_pairs(n, max_sigma))
    triples, _ = _bounded_pairs(n, max_sigma)
    assert pairs == [_pair_from_masks(n, a, b) for _, a, b in triples]
    # one matrix per distinct mask, shared by every pair that holds it
    masks = {m for _, a, b in triples for m in (a, b)}
    assert len({id(m) for p in pairs for m in p}) == len(masks)


def test_bounded_guards():
    with pytest.raises(ValueError):
        theta_bounded(8, budget=5)
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
        list(enumerate_orthogonal_pairs(8, max_sigma=4))
    with pytest.raises(ValueError):
        list(enumerate_orthogonal_pairs(4, max_sigma=11))


def _seen_set_generic_pairs(n):
    """The generic family pairs with distinct members and k != m, deduped
    through a set of row pairs, in the order first built."""
    out = []
    seen = set()
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            if k == m:
                continue
            for variant in range(4):
                a, b = mm_pair(MmVariant(k, m, variant), n)
                if a == b:
                    continue
                key = (a.rows, b.rows)
                if key not in seen:
                    seen.add(key)
                    out.append((a, b))
    return out


@pytest.mark.parametrize("n, count", zip(range(2, 11), (4, 20, 48, 80, 120, 168, 224, 288, 360)))
def test_mm_generic_pairs_match_seen_set_dedupe(n, count):
    pairs = _mm_generic_pairs(n)
    assert pairs == _seen_set_generic_pairs(n)
    assert len(pairs) == len(set(pairs)) == count


@pytest.mark.parametrize("n", range(2, 11))
def test_mm_generic_pairs_have_distinct_members(n):
    # every generic family pair with k != m has A != B at each order that
    # check-theorem accepts, so `_mm_generic_pairs` needs no filter on it
    for k, m in itertools.permutations(range(1, n + 1), 2):
        for variant in range(4):
            a, b = mm_pair(MmVariant(k, m, variant), n)
            assert a != b, (n, k, m, variant)


def test_certificate_document():
    cert = theta_exhaustive(3)
    doc = cert.to_document()
    assert doc["n"] == 3
    assert doc["value"] == 6
    assert doc["completeness"] == COMPLETENESS_EXHAUSTIVE
    assert len(doc["witnesses"]) == min(66, 10_000)
    assert doc["total_witnesses"] == 66


def test_check_theorem_order_two_matches_exhaustive_oracle():
    # the n = 2 equivalence runs on the enumeration; the exhaustive search
    # gives the same theta and the same minimal pairs, which are the family's
    res = check_theorem_theta(2)
    cert = theta_exhaustive(2)
    assert res == {"n": 2, "mode": "equivalence", "holds": True, "theta": cert.value,
                   "minimal_pairs": cert.total_witnesses, "family_pairs": 4}
    pairs = [p for p in enumerate_orthogonal_pairs(2, 2) if sigma(*p) == cert.value]
    assert set(pairs) == set(cert.witnesses) == set(_mm_generic_pairs(2))


# the whole document of each order, key order included
CHECK_THEOREM = {
    2: {"n": 2, "mode": "equivalence", "holds": True, "theta": 2, "minimal_pairs": 4,
        "family_pairs": 4},
    **{n: {"n": n, "mode": "counterexample", "holds": True, "theta": theta,
           "minimal_pairs": minimal, "outside_family": outside, "stored_outsider_found": True}
       for n, theta, minimal, outside in
       ((3, 6, 66, 46), (4, 8, 18, 18), (5, 14, 6680, 6600), (6, 18, 3000, 2880))},
    **{n: {"n": n, "mode": "forward", "holds": True, "checked": checked, "sigma": 4 * n - 6,
           "gift": (n - 2) * (n - 3)}
       for n, checked in ((7, 168), (8, 224), (9, 288), (10, 360))},
}


def test_check_theorem_small_orders():
    for n in range(2, 7):
        assert list(check_theorem_theta(n).items()) == list(CHECK_THEOREM[n].items())


def test_check_theorem_large_orders():
    for n in (7, 8, 9, 10):
        assert list(check_theorem_theta(n).items()) == list(CHECK_THEOREM[n].items())


def test_check_theorem_mode_follows_the_minimal_pairs(monkeypatch, capsys):
    # the mode is read off the minimal pairs, not off the order
    family = sorted((6, to_offdiag_mask(a), to_offdiag_mask(b)) for a, b in _mm_generic_pairs(3))
    monkeypatch.setattr(search, "_bounded_pairs", lambda n, max_sigma: (family, {}))
    assert check_theorem_theta(3) == {"n": 3, "mode": "equivalence", "holds": True, "theta": 6,
                                      "minimal_pairs": 20, "family_pairs": 20}
    # an outsider at an order with no stored one: a failed claim, not a KeyError
    real, _ = _bounded_pairs(2, 2)
    outsider = (2, 1, 1)  # both factors zero at (1, 2) alone
    assert outsider not in real and mm_classify(*_pair_from_masks(2, 1, 1)) is None
    monkeypatch.setattr(search, "_bounded_pairs",
                        lambda n, max_sigma: (sorted([*real, outsider]), {}))
    want = {"n": 2, "mode": "counterexample", "holds": False, "theta": 2, "minimal_pairs": 5,
            "outside_family": 1, "stored_outsider_found": False}
    assert list(check_theorem_theta(2).items()) == list(want.items())
    assert cli.main(["check-theorem", "--n", "2"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"command": "check-theorem", **want}
    assert err.splitlines() == ["mode counterexample, holds: False",
                                "property check failed: theorem check failed"]


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
    with pytest.raises(ValueError, match="2 <= n <= 7"):
        list(enumerate_orthogonal_pairs(1, 0))
    with pytest.raises(ValueError, match="2 <= n <= 7"):
        theta_bounded(1, 0)
    # no pair fits and no witness at budget + 1: only a lower bound
    cert = theta_bounded(3, 0)
    assert (cert.completeness, cert.value, cert.witnesses) == (
        COMPLETENESS_LOWER_BOUND, 1, []
    )
    assert list(enumerate_orthogonal_pairs(3, 0)) == []
