"""Search oracles for the extremal zero counts of orthogonal pairs.

Two engines pin the minimum number of off-diagonal zeros:

* exhaustive oracles (small orders) that walk zero patterns by
  increasing total count and test every one: a pair by two ANDs of row
  sets and full-family complements (`_full_family`), a self-orthogonal
  candidate row by row, built from per-row values with fixed zero counts;
* a branch-and-bound engine that grows left factors and enumerates the
  right factor column by column under exact hitting-set bounds (column
  j of B must meet row i of A wherever a_ij = -1; orthogonality is this
  condition for both products).  Conjugation by permutation matrices,
  the transpose and the swap A <-> B preserve orthogonality and zero
  counts, so it grows only left factors with sigma(A) <= sigma(B), one
  per orbit of S_n x C2, and closes the pairs it finds under the group.

Both report certificates with explicit completeness claims: `exhaustive`
(every pair below the value was tested), `bounded_proof` (no pair fits
the budget and a witness attains budget + 1) or `lower_bound` (no pair
fits the budget, and no witness is attached).  Resource caps abort with a
distinguishable error instead of a silent truncation.

Both walk off-diagonal masks and take the mask codec, the row-union
kernel, the canonical form and the conjugation tables from `core`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import reduce
from math import comb
from operator import and_

from .core import (
    NormalMatrix,
    SearchInconclusive,
    _bits,
    _cols,
    _conj_tables,
    _offdiag_tables,
    _row_union,
    format_matrix,
    from_offdiag_mask,
    is_canonical,
    offdiag_mask,
    offdiag_rows,
    sigma,
)
from .families import MmVariant, mm_classify, mm_pair
from .ortho import indicator, is_orthogonal
from . import fixtures

WITNESS_CAP = 10_000

COMPLETENESS_EXHAUSTIVE = "exhaustive"
COMPLETENESS_BOUNDED = "bounded_proof"
COMPLETENESS_LOWER_BOUND = "lower_bound"


@dataclass
class ThetaCertificate:
    n: int
    kind: str  # 'pair' or 'self'
    value: int
    completeness: str
    budget: int | None = None
    witnesses: list = field(default_factory=list)
    total_witnesses: int = 0
    search_stats: dict = field(default_factory=dict)
    notes: str = ""

    def to_document(self) -> dict:
        if self.kind == "pair":
            wit = [
                {"a": format_matrix(a), "b": format_matrix(b)}
                for (a, b) in self.witnesses[:WITNESS_CAP]
            ]
        else:
            wit = [format_matrix(a) for a in self.witnesses[:WITNESS_CAP]]
        return {
            "n": self.n,
            "kind": self.kind,
            "value": self.value,
            "completeness": self.completeness,
            "budget": self.budget,
            "total_witnesses": self.total_witnesses,
            "witnesses": wit,
            "search_stats": self.search_stats,
            "notes": self.notes,
        }


def _pair_from_masks(n: int, amask: int, bmask: int) -> tuple[NormalMatrix, NormalMatrix]:
    return from_offdiag_mask(n, amask), from_offdiag_mask(n, bmask)


# -- exhaustive oracle -------------------------------------------------

THETA_EXHAUSTIVE_GUARD = 4


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


def theta_exhaustive(n: int) -> ThetaCertificate:
    """Exact minimum of off-diagonal zeros over all mutually orthogonal
    ordered pairs, with every minimal pair enumerated.  Guarded at n <= 4."""
    if n > THETA_EXHAUSTIVE_GUARD:
        raise ValueError(f"exhaustive pair search refused above n={THETA_EXHAUSTIVE_GUARD}")
    if n < 1:
        raise ValueError("n must be positive")
    t0 = time.monotonic()
    slots = n * n - n
    by_count: list[list[tuple[int, int, int]]] = [[] for _ in range(slots + 1)]
    for mask in range(1 << slots):
        by_count[mask.bit_count()].append((mask, *_full_family(n, offdiag_rows(n, mask))))

    nodes = 0
    for total in range(2 * slots + 1):
        found: list[tuple[int, int]] = []
        for ka in range(max(0, total - slots), min(slots, total) + 1):
            group_a, group_b = by_count[ka], by_count[total - ka]
            nodes += len(group_a) * len(group_b)
            for amask, rs_a, nf_a in group_a:
                found += [
                    (amask, bmask)
                    for bmask, rs_b, nf_b in group_b
                    if not (rs_a & nf_b or rs_b & nf_a)
                ]
        if found:
            found.sort()
            witnesses = [_pair_from_masks(n, a, b) for a, b in found]
            return ThetaCertificate(
                n=n,
                kind="pair",
                value=total,
                completeness=COMPLETENESS_EXHAUSTIVE,
                witnesses=witnesses[:WITNESS_CAP],
                total_witnesses=len(found),
                search_stats={"nodes": nodes, "elapsed_s": time.monotonic() - t0},
            )
    raise AssertionError("unreachable: (Z, I) is always orthogonal")


THETA_DELTA_GUARD = 5


def theta_delta_exhaustive(n: int) -> ThetaCertificate:
    """Exact minimum of off-diagonal zeros over self-orthogonal matrices,
    with all minimizers enumerated.  Guarded at n <= 5."""
    if n > THETA_DELTA_GUARD:
        raise ValueError(f"exhaustive self search refused above n={THETA_DELTA_GUARD}")
    if n < 1:
        raise ValueError("n must be positive")
    t0 = time.monotonic()
    slots = n * n - n
    stride = n - 1
    full = (1 << n) - 1
    # per row i and count c, the values of row i with c off-diagonal zeros
    values = [
        [[r for f, r in enumerate(row) if f.bit_count() == c] for c in range(stride + 1)]
        for _, row in _offdiag_tables(n)
    ]
    rows = [0] * n
    found: list[int] = []

    def place(i: int, left: int) -> None:
        # rows 0..i-1 are placed, and rows i..n-1 take `left` more zeros
        if i == n:
            found.append(offdiag_mask(n, rows))
            return
        for c in range(max(0, left - stride * (n - 1 - i)), min(stride, left) + 1):
            for r in values[i][c]:
                rows[i] = r
                # row t of A*A needs rows 0..h only, h the highest set bit
                # of row t: test each row once it is decided
                for x in rows[: i + 1]:
                    if x >> i == 1 and _row_union(x, rows) != full:
                        break
                else:
                    place(i + 1, left - c)

    nodes = 0
    for k in range(slots + 1):
        nodes += comb(slots, k)
        place(0, k)
        if found:
            found.sort()
            witnesses = [from_offdiag_mask(n, m) for m in found]
            return ThetaCertificate(
                n=n,
                kind="self",
                value=k,
                completeness=COMPLETENESS_EXHAUSTIVE,
                witnesses=witnesses[:WITNESS_CAP],
                total_witnesses=len(found),
                search_stats={"nodes": nodes, "elapsed_s": time.monotonic() - t0},
            )
    raise AssertionError("unreachable: Z is self-orthogonal")


# -- branch-and-bound engine --------------------------------------------


def _bounded_pairs(
    n: int,
    max_sigma: int,
    node_limit: int = 200_000_000,
    time_limit: float = 3600.0,
) -> tuple[list[tuple[int, int, int]], dict]:
    """All orthogonal pairs with at most max_sigma off-diagonal zeros, as
    sorted (sigma, amask, bmask) triples, plus search stats.

    Conjugation by permutation matrices and the transpose, applied to both
    factors, and the swap A <-> B preserve orthogonality and sigma, so
    every pair is the image of one whose left factor has sigma(A) <=
    sigma(B) and is canonical under S_n x C2 (`core.is_canonical`).  Only
    those left factors are searched, grown by orderly generation (Read,
    1978): a canonical one is extended only by cells less significant
    than its least one (row ascending, then column descending) and an
    extension is kept only if canonical, which reaches every canonical
    set.  The pairs found are closed under the group and the swap by
    writing out their orbits through `core._conj_tables`.

    The right factor is enumerated column by column from candidate bitsets
    built once per call: column j of B takes the masks without bit j,
    fewest zeros first, and `meets[j][r]` marks those allowed beside a row
    r of A (all if r has a zero at j, else those that meet r).  Per left
    factor, their AND over the rows of A lists the valid columns, and its
    lowest bit gives the least zero count, whose sum over j bounds B.

    The stats count ticks (`nodes`: extensions tested plus DFS nodes), the
    extensions tested (`left_factors`), the canonical left factors searched,
    those cut by the column bound, DFS leaves with sigma(B) >= sigma(A),
    and the leaves rejected because BA is not all zero.  A negative cap or
    a NaN time limit raises ValueError.
    """
    if node_limit < 0:
        raise ValueError(f"node limit {node_limit} is negative")
    if not time_limit >= 0:
        raise ValueError(f"time limit {time_limit} is negative or NaN")
    t0 = time.monotonic()
    keys = ("nodes", "elapsed_s", "left_factors", "canonical", "col_cut", "leaves", "ba_rejects")
    stats = dict.fromkeys(keys, 0)

    def tick() -> None:
        stats["nodes"] += 1
        over = stats["nodes"] > node_limit
        if over or time.monotonic() - t0 > time_limit:
            stats["elapsed_s"] = time.monotonic() - t0
            cap = f"node limit {node_limit}" if over else f"time limit {time_limit}s"
            raise SearchInconclusive(f"{cap} exceeded", stats)

    full = (1 << n) - 1

    # per column j: the candidates as (zero count, row indices), and `meets`
    cands, meets = [], []
    for j in range(n):
        masks = sorted(
            (h for h in range(1 << n) if not h >> j & 1),
            key=lambda h: (h.bit_count(), h),
        )
        cands.append([(h.bit_count(), tuple(_bits(h))) for h in masks])
        meets.append([
            sum(1 << t for t, h in enumerate(masks) if r >> j & 1 or h & r)
            for r in range(1 << n)
        ])

    reduced: list[tuple[int, int, int]] = []

    def search_left(arows: tuple[int, ...], a_off: int) -> None:
        b_budget = max_sigma - a_off
        oks = [reduce(and_, map(m.__getitem__, arows)) for m in meets]
        # the lowest allowed candidate is the cheapest column j can take
        col_min = [cands[j][(ok & -ok).bit_length() - 1][0] for j, ok in enumerate(oks)]
        if sum(col_min) > b_budget:
            stats["col_cut"] += 1
            return
        valid_cols = [[cands[j][t] for t in _bits(ok)] for j, ok in enumerate(oks)]
        suffix = [sum(col_min[j:]) for j in range(n + 1)]

        # DFS over columns of B
        brow_partial = [1 << i for i in range(n)]  # diagonal always zero

        def descend(j: int, used: int):
            tick()
            if j == n:
                if used < a_off:
                    return  # found from (B, A), whose left factor has fewer zeros
                stats["leaves"] += 1
                # AB = Z holds by column construction; check BA = Z
                for br in brow_partial:
                    if _row_union(br, arows) != full:
                        stats["ba_rejects"] += 1
                        return
                bmask = offdiag_mask(n, brow_partial)
                reduced.append((a_off + used, offdiag_mask(n, arows), bmask))
                return
            rest = suffix[j + 1]
            jbit = 1 << j
            for sz, idx in valid_cols[j]:
                if used + sz + rest > b_budget:
                    break
                # set column j bits into the partial rows
                for i in idx:
                    brow_partial[i] |= jbit
                descend(j + 1, used + sz)
                for i in idx:
                    brow_partial[i] ^= jbit

        descend(0, 0)

    # off-diagonal cells by significance, as (row, column bit); deleting
    # the least significant cell of a canonical set leaves a canonical set
    cells = [(i, 1 << j) for i in range(n) for j in reversed(range(n)) if j != i]

    def grow(arows: list[int], a_off: int, start: int) -> None:
        stats["canonical"] += 1
        search_left(tuple(arows), a_off)
        if a_off == max_sigma // 2:
            return
        for k in range(start, len(cells)):
            i, jbit = cells[k]
            tick()
            stats["left_factors"] += 1
            arows[i] |= jbit
            if is_canonical(arows):
                grow(arows, a_off + 1, k + 1)
            arows[i] ^= jbit

    grow([1 << i for i in range(n)], 0, 0)

    # close the pairs found under the group: write out the orbit of each
    # pair not reached yet, every conjugation of both factors and of both
    # transposes, each also swapped
    tables = _conj_tables(n)
    found = set()
    for sig, am, bm in reduced:
        if (sig, am, bm) in found:
            continue
        ar, br = offdiag_rows(n, am), offdiag_rows(n, bm)
        for a, b in ((ar, br), (_cols(ar), _cols(br))):
            for src, img in tables:
                ima = offdiag_mask(n, [img[a[s]] for s in src])
                imb = offdiag_mask(n, [img[b[s]] for s in src])
                found.add((sig, ima, imb))
                found.add((sig, imb, ima))
    stats["elapsed_s"] = time.monotonic() - t0
    return sorted(found), stats


def enumerate_orthogonal_pairs(
    n: int,
    max_sigma: int,
    node_limit: int = 200_000_000,
    time_limit: float = 3600.0,
):
    """Yield every orthogonal pair with at most max_sigma off-diagonal zeros
    exactly once, ordered by (sigma, left mask, right mask)."""
    if not 2 <= n <= 6:
        raise ValueError("pair enumeration supports 2 <= n <= 6")
    if max_sigma < 0:
        raise ValueError(f"max_sigma {max_sigma} is negative")
    if max_sigma > 4 * n - 6:
        raise ValueError(f"max_sigma {max_sigma} exceeds the 4n-6 guard")
    triples, _ = _bounded_pairs(n, max_sigma, node_limit, time_limit)
    for _, amask, bmask in triples:
        yield _pair_from_masks(n, amask, bmask)


def theta_bounded(
    n: int,
    budget: int,
    node_limit: int = 200_000_000,
    time_limit: float = 3600.0,
) -> ThetaCertificate:
    """Either the exact minimum (when a pair within budget exists) or a
    proof that no orthogonal pair has at most `budget` off-diagonal zeros.

    In the proof case the value is budget + 1.  When budget + 1 = 4n - 6
    the generic minimal-family pair realizes it and the certificate is a
    bounded proof of the minimum; otherwise no witness is attached and the
    certificate only claims a lower bound."""
    if not 2 <= n <= 6:
        raise ValueError("bounded search supports 2 <= n <= 6")
    if budget < 0:
        raise ValueError(f"budget {budget} is negative")
    if budget > 4 * n - 7:
        raise ValueError(f"budget {budget} exceeds the 4n-7 guard")
    triples, stats = _bounded_pairs(n, budget, node_limit, time_limit)
    if triples:
        best = triples[0][0]
        found = [t for t in triples if t[0] == best]
        return ThetaCertificate(
            n=n,
            kind="pair",
            value=best,
            completeness=COMPLETENESS_EXHAUSTIVE,
            budget=budget,
            witnesses=[_pair_from_masks(n, a, b) for _, a, b in found[:WITNESS_CAP]],
            total_witnesses=len(found),
            search_stats=stats,
        )
    if budget + 1 == 4 * n - 6:
        witnesses = [mm_pair(MmVariant(1, 2, 0), n)]
        completeness = COMPLETENESS_BOUNDED
        notes = "witness is the generic minimal-family pair at 4n-6"
    else:
        witnesses = []
        completeness = COMPLETENESS_LOWER_BOUND
        notes = "no witness at budget+1 constructed; value is a lower bound"
    return ThetaCertificate(
        n=n,
        kind="pair",
        value=budget + 1,
        completeness=completeness,
        budget=budget,
        witnesses=witnesses,
        total_witnesses=len(witnesses),
        search_stats=stats,
        notes=notes,
    )


# -- the minimality theorem at desk scale --------------------------------


def _mm_generic_pairs(n: int) -> list[tuple[NormalMatrix, NormalMatrix]]:
    """All generic minimal-family pairs with distinct members and k != m."""
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


def check_theorem_theta(n: int) -> dict:
    """Machine-check of the minimal-pair characterization.

    n = 2: the exhaustive minimal pairs coincide with the generic family.
    n = 3..6: the equivalence fails; the stored outsider pair is among
    the minimal pairs and lies outside the family.  The minimal pairs are
    those of least sigma in `enumerate_orthogonal_pairs(n, 4n - 6)`, which
    lists every pair up to the family's 4n - 6 zeros, so the least sigma
    there is theta(n).
    n = 7..10: forward direction only; every generic family pair is
    orthogonal with the predicted zero counts.
    """
    if n == 2:
        cert = theta_exhaustive(2)
        minimal = {(a.rows, b.rows) for a, b in cert.witnesses}
        generic = {(a.rows, b.rows) for a, b in _mm_generic_pairs(2)}
        return {
            "n": n,
            "mode": "equivalence",
            "holds": minimal == generic,
            "theta": cert.value,
            "minimal_pairs": len(minimal),
            "family_pairs": len(generic),
        }
    if 3 <= n <= 6:
        pairs = list(enumerate_orthogonal_pairs(n, 4 * n - 6))
        theta = sigma(*pairs[0])
        minimal = [p for p in pairs if sigma(*p) == theta]
        outsiders = {p for p in minimal if mm_classify(*p) is None}
        stored_found = fixtures.minimal_pair_outside_family(n) in outsiders
        return {
            "n": n,
            "mode": "counterexample",
            "holds": bool(outsiders) and stored_found,
            "theta": theta,
            "minimal_pairs": len(minimal),
            "outside_family": len(outsiders),
            "stored_outsider_found": stored_found,
        }
    if 7 <= n <= 10:
        expected_sigma = 4 * n - 6
        expected_gift = (n - 2) * (n - 3)
        checked = 0
        for a, b in _mm_generic_pairs(n):
            rep = indicator(a, b)
            if not (
                is_orthogonal(a, b)
                and sigma(a, b) == expected_sigma
                and rep.prop_count == expected_sigma
                and rep.gift_count == expected_gift
            ):
                return {"n": n, "mode": "forward", "holds": False, "checked": checked}
            checked += 1
        return {
            "n": n,
            "mode": "forward",
            "holds": True,
            "checked": checked,
            "sigma": expected_sigma,
            "gift": expected_gift,
        }
    raise ValueError(f"unsupported n={n}: use 2..10")
