"""Search oracles for the extremal zero counts of orthogonal pairs.

Two engines pin the minimum number of off-diagonal zeros:

* an exhaustive oracle (small orders) that walks zero patterns by
  increasing total count and tests orthogonality directly;
* a branch-and-bound engine that scans left factors and bounds the
  right factor through exact hitting-set lower bounds per row/column
  (each column of B must intersect every zero-row of A, and each row
  of B every zero-column of A — orthogonality is exactly this pair of
  transversal conditions).

Both report certificates with explicit completeness claims: `exhaustive`
(every pair below the value was tested), `bounded_proof` (no pair fits
the budget and a witness attains budget + 1) or `lower_bound` (no pair
fits the budget, and no witness is attached).  Resource caps abort with a
distinguishable error instead of a silent truncation.

Both walk off-diagonal masks and take the mask codec, the row-union
kernel and the bit transpose from `core`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from .core import (
    NormalMatrix,
    _bits,
    _cols,
    _row_union,
    format_matrix,
    from_offdiag_mask,
    identity,
    offdiag_mask,
    offdiag_rows,
    sigma,
)
from .families import MmVariant, mm_classify, mm_pair
from .ortho import _orth_rows, indicator, is_orthogonal
from . import fixtures

WITNESS_CAP = 10_000

COMPLETENESS_EXHAUSTIVE = "exhaustive"
COMPLETENESS_BOUNDED = "bounded_proof"
COMPLETENESS_LOWER_BOUND = "lower_bound"


class SearchInconclusive(RuntimeError):
    """A resource cap was hit before the search finished."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


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


def theta_exhaustive(n: int) -> ThetaCertificate:
    """Exact minimum of off-diagonal zeros over all mutually orthogonal
    ordered pairs, with every minimal pair enumerated.  Guarded at n <= 4."""
    if n > THETA_EXHAUSTIVE_GUARD:
        raise ValueError(f"exhaustive pair search refused above n={THETA_EXHAUSTIVE_GUARD}")
    if n < 1:
        raise ValueError("n must be positive")
    t0 = time.monotonic()
    if n == 1:
        # the only matrix is [0], self-orthogonal with no off-diagonal zeros
        m = identity(1)
        return ThetaCertificate(
            n=1,
            kind="pair",
            value=0,
            completeness=COMPLETENESS_EXHAUSTIVE,
            witnesses=[(m, m)],
            total_witnesses=1,
            search_stats={"nodes": 1, "elapsed_s": time.monotonic() - t0},
        )

    slots = n * n - n
    full = (1 << n) - 1
    rows = [offdiag_rows(n, mask) for mask in range(1 << slots)]
    by_count: dict[int, list[int]] = {}
    for mask in range(1 << slots):
        by_count.setdefault(mask.bit_count(), []).append(mask)

    nodes = 0
    for total in range(2 * slots + 1):
        found: list[tuple[int, int]] = []
        for ka in range(max(0, total - slots), min(slots, total) + 1):
            kb = total - ka
            for amask in by_count.get(ka, ()):
                arows = rows[amask]
                for bmask in by_count.get(kb, ()):
                    nodes += 1
                    if _orth_rows(arows, rows[bmask], full):
                        found.append((amask, bmask))
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
    full = (1 << n) - 1
    slot_ids = list(range(slots))

    nodes = 0
    for k in range(slots + 1):
        found: list[int] = []
        for chosen in combinations(slot_ids, k):
            nodes += 1
            mask = 0
            for s in chosen:
                mask |= 1 << s
            rows = offdiag_rows(n, mask)
            if _orth_rows(rows, rows, full):
                found.append(mask)
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


@dataclass
class _BnbContext:
    node_limit: int
    time_limit: float
    t0: float = 0.0
    nodes: int = 0

    def tick(self, count: int = 1) -> None:
        self.nodes += count
        if self.nodes > self.node_limit:
            raise SearchInconclusive(
                f"node limit {self.node_limit} exceeded", self.stats()
            )
        if self.nodes % 65536 < count and time.monotonic() - self.t0 > self.time_limit:
            raise SearchInconclusive(
                f"time limit {self.time_limit}s exceeded", self.stats()
            )

    def stats(self) -> dict:
        return {"nodes": self.nodes, "elapsed_s": time.monotonic() - self.t0}


def _min_hitting_size(fam: tuple[int, ...], subsets_sorted: list[tuple[int, int, tuple]]) -> int:
    """Exact minimum hitting-set size for a family of nonempty masks; the
    candidate subsets come pre-sorted by popcount."""
    for h, sz, _ in subsets_sorted:
        ok = True
        for f in fam:
            if not h & f:
                ok = False
                break
        if ok:
            return sz
    return 1 << 30  # some family member is empty: unsatisfiable


def _bounded_pairs(
    n: int,
    max_sigma: int,
    node_limit: int = 200_000_000,
    time_limit: float = 3600.0,
) -> tuple[list[tuple[int, int, int]], dict]:
    """All orthogonal pairs with at most max_sigma off-diagonal zeros, as
    (sigma, amask, bmask) triples, plus search stats.

    The left factor is scanned exhaustively; for each one, the right factor
    is bounded below by exact per-column and per-row hitting-set sizes and
    then enumerated column by column.
    """
    ctx = _BnbContext(node_limit, time_limit)
    ctx.t0 = time.monotonic()

    slots = n * (n - 1)
    full = (1 << n) - 1

    # per column j: candidate off-diagonal column masks over rows != j,
    # sorted by popcount, as (mask, popcount, row indices); mask bit is
    # the true row index
    universes = []
    for j in range(n):
        subs = sorted(
            (h for h in range(1 << n) if not h >> j & 1),
            key=lambda h: (h.bit_count(), h),
        )
        universes.append([(h, h.bit_count(), tuple(_bits(h))) for h in subs])

    results: list[tuple[int, int, int]] = []

    for amask in range(1 << slots):
        ctx.tick()
        a_off = amask.bit_count()
        if a_off > max_sigma:
            continue
        b_budget = max_sigma - a_off
        arows = offdiag_rows(n, amask)
        acols = _cols(arows)

        # families: column j of B must hit arows[i] - {j} whenever a_ij != 0
        col_fams = []
        col_min = []
        feasible = True
        need = 0
        for j in range(n):
            jbit = 1 << j
            fam = tuple(
                arows[i] & ~jbit for i in range(n) if not arows[i] & jbit
            )
            col_fams.append(fam)
            mh = _min_hitting_size(fam, universes[j]) if fam else 0
            col_min.append(mh)
            need += mh
            if need > b_budget:
                feasible = False
                break
        if not feasible:
            continue

        row_need = 0
        for i in range(n):
            ibit = 1 << i
            fam = tuple(
                acols[j] & ~ibit for j in range(n) if not acols[j] & ibit
            )
            if fam:
                row_need += _min_hitting_size(fam, universes[i])
                if row_need > b_budget:
                    feasible = False
                    break
        if not feasible:
            continue

        # candidate columns per position, cheapest first
        valid_cols: list[list[tuple[int, int, tuple[int, ...]]]] = []
        suffix = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            suffix[j] = suffix[j + 1] + col_min[j]
        for j in range(n):
            cap = b_budget - (suffix[0] - col_min[j])
            fam = col_fams[j]
            vc = []
            for col in universes[j]:
                h, sz, _ = col
                if sz > cap:
                    break
                ok = True
                for f in fam:
                    if not h & f:
                        ok = False
                        break
                if ok:
                    vc.append(col)
            valid_cols.append(vc)

        # DFS over columns of B
        brow_partial = [1 << i for i in range(n)]  # diagonal always zero

        def descend(j: int, used: int):
            ctx.tick()
            if j == n:
                # AB = Z holds by column construction; check BA = Z
                for br in brow_partial:
                    if _row_union(br, arows) != full:
                        return
                results.append((a_off + used, amask, offdiag_mask(n, brow_partial)))
                return
            rest = suffix[j + 1]
            jbit = 1 << j
            for _, sz, idx in valid_cols[j]:
                if used + sz + rest > b_budget:
                    break
                # set column j bits into the partial rows
                for i in idx:
                    brow_partial[i] |= jbit
                descend(j + 1, used + sz)
                for i in idx:
                    brow_partial[i] ^= jbit

        descend(0, 0)

    results.sort()
    return results, ctx.stats()


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
    n = 3, 4: the equivalence fails; the stored outsider pair is among the
    exhaustive minimal pairs and classifies outside the family.
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
    if n in (3, 4):
        cert = theta_exhaustive(n)
        outsiders = [
            (a, b) for a, b in cert.witnesses if mm_classify(a, b) is None
        ]
        stored = fixtures.minimal_pair_outside_family(n)
        stored_found = any(
            (a.rows, b.rows) == (stored[0].rows, stored[1].rows)
            for a, b in outsiders
        )
        return {
            "n": n,
            "mode": "counterexample",
            "holds": bool(outsiders) and stored_found,
            "theta": cert.value,
            "minimal_pairs": cert.total_witnesses,
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
    raise ValueError(f"unsupported n={n}: use 2, 3, 4 or 7..10")
