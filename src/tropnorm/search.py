"""Search oracles for the extremal zero counts of orthogonal pairs.

Two engines pin the minimum number of off-diagonal zeros:

* exhaustive oracles (small orders) that walk zero patterns by
  increasing total count and test every one: a left factor A against
  every right factor B at once, a set of matrices being one int with a
  bit per off-diagonal mask (`core._sliced_meets`), so that the B with
  A*B = Z are one AND over the rows of A, and those of them with
  B*A = Z one more AND over its columns; a self-orthogonal candidate row
  by row, from per-row values with fixed zero counts, cut once a row of
  A*A misses more bits than the zeros left can fill;
* a branch-and-bound engine that grows left factors and enumerates the
  right factor column by column under exact hitting-set bounds (column
  j of B must meet row i of A wherever a_ij = -1; orthogonality is this
  condition for both products).  Conjugation by permutation matrices,
  the transpose and the swap A <-> B preserve orthogonality and zero
  counts, so it grows only left factors with sigma(A) <= sigma(B), at
  most one per orbit of S_n x C2, bounding whole subtrees at once, and
  closes the pairs it finds under the group.

Both report certificates with explicit completeness claims: `exhaustive`
(every pair below the value was tested), `bounded_proof` (no pair fits
the budget and a witness attains budget + 1) or `lower_bound` (no pair
fits the budget, and no witness is attached).  Resource caps abort with a
distinguishable error instead of a silent truncation.

Both walk off-diagonal masks and take the mask codec, the row-union
kernel, the canonical form and the slot images of the group from `core`.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from functools import cache, partial, reduce
from itertools import repeat
from math import comb
from operator import and_, or_

from .core import (
    WITNESS_CAP,
    NormalMatrix,
    SearchInconclusive,
    _bits,
    _cols,
    _row_union,
    _sliced_meets,
    _slot_images,
    _union_table,
    format_matrix,
    from_offdiag_mask,
    is_canonical,
    offdiag_mask,
    offdiag_rows,
    parse_matrix,
    sigma,
)
from .families import MmVariant, mm_classify, mm_pair
from .ortho import indicator, is_orthogonal

COMPLETENESS_EXHAUSTIVE = "exhaustive"
COMPLETENESS_BOUNDED = "bounded_proof"
COMPLETENESS_LOWER_BOUND = "lower_bound"


class ThetaCertificate:
    __slots__ = ("n", "kind", "value", "completeness", "budget", "witnesses",
                 "total_witnesses", "search_stats", "notes")

    def __init__(self, n: int, kind: str, value: int, completeness: str,
                 budget: int | None = None, witnesses: list | None = None,
                 total_witnesses: int = 0, search_stats: dict | None = None,
                 notes: str = ""):
        self.n, self.kind, self.value = n, kind, value  # kind: 'pair' or 'self'
        self.completeness, self.budget = completeness, budget
        self.witnesses = [] if witnesses is None else witnesses
        self.total_witnesses = total_witnesses
        self.search_stats = {} if search_stats is None else search_stats
        self.notes = notes

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
    slots = n * n - n
    cols_meet, rows_meet = _sliced_meets(n)
    rows = [offdiag_rows(n, mask) for mask in range(1 << slots)]
    by_count: list[list[int]] = [[] for _ in range(slots + 1)]
    for mask in range(1 << slots):
        by_count[mask.bit_count()].append(mask)
    count_set = [sum(1 << m for m in group) for group in by_count]

    nodes = 0
    for total in range(2 * slots + 1):
        found: list[tuple[int, int]] = []
        for ka in range(max(0, total - slots), min(slots, total) + 1):
            kb = total - ka
            nodes += len(by_count[ka]) * len(by_count[kb])
            right = count_set[kb]
            for amask in by_count[ka]:
                # every B with A*B = Z at once (each row of A meets each
                # column of B), then of those every B with B*A = Z
                arows = rows[amask]
                cand = reduce(and_, map(cols_meet.__getitem__, arows), right)
                if cand:
                    cand = reduce(and_, map(rows_meet.__getitem__, _cols(arows)), cand)
                    found += zip(repeat(amask), _bits(cand))
        if found:
            found.sort()
            return ThetaCertificate(
                n=n,
                kind="pair",
                value=total,
                completeness=COMPLETENESS_EXHAUSTIVE,
                witnesses=[_pair_from_masks(n, a, b) for a, b in found[:WITNESS_CAP]],
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
        [[r for r in range(1 << n) if r >> i & 1 and r.bit_count() == c + 1] for c in range(n)]
        for i in range(n)
    ]
    rows = [0] * n
    found: list[int] = []
    # for n >= 2 each row needs a zero off the diagonal, or its row of A*A is that bit alone
    least = 1 if n > 1 else 0

    def place(i: int, left: int) -> None:
        # rows 0..i-1 are placed, and rows i..n-1 take `left` more zeros
        if i == n:
            found.append(offdiag_mask(n, rows))
            return
        after = n - 1 - i
        for c in range(max(least, left - stride * after), min(stride, left - least * after) + 1):
            rest = left - c
            for r in values[i][c]:
                rows[i] = r
                # row t of A*A is the union of the rows row t picks; u is
                # that of the placed ones with row t itself, whose bits above
                # i stand for the diagonal zeros of the unplaced ones.  Each
                # bit u misses needs a zero of its own among the `rest`
                for x in rows[: i + 1]:
                    u = x >> i and x | _row_union(x & (2 << i) - 1, rows)
                    if u and (full ^ u).bit_count() > (rest if x >> i > 1 else 0):
                        break
                else:
                    place(i + 1, rest)

    nodes = 0
    for k in range(slots + 1):
        nodes += comb(slots, k)
        place(0, k)
        if found:
            found.sort()
            return ThetaCertificate(
                n=n,
                kind="self",
                value=k,
                completeness=COMPLETENESS_EXHAUSTIVE,
                witnesses=[from_offdiag_mask(n, m) for m in found[:WITNESS_CAP]],
                total_witnesses=len(found),
                search_stats={"nodes": nodes, "elapsed_s": time.monotonic() - t0},
            )
    raise AssertionError("unreachable: Z is self-orthogonal")


# -- branch-and-bound engine --------------------------------------------

BOUNDED_SEARCH_GUARD = 7


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
    set.  The pairs found are closed under the group and the swap on
    masks, one orbit at a time, through `core._slot_images`.

    The right factor is enumerated column by column from candidate bitsets
    built once per call: column j of B takes the masks without bit j,
    fewest zeros first, and `meets[r][j]` marks those allowed beside a row
    r of A (all if r has a zero at j, else those that meet r), built by
    `core._union_table` with one OR per row mask.  Per left factor, their
    AND over the rows of A lists the valid columns, and its lowest bit
    gives the least zero count, whose sum over j bounds B
    (`column_bound`).  So AB = Z holds column by column.  BA = Z is cut
    inside the DFS: row i of BA is the union of the rows of A picked by
    row i of B, and once columns 0..j-1 of B are placed only rows
    j..n-1 of A can still join it, so column j must hold every row i
    whose union cannot become full without row j of A.  A complete B is
    then orthogonal to A.

    Two cuts bound subtrees by the column bound, monotone in A's zeros.
    An extension to the last level, max_sigma // 2 zeros, has no children
    and takes it before the canonicity test (`pre_cut`).  The descendants
    of children k.. of a canonical set hold at least a_off + 1 zeros, all
    within its zeros with cells k.. added (rows past that of cell k full),
    a superset that shrinks as k grows: the child loop stops at the first
    k where it fails the bound at a_off + 1, found by bisection
    (`look_cut`; Land and Doig, 1960).

    The stats count ticks (`nodes`: extensions tested plus DFS nodes), the
    extensions tested (`left_factors`), the canonical left factors searched,
    those cut by the column bound, DFS leaves (complete orthogonal right
    factors with sigma(B) >= sigma(A)), the column candidates the BA cut
    drops (`ba_rejects`), the last-level extensions cut before the
    canonicity test (`pre_cut`), the child loops stopped (`look_cut`) and
    the extensions they skip (`look_skipped`), and the canonical left
    factors by zero count (`canonical_by_zeros`), at most one per orbit as
    the cuts skip those whose subtrees hold no pair.  A negative cap or a
    NaN time limit raises ValueError.
    """
    if node_limit < 0:
        raise ValueError(f"node limit {node_limit} is negative")
    if not time_limit >= 0:
        raise ValueError(f"time limit {time_limit} is negative or NaN")
    t0 = time.monotonic()
    keys = ("nodes", "elapsed_s", "left_factors", "canonical", "col_cut", "leaves", "ba_rejects",
            "pre_cut", "look_cut", "look_skipped")
    stats = dict.fromkeys(keys, 0)
    last = max_sigma // 2
    by_zeros = stats["canonical_by_zeros"] = [0] * (last + 1)

    def tick() -> None:
        stats["nodes"] += 1
        over = stats["nodes"] > node_limit
        if over or time.monotonic() - t0 > time_limit:
            stats["elapsed_s"] = time.monotonic() - t0
            cap = f"node limit {node_limit}" if over else f"time limit {time_limit}s"
            raise SearchInconclusive(f"{cap} exceeded", stats)

    full = (1 << n) - 1

    # per column j: the candidates as (zero count, row indices), and `meets`
    cands, by_col = [], []
    for j in range(n):
        masks = sorted(
            (h for h in range(1 << n) if not h >> j & 1),
            key=lambda h: (h.bit_count(), h),
        )
        cands.append([(h.bit_count(), h, tuple(_bits(h))) for h in masks])
        # per row b: the candidates with a zero in row b, and all of them
        # for b = j, as B's zero at (j, j) meets every r holding bit j
        every = (1 << len(masks)) - 1
        by_col.append(_union_table(
            [every if b == j else sum(1 << t for t, h in enumerate(masks) if h >> b & 1)
             for b in range(n)]
        ))
    # meets[r][j], so that a left factor's bitsets are one AND per row
    meets = list(zip(*by_col))

    def column_bound(arows, a_off: int, oks=None) -> tuple[list[int], list[int]] | None:
        """The valid candidates of each column of B (`oks`, unless given)
        and the least zero count among them, or None when those counts
        exceed B's budget."""
        oks = oks or list(reduce(partial(map, and_), map(meets.__getitem__, arows)))
        # the lowest allowed candidate is the cheapest column j can take
        col_min = [cands[j][(ok & -ok).bit_length() - 1][0] for j, ok in enumerate(oks)]
        return None if sum(col_min) > max_sigma - a_off else (oks, col_min)

    reduced: list[tuple[int, int, int]] = []

    def search_left(arows: tuple[int, ...], a_off: int, bound) -> None:
        if bound is None:
            stats["col_cut"] += 1
            return
        oks, col_min = bound
        b_budget = max_sigma - a_off
        valid_cols = [[cands[j][t] for t in _bits(ok)] for j, ok in enumerate(oks)]
        suffix = [sum(col_min[j:]) for j in range(n + 1)]
        # fut[j]: the union of rows j..n-1 of A, all that columns j..n-1
        # of B can still add to a row of BA
        fut = [0] * (n + 1)
        for j in reversed(range(n)):
            fut[j] = fut[j + 1] | arows[j]

        # DFS over columns of B
        bcols = [0] * n

        def descend(j: int, used: int, acc: list[int]):
            # acc[i]: row i of BA over the columns of B placed so far, and
            # acc[i] | fut[j] is full for every i
            tick()
            if j == n:
                if used < a_off:
                    return  # found from (B, A), whose left factor has fewer zeros
                # AB = Z and BA = Z hold by construction
                stats["leaves"] += 1
                bmask = offdiag_mask(n, _cols(bcols))
                reduced.append((a_off + used, offdiag_mask(n, arows), bmask))
                return
            rest = suffix[j + 1]
            later = fut[j + 1]
            # the rows of BA that only column j can still fill
            need = 0
            for i, a in enumerate(acc):
                if a | later != full:
                    need |= 1 << i
            aj = arows[j]
            for sz, h, idx in valid_cols[j]:
                if used + sz + rest > b_budget:
                    break
                if h & need != need:
                    stats["ba_rejects"] += 1
                    continue
                bcols[j] = h
                nacc = acc[:]
                for i in idx:
                    nacc[i] |= aj
                descend(j + 1, used + sz, nacc)

        descend(0, 0, list(arows))

    # off-diagonal cells by significance, as (row, row bit, column, column
    # bit); deleting the least significant cell of a canonical set leaves a
    # canonical set
    cells = [(i, 1 << i, j, 1 << j) for i in range(n) for j in reversed(range(n)) if j != i]

    def grow(arows: list[int], acols: list[int], a_off: int, start: int, bound=None) -> None:
        stats["canonical"] += 1
        by_zeros[a_off] += 1
        search_left(tuple(arows), a_off, bound := bound or column_bound(arows, a_off))
        if a_off == last:
            return
        # the look-ahead cut, needless when the bound holds at a_off + 1;
        # prefix[i] is the AND of `meets` over rows 0..i-1 of A
        stop = len(cells)
        if start < stop and (bound is None or sum(bound[1]) + a_off == max_sigma):
            prefix = [meets[full]]
            for r in arows[:-1]:
                prefix.append(tuple(map(and_, prefix[-1], meets[r])))

            def dead(k: int) -> bool:
                # cells k.. fill the row of cell k up to its column, and
                # the rows after it, which then meet every column
                i, _, j, _ = cells[k]
                oks = tuple(map(and_, prefix[i], meets[arows[i] | (2 << j) - 1]))
                return column_bound(arows, a_off + 1, oks) is None

            if dead(stop - 1):
                stop = bisect_left(range(stop - 1), True, start, key=dead)
                stats["look_cut"] += 1
                stats["look_skipped"] += len(cells) - stop
        for k in range(start, stop):
            i, ibit, j, jbit = cells[k]
            tick()
            stats["left_factors"] += 1
            arows[i] |= jbit
            acols[j] |= ibit
            if a_off + 1 < last:
                if is_canonical(arows, acols):
                    grow(arows, acols, a_off + 1, k + 1)
            # a last-level extension has no children: bound it first
            elif (child := column_bound(arows, last)) is None:
                stats["pre_cut"] += 1
            elif is_canonical(arows, acols):
                grow(arows, acols, last, k + 1, child)
            arows[i] ^= jbit
            acols[j] ^= ibit

    diagonal = [1 << i for i in range(n)]
    grow(diagonal, diagonal[:], 0, 0)

    # close the pairs found under the group and the swap, one orbit at a
    # time: a mask's images under every element are the ORs of its slots'
    # image tuples.  The table is built on the first pair found.
    found = set()
    for sig, am, bm in reduced:
        if (sig, am, bm) in found:
            continue
        images = _slot_images(n)
        ia, ib = [
            list(reduce(partial(map, or_), [images[s] for s in _bits(m)], (0,) * len(images[0])))
            for m in (am, bm)
        ]
        found.update(zip(repeat(sig), ia, ib))
        found.update(zip(repeat(sig), ib, ia))
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
    if not 2 <= n <= BOUNDED_SEARCH_GUARD:
        raise ValueError(f"pair enumeration supports 2 <= n <= {BOUNDED_SEARCH_GUARD}")
    if max_sigma < 0:
        raise ValueError(f"max_sigma {max_sigma} is negative")
    if max_sigma > 4 * n - 6:
        raise ValueError(f"max_sigma {max_sigma} exceeds the 4n-6 guard")
    triples, _ = _bounded_pairs(n, max_sigma, node_limit, time_limit)
    decode = cache(partial(from_offdiag_mask, n))
    for _, amask, bmask in triples:
        yield decode(amask), decode(bmask)


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
    if not 2 <= n <= BOUNDED_SEARCH_GUARD:
        raise ValueError(f"bounded search supports 2 <= n <= {BOUNDED_SEARCH_GUARD}")
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


# a minimal orthogonal pair outside the four-variant family at each order
# n = 3..6, as (A, B) with rows separated by '/'
_OUTSIDERS = {
    3: ("0--/-0-/--0", "000/000/000"),
    4: ("0--0/-00-/-00-/0--0", "0-0-/-0-0/0-0-/-0-0"),
    5: ("0--0-/-00-0/-00-0/0--0-/-00-0", "0-0--/-0-0-/0-0--/-0-00/---00"),
    6: ("0--0--/-0--0-/--0--0/0--0--/-0--0-/--0--0",
        "0---00/-0-0-0/--000-/-000--/0-0-0-/00---0"),
}


def check_theorem_theta(n: int) -> dict:
    """Machine-check of the minimal-pair characterization.

    n = 2..6: the minimal pairs are those of least sigma among the
    `_bounded_pairs(n, 4n - 6)` triples, every pair up to the family's
    4n - 6 zeros, so the least sigma there is theta(n).
    n = 2: they coincide with the generic family.
    n = 3..6: the equivalence fails; the stored outsider pair is among
    the minimal pairs and lies outside the family.
    n = 7..10: forward direction only; every generic family pair is
    orthogonal with the predicted zero counts.
    """
    if 2 <= n <= 6:
        triples, _ = _bounded_pairs(n, 4 * n - 6)
        theta = triples[0][0]
        minimal = [_pair_from_masks(n, a, b) for s, a, b in triples if s == theta]
    if n == 2:
        generic = set(_mm_generic_pairs(2))
        return {
            "n": n,
            "mode": "equivalence",
            "holds": set(minimal) == generic,
            "theta": theta,
            "minimal_pairs": len(minimal),
            "family_pairs": len(generic),
        }
    if 3 <= n <= 6:
        outsiders = {p for p in minimal if mm_classify(*p) is None}
        stored = tuple(parse_matrix(m.replace("/", "\n")) for m in _OUTSIDERS[n])
        stored_found = stored in outsiders
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
