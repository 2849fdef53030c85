"""Orthogonality predicate, indicator matrices and the zero classifier.

The indicator matrix C of a pair (A, B) is zero at (i, j) iff both products
A*B and B*A are zero there; the pair is mutually orthogonal iff C is the
all-zero matrix.  Every off-diagonal zero of C is explained as exactly one
of: propagation (inherited from A or B), cost (four aligned zeros with a
shared middle index and two duplicates) or gift (four aligned zeros with
two distinct middle indices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    DimensionMismatch,
    NormalMatrix,
    _bits,
    _cols,
    _row_union,
    _same_order,
    all_normal_matrices,
    all_zero,
    format_matrix,
    mat_odot,
    sigma_row,
)

TAG_DIAGONAL = "diagonal"
TAG_PROPAGATION = "propagation"
TAG_COST = "cost"
TAG_GIFT = "gift"
TAG_NONZERO = "nonzero"


@dataclass(frozen=True)
class ZeroClass:
    """Classification of one cell of an indicator matrix.

    cost_witnesses: all middle indices k explaining a cost zero.
    gift_witnesses: all ordered pairs (k, m) explaining a gift zero.
    Exactly one of the two is populated, and only for the matching tag.
    """

    tag: str
    cost_witnesses: frozenset[int] = frozenset()
    gift_witnesses: frozenset[tuple[int, int]] = frozenset()


@dataclass(frozen=True)
class IndicatorReport:
    """Indicator matrix of a pair plus the per-cell zero classification."""

    a: NormalMatrix
    b: NormalMatrix
    left: NormalMatrix  # A * B
    right: NormalMatrix  # B * A
    indicator: NormalMatrix  # C
    classes: dict[tuple[int, int], ZeroClass] = field(compare=False)
    prop_count: int = 0
    cost_count: int = 0
    gift_count: int = 0
    duplicate_count: int = 0

    @property
    def n(self) -> int:
        return self.a.n

    def row_class_counts(self, i: int) -> dict[str, int]:
        counts = {TAG_PROPAGATION: 0, TAG_COST: 0, TAG_GIFT: 0, TAG_NONZERO: 0}
        for j in range(1, self.n + 1):
            if j == i:
                continue
            counts[self.classes[(i, j)].tag] += 1
        return counts

    def to_document(self) -> dict:
        """Structured serialization consumed by the CLI."""
        cells = []
        for (i, j), cls in sorted(self.classes.items()):
            cell: dict = {"pos": [i, j], "class": cls.tag}
            if cls.tag == TAG_COST:
                cell["witnesses"] = sorted(cls.cost_witnesses)
            elif cls.tag == TAG_GIFT:
                cell["witnesses"] = [list(w) for w in sorted(cls.gift_witnesses)]
            cells.append(cell)
        return {
            "n": self.n,
            "orthogonal": self.indicator == all_zero(self.n),
            "indicator": format_matrix(self.indicator),
            "left": format_matrix(self.left),
            "right": format_matrix(self.right),
            "prop_count": self.prop_count,
            "cost_count": self.cost_count,
            "gift_count": self.gift_count,
            "duplicate_count": self.duplicate_count,
            "cells": cells,
        }


def _orth_rows(arows: tuple[int, ...], brows: tuple[int, ...], full: int) -> bool:
    """Row-union check of orthogonality on bitmask rows.

    Product row i is full iff the rows of the right factor indexed by the
    zeros of left row i cover every column; both orders, early exit."""
    for ra in arows:
        if _row_union(ra, brows) != full:
            return False
    for rb in brows:
        if _row_union(rb, arows) != full:
            return False
    return True


def is_orthogonal(a: NormalMatrix, b: NormalMatrix) -> bool:
    """True iff A*B and B*A are both the all-zero matrix."""
    n = _same_order(a, b)
    return _orth_rows(a.rows, b.rows, (1 << n) - 1)


def indicator(a: NormalMatrix, b: NormalMatrix) -> IndicatorReport:
    """Build the indicator matrix and classify all of its off-diagonal cells.

    Precedence per cell: propagation, then cost, then gift (a zero meeting
    both witness patterns is a cost zero).  Witness sets are complete, not
    one representative.
    """
    n = _same_order(a, b)
    left = mat_odot(a, b)
    right = mat_odot(b, a)
    ind = NormalMatrix(n, tuple(l & r for l, r in zip(left.rows, right.rows)))

    # a witness k of (s, t) has a_sk = b_kt = 0 (k in a_s & Bcol_t) and a
    # witness m has b_sm = a_mt = 0 (m in b_s & Acol_t); a cost zero has a
    # common such index, a gift zero a pair k != m
    acols = _cols(a.rows)
    bcols = _cols(b.rows)
    classes: dict[tuple[int, int], ZeroClass] = {}
    prop = cost = gift = 0
    for s in range(n):
        ra = a.rows[s]
        rb = b.rows[s]
        ri = ind.rows[s]
        for t in range(n):
            if s == t:
                continue
            tbit = 1 << t
            if not ri & tbit:
                classes[(s + 1, t + 1)] = ZeroClass(TAG_NONZERO)
                continue
            if (ra | rb) & tbit:
                classes[(s + 1, t + 1)] = ZeroClass(TAG_PROPAGATION)
                prop += 1
                continue
            outside = ~((1 << s) | tbit)
            ks = ra & bcols[t] & outside
            ms = rb & acols[t] & outside
            if ks & ms:
                cost_ws = frozenset(k + 1 for k in _bits(ks & ms))
                classes[(s + 1, t + 1)] = ZeroClass(TAG_COST, cost_witnesses=cost_ws)
                cost += 1
                continue
            gift_ws = frozenset(
                (k + 1, m + 1) for k in _bits(ks) for m in _bits(ms) if k != m
            )
            if gift_ws:
                classes[(s + 1, t + 1)] = ZeroClass(TAG_GIFT, gift_witnesses=gift_ws)
                gift += 1
                continue
            # exhaustiveness of the classification is a stated property of
            # indicator zeros; reaching here would disprove it
            raise AssertionError(
                f"unclassifiable indicator zero at ({s + 1},{t + 1}) for the pair"
            )

    if a == b:
        dup = 0  # duplicates are defined only for distinct matrices
    else:
        dup = sum(
            ((ra & rb) & ~(1 << (i))).bit_count()
            for i, (ra, rb) in enumerate(zip(a.rows, b.rows))
        )
    return IndicatorReport(
        a=a,
        b=b,
        left=left,
        right=right,
        indicator=ind,
        classes=classes,
        prop_count=prop,
        cost_count=cost,
        gift_count=gift,
        duplicate_count=dup,
    )


@dataclass(frozen=True)
class RowType:
    kind: str  # 'cost', 'gift' or 'other'
    k: int | None = None
    m: int | None = None


def row_type(report: IndicatorReport, i: int) -> RowType:
    """Classify row i of the indicator: a cost row carries n-2 cost zeros and
    one propagation zero; a gift row carries n-3 gift zeros, two propagation
    zeros and two off-diagonal zeros of the pair in that row."""
    n = report.n
    if not 1 <= i <= n:
        raise IndexError(f"row {i} out of range for n={n}")
    counts = report.row_class_counts(i)
    if counts[TAG_COST] == n - 2 and counts[TAG_PROPAGATION] == 1:
        common: set[int] | None = None
        for j in range(1, n + 1):
            cls = report.classes.get((i, j))
            if cls is not None and cls.tag == TAG_COST:
                ws = set(cls.cost_witnesses)
                common = ws if common is None else common & ws
        if common:
            return RowType("cost", k=min(common))
    if (
        counts[TAG_GIFT] == n - 3
        and counts[TAG_PROPAGATION] == 2
        and sigma_row(report.a, report.b, i) == 2
    ):
        common_g: set[tuple[int, int]] | None = None
        for j in range(1, n + 1):
            cls = report.classes.get((i, j))
            if cls is not None and cls.tag == TAG_GIFT:
                ws = set(cls.gift_witnesses)
                common_g = ws if common_g is None else common_g & ws
        if common_g:
            k, m = min(common_g)
            return RowType("gift", k=k, m=m)
    return RowType("other")


ORTH_SET_GUARD = 5


def orth_set(a: NormalMatrix, candidates=None) -> set[NormalMatrix]:
    """Exact enumeration of the matrices orthogonal to A.

    candidates: an iterable of normal matrices, or None for the full set of
    normal matrices of the same order (refused above order 5 instead of
    silently truncating).
    """
    if candidates is None:
        if a.n > ORTH_SET_GUARD:
            raise ValueError(
                f"enumerating all normal matrices of order {a.n} is refused "
                f"(guard: n <= {ORTH_SET_GUARD})"
            )
        candidates = all_normal_matrices(a.n)
    out = set()
    for b in candidates:
        if b.n != a.n:
            raise DimensionMismatch(f"candidate order {b.n} != {a.n}")
        if is_orthogonal(a, b):
            out.add(b)
    return out


# -- fixtures from the easy sufficient conditions ---------------------


def majority_zero_pair(a: NormalMatrix, b: NormalMatrix) -> bool:
    """Hypothesis check: every row and column of both matrices has strictly
    more than n/2 zeros.  Pairs satisfying it are always orthogonal."""
    n = _same_order(a, b)
    half = n / 2
    for m in (a, b):
        for i in range(1, n + 1):
            if m.row_mask(i).bit_count() <= half:
                return False
            if m.col_mask(i).bit_count() <= half:
                return False
    return True


def residue_pair(n: int) -> tuple[NormalMatrix, NormalMatrix]:
    """The residue-pattern pair: a_ij = 0 iff i = j or i + j = 2 mod 3;
    b_ij = 0 iff i + j even.  Requires n >= 4.

    The pair is orthogonal for n = 4 and every n >= 6.  At n = 5 the fifth
    column of A has zeros only in odd rows {3, 5}, so (BA)_{2,5} != 0 and
    the pair is not orthogonal."""
    if n < 4:
        raise ValueError(f"residue pair needs n >= 4, got {n}")
    a = NormalMatrix.from_zeros(
        n,
        [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i == j or (i + j) % 3 == 2
        ],
    )
    b = NormalMatrix.from_zeros(
        n,
        [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if (i + j) % 2 == 0
        ],
    )
    return a, b


def row_majority_counterexample(n: int) -> NormalMatrix:
    """All entries zero except column n off the diagonal.  Every row has n-1
    zeros (a strict majority) yet the matrix is not self-orthogonal: the
    column condition of the majority test cannot be dropped."""
    zeros = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if j != n or i == n
    ]
    return NormalMatrix.from_zeros(n, zeros)
