"""Orthogonality predicate, indicator matrices and the zero classifier.

The indicator matrix C of a pair (A, B) is zero at (i, j) iff both products
A*B and B*A are zero there; the pair is mutually orthogonal iff C is the
all-zero matrix.  Every off-diagonal zero of C is explained as exactly one
of: propagation (inherited from A or B), cost (four aligned zeros with a
shared middle index and two duplicates) or gift (four aligned zeros with
two distinct middle indices).
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_

from .core import (
    NormalMatrix,
    _Record,
    _bits,
    _cols,
    _row_union,
    _same_order,
    _setfield,
    _sliced_meets,
    all_zero,
    format_matrix,
    from_offdiag_mask,
    mat_odot,
    sigma_row,
)

TAG_PROPAGATION = "propagation"
TAG_COST = "cost"
TAG_GIFT = "gift"
TAG_NONZERO = "nonzero"


class ZeroClass(_Record):
    """Classification of one cell of an indicator matrix.

    cost_witnesses: all middle indices k explaining a cost zero.
    gift_witnesses: all ordered pairs (k, m) explaining a gift zero.
    Exactly one of the two is populated, and only for the matching tag.
    """

    __slots__ = _fields = ("tag", "cost_witnesses", "gift_witnesses")

    def __init__(self, tag: str, cost_witnesses: frozenset[int] = frozenset(),
                 gift_witnesses: frozenset[tuple[int, int]] = frozenset()):
        self._set(tag=tag, cost_witnesses=cost_witnesses, gift_witnesses=gift_witnesses)


# the one class of every nonzero cell and of every propagation cell
_NO_WITNESS = {tag: ZeroClass(tag) for tag in (TAG_NONZERO, TAG_PROPAGATION)}


class IndicatorReport(_Record):
    """Indicator matrix of a pair plus the classification of its zeros:
    per row s, a mask of the columns t of each tag (a cell in none is
    nonzero).  The witness masks of a cost or gift cell, 0-based, are
    K = a_s & Bcol_t (a_sk = b_kt = 0) and M = b_s & Acol_t (b_sm = a_mt =
    0); a cost zero's witnesses are K & M, and a gift zero has K & M empty,
    so its witnesses are all of K x M.  The column masks acols and bcols
    take no part in == and hash."""

    # no __slots__: `classes` caches in the instance dict
    _fields = ("a", "b", "left", "right", "indicator", "prop_rows", "cost_rows",
               "gift_rows", "prop_count", "cost_count", "gift_count", "duplicate_count")

    def __init__(self, a: NormalMatrix, b: NormalMatrix, left: NormalMatrix,
                 right: NormalMatrix, indicator: NormalMatrix, prop_rows: tuple[int, ...],
                 cost_rows: tuple[int, ...], gift_rows: tuple[int, ...],
                 acols: tuple[int, ...], bcols: tuple[int, ...], prop_count: int = 0,
                 cost_count: int = 0, gift_count: int = 0, duplicate_count: int = 0):
        # left = A * B, right = B * A, indicator = C; one dict update, as
        # every `indicator` call builds a report
        vars(self).update(a=a, b=b, left=left, right=right, indicator=indicator,
                          prop_rows=prop_rows, cost_rows=cost_rows, gift_rows=gift_rows,
                          acols=acols, bcols=bcols, prop_count=prop_count,
                          cost_count=cost_count, gift_count=gift_count,
                          duplicate_count=duplicate_count)

    @property
    def n(self) -> int:
        return self.a.n

    def witness_masks(self, s: int, t: int) -> tuple[int, int]:
        """(K, M) of the 0-based cell (s, t)."""
        return self.a.rows[s] & self.bcols[t], self.b.rows[s] & self.acols[t]

    def _cells(self):
        """(s, t, tag, witnesses) per off-diagonal cell in (s, t) order,
        1-based, witnesses as the document gives them: the sorted k of a
        cost cell, the sorted [k, m] of a gift cell, else None."""
        tags = zip(self.prop_rows, self.cost_rows, self.gift_rows)
        for s, (prop, cost, gift) in enumerate(tags):
            for t in (t for t in range(self.n) if t != s):
                tbit, (ks, ms) = 1 << t, self.witness_masks(s, t)
                if cost & tbit:
                    cell = TAG_COST, [k + 1 for k in _bits(ks & ms)]
                elif gift & tbit:
                    cell = TAG_GIFT, [[k + 1, m + 1] for k in _bits(ks) for m in _bits(ms)]
                else:
                    cell = (TAG_PROPAGATION if prop & tbit else TAG_NONZERO), None
                yield s + 1, t + 1, *cell

    @cached_property
    def classes(self) -> dict[tuple[int, int], ZeroClass]:
        """The class of every off-diagonal cell, built from the masks on
        first access."""
        return {
            (s, t): ZeroClass(tag, cost_witnesses=frozenset(ws)) if tag == TAG_COST
            else ZeroClass(tag, gift_witnesses=frozenset(map(tuple, ws))) if tag == TAG_GIFT
            else _NO_WITNESS[tag]
            for s, t, tag, ws in self._cells()
        }

    def to_document(self) -> dict:
        """Structured serialization consumed by the CLI."""
        cells = []
        for s, t, tag, ws in self._cells():
            cells.append({"pos": [s, t], "class": tag})
            if ws is not None:
                cells[-1]["witnesses"] = ws
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


def is_orthogonal(a: NormalMatrix, b: NormalMatrix) -> bool:
    """True iff A*B and B*A are both the all-zero matrix.

    Row i of a product is full iff the rows of the right factor indexed by
    the zeros of left row i cover every column; both orders, early exit."""
    full = (1 << _same_order(a, b)) - 1
    arows, brows = a.rows, b.rows
    for ra in arows:
        if _row_union(ra, brows) != full:
            return False
    for rb in brows:
        if _row_union(rb, arows) != full:
            return False
    return True


def indicator(a: NormalMatrix, b: NormalMatrix) -> IndicatorReport:
    """Build the indicator matrix and classify all of its off-diagonal cells.

    Precedence per cell: propagation, then cost, then gift (a zero meeting
    both witness patterns is a cost zero).  One pass per row of masks.
    """
    n = _same_order(a, b)
    left = mat_odot(a, b)
    right = mat_odot(b, a)
    ind = NormalMatrix(n, tuple(l & r for l, r in zip(left.rows, right.rows)))

    acols, bcols = tuple(_cols(a.rows)), tuple(_cols(b.rows))
    props, costs, gifts = [], [], []
    for s, (ra, rb, ri) in enumerate(zip(a.rows, b.rows, ind.rows)):
        props.append(ri & (ra | rb) & ~(1 << s))
        cost = gift = 0
        for t in _bits(ri & ~(ra | rb)):  # ra | rb holds the diagonal
            ks, ms = ra & bcols[t], rb & acols[t]
            if ks & ms:
                cost |= 1 << t
            elif ks and ms:
                gift |= 1 << t
            else:
                # exhaustiveness of the classification is a stated property
                # of indicator zeros; reaching here would disprove it
                raise AssertionError(
                    f"unclassifiable indicator zero at ({s + 1},{t + 1}) for the pair"
                )
        costs.append(cost)
        gifts.append(gift)

    # duplicates are defined only for distinct matrices
    dup = 0 if a == b else sum(
        (ra & rb & ~(1 << i)).bit_count() for i, (ra, rb) in enumerate(zip(a.rows, b.rows))
    )
    return IndicatorReport(
        a=a,
        b=b,
        left=left,
        right=right,
        indicator=ind,
        prop_rows=tuple(props),
        cost_rows=tuple(costs),
        gift_rows=tuple(gifts),
        acols=acols,
        bcols=bcols,
        prop_count=sum(r.bit_count() for r in props),
        cost_count=sum(r.bit_count() for r in costs),
        gift_count=sum(r.bit_count() for r in gifts),
        duplicate_count=dup,
    )


class RowType(_Record):
    __slots__ = _fields = ("kind", "k", "m")

    # fields set one by one, as in NormalMatrix: one RowType per indicator row
    def __init__(self, kind: str, k: int | None = None, m: int | None = None):
        _setfield(self, "kind", kind)  # 'cost', 'gift' or 'other'
        _setfield(self, "k", k)
        _setfield(self, "m", m)


def row_type(report: IndicatorReport, i: int) -> RowType:
    """Classify row i of the indicator: a cost row carries n-2 cost zeros and
    one propagation zero; a gift row carries n-3 gift zeros, two propagation
    zeros and two off-diagonal zeros of the pair in that row.  The common
    witnesses are the AND of the witness masks over the row's cost (gift)
    cells, and a row with no such cell has none.  The least is reported."""
    n = report.n
    if not 1 <= i <= n:
        raise IndexError(f"row {i} out of range for n={n}")
    s, prop = i - 1, report.prop_rows[i - 1].bit_count()
    cost, gift = report.cost_rows[s], report.gift_rows[s]
    common_k = common_m = -1  # (x & -x).bit_length() is x's least index, 1-based
    if cost and cost.bit_count() == n - 2 and prop == 1:
        for t in _bits(cost):
            common_k &= and_(*report.witness_masks(s, t))
        if common_k:
            return RowType("cost", k=(common_k & -common_k).bit_length())
    elif (gift and gift.bit_count() == n - 3 and prop == 2
          and sigma_row(report.a, report.b, i) == 2):
        for t in _bits(gift):
            ks, ms = report.witness_masks(s, t)
            common_k, common_m = common_k & ks, common_m & ms
        if common_k and common_m:  # the common gift witnesses are common_k x common_m
            k, m = (common_k & -common_k).bit_length(), (common_m & -common_m).bit_length()
            return RowType("gift", k=k, m=m)
    return RowType("other")


ORTH_SET_GUARD = 5


def orth_set(a: NormalMatrix) -> set[NormalMatrix]:
    """Exact enumeration of the matrices orthogonal to A (refused above
    order 5 instead of silently truncating): one AND of the bit-sliced meet
    sets of `core._sliced_meets` of A's rows (A*B = Z) and of its columns
    (B*A = Z), read back by the binary digits of the result, as `_bits`
    takes time quadratic in the size of an int of 2^20 bits."""
    if a.n > ORTH_SET_GUARD:
        raise ValueError(
            f"enumerating all normal matrices of order {a.n} is refused "
            f"(guard: n <= {ORTH_SET_GUARD})"
        )
    cols_meet, rows_meet = _sliced_meets(a.n)
    found = reduce(and_, [cols_meet[r] for r in a.rows] + [rows_meet[c] for c in _cols(a.rows)])
    return {from_offdiag_mask(a.n, m) for m, d in enumerate(bin(found)[:1:-1]) if d == "1"}
