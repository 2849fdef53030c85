"""Bordering: growing an order-n matrix to order n+1 and shrinking back.

A bordered matrix stacks a column vector on the right, a row vector at
the bottom and a forced 0 in the corner.  Orthogonality of two bordered
matrices reduces to four vector conditions over the inner blocks, and a
self-orthogonal block needs only two.

Everything works on `core.NormalMatrix` row masks and `BorderVector.mask`
(bit i-1 is position i): the border column is bit n of the inner rows, the
border row one more mask, and a condition holds when its mask is full.
"""

from __future__ import annotations

from .core import (
    MINUS_ONE, ZERO, DimensionMismatch, NormalMatrix, _bits, _cols, _Record, _row_union)
from .ortho import is_orthogonal


class BorderVector(_Record):
    """A vector over {0, -1}, stored by its set of zero positions (1-based)."""

    __slots__ = _fields = ("n", "zeros")

    def __init__(self, n: int, zeros):
        if n < 1:
            raise ValueError("vector length must be positive")
        zeros = frozenset(zeros)
        for i in zeros:
            if not 1 <= i <= n:
                raise ValueError(f"zero position {i} out of range 1..{n}")
        self._set(n=n, zeros=zeros)

    @classmethod
    def from_entries(cls, entries):
        for i, e in enumerate(entries, 1):
            if e not in (ZERO, MINUS_ONE):
                raise ValueError(f"entry {i} must be 0 or -1, got {e!r}")
        return cls(len(entries), {i + 1 for i, e in enumerate(entries) if e == ZERO})

    def entry(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} out of range 1..{self.n}")
        return ZERO if i in self.zeros else MINUS_ONE

    def mask(self) -> int:
        return sum(1 << (i - 1) for i in self.zeros)


def left_product_mask(b: NormalMatrix, v: BorderVector) -> int:
    """Zero mask of B (.) v: position i is zero iff row i of B meets v."""
    if b.n != v.n:
        raise DimensionMismatch(f"block order {b.n} != vector length {v.n}")
    return _row_union(v.mask(), _cols(b.rows))


def right_product_mask(w: BorderVector, b: NormalMatrix) -> int:
    """Zero mask of w^T (.) B: position j is zero iff column j of B meets w."""
    if b.n != w.n:
        raise DimensionMismatch(f"block order {b.n} != vector length {w.n}")
    return _row_union(w.mask(), b.rows)


class BorderedBlocks(_Record):
    """The three free blocks of a bordered normal matrix: inner block b,
    last column v (above the corner) and last row w (left of the corner)."""

    __slots__ = _fields = ("b", "v", "w")

    def __init__(self, b: NormalMatrix, v: BorderVector, w: BorderVector):
        if v.n != b.n or w.n != b.n:
            raise DimensionMismatch("border vectors must match the block order")
        self._set(b=b, v=v, w=w)


def border_compose(blocks: BorderedBlocks) -> NormalMatrix:
    """Assemble the order n+1 matrix from blocks; the corner entry is 0."""
    n = blocks.b.n
    v = blocks.v.mask()
    rows = [r | (v >> i & 1) << n for i, r in enumerate(blocks.b.rows)]
    rows.append(blocks.w.mask() | 1 << n)
    return NormalMatrix(n + 1, tuple(rows))


def border_split(a: NormalMatrix) -> BorderedBlocks:
    """Inverse of border_compose: peel off the last row and column."""
    if a.n < 2:
        raise ValueError("cannot split an order-1 matrix")
    n = a.n - 1
    low = (1 << n) - 1
    inner = NormalMatrix(n, tuple(r & low for r in a.rows[:n]))
    v = BorderVector(n, {i + 1 for i in _bits(a.col_mask(n + 1) & low)})
    w = BorderVector(n, {j + 1 for j in _bits(a.rows[n] & low)})
    return BorderedBlocks(inner, v, w)


def border_orthogonality_condition(b1: BorderedBlocks, b2: BorderedBlocks) -> dict:
    """Given orthogonal inner blocks, decide whether the two bordered
    matrices are orthogonal: the four mixed vector products must all be
    zero vectors."""
    n = b1.b.n
    if b2.b.n != n:
        raise DimensionMismatch(f"block orders differ: {n} vs {b2.b.n}")
    if not is_orthogonal(b1.b, b2.b):
        raise ValueError("inner blocks are not mutually orthogonal")
    conds = {
        "b1_v2_oplus_v1": left_product_mask(b1.b, b2.v) | b1.v.mask(),
        "b2_v1_oplus_v2": left_product_mask(b2.b, b1.v) | b2.v.mask(),
        "w1_b2_oplus_w2": right_product_mask(b1.w, b2.b) | b2.w.mask(),
        "w2_b1_oplus_w1": right_product_mask(b2.w, b1.b) | b1.w.mask(),
    }
    full = (1 << n) - 1
    detail = {k: m == full for k, m in conds.items()}
    return {"orthogonal": all(detail.values()), "conditions": detail}


def self_ortho_border_condition(blocks: BorderedBlocks) -> dict:
    """For a self-orthogonal inner block, the bordered matrix is
    self-orthogonal iff B (.) v and w^T (.) B are zero vectors."""
    b = blocks.b
    if not is_orthogonal(b, b):
        raise ValueError("inner block is not self-orthogonal")
    full = (1 << b.n) - 1
    detail = {
        "b_v": left_product_mask(b, blocks.v) == full,
        "w_b": right_product_mask(blocks.w, b) == full,
    }
    return {"self_orthogonal": all(detail.values()), "conditions": detail}


def reduce_size(a: NormalMatrix, i: int) -> NormalMatrix:
    """Delete row and column i, allowed only when they carry no
    off-diagonal zeros; orthogonality relations survive the deletion."""
    n = a.n
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range 1..{n}")
    if n < 2:
        raise ValueError("cannot reduce an order-1 matrix")
    bit = 1 << (i - 1)
    if a.rows[i - 1] != bit or a.col_mask(i) != bit:
        raise ValueError(
            f"row/column {i} has off-diagonal zeros; deletion not supported"
        )
    # squeeze bit i-1, now clear, out of every other row
    low = bit - 1
    rows = [(r & low) | (r >> i << (i - 1)) for r in a.rows[:i - 1] + a.rows[i:]]
    return NormalMatrix(n - 1, tuple(rows))
