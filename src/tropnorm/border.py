"""Bordering: growing an order-n matrix to order n+1 and shrinking back.

A bordered matrix stacks a column vector on the right, a row vector at
the bottom and a forced 0 in the corner.  Orthogonality of two bordered
matrices reduces to four vector conditions over the inner blocks, and a
self-orthogonal block needs only two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MINUS_ONE, ZERO, DimensionMismatch, NormalMatrix, _cols, _row_union
from .ortho import is_orthogonal


@dataclass(frozen=True)
class BorderVector:
    """A vector over {0, -1}, stored by its set of zero positions (1-based)."""

    n: int
    zeros: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vector length must be positive")
        object.__setattr__(self, "zeros", frozenset(self.zeros))
        for i in self.zeros:
            if not 1 <= i <= self.n:
                raise ValueError(f"zero position {i} out of range 1..{self.n}")

    @classmethod
    def from_entries(cls, entries):
        return cls(len(entries), {i + 1 for i, e in enumerate(entries) if e == ZERO})

    def entry(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} out of range 1..{self.n}")
        return ZERO if i in self.zeros else MINUS_ONE

    def mask(self) -> int:
        m = 0
        for i in self.zeros:
            m |= 1 << (i - 1)
        return m


def _is_zero_vector_mask(mask: int, n: int) -> bool:
    return mask == (1 << n) - 1


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


def vector_oplus_mask(*masks: int) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


@dataclass(frozen=True)
class BorderedBlocks:
    """The three free blocks of a bordered normal matrix: inner block b,
    last column v (above the corner) and last row w (left of the corner)."""

    b: NormalMatrix
    v: BorderVector
    w: BorderVector

    def __post_init__(self):
        if self.v.n != self.b.n or self.w.n != self.b.n:
            raise DimensionMismatch("border vectors must match the block order")


def border_compose(blocks: BorderedBlocks) -> NormalMatrix:
    """Assemble the order n+1 matrix from blocks; the corner entry is 0."""
    n = blocks.b.n
    zeros = set(blocks.b.zeros)
    for i in blocks.v.zeros:
        zeros.add((i, n + 1))
    for j in blocks.w.zeros:
        zeros.add((n + 1, j))
    return NormalMatrix.from_zeros(n + 1, zeros)


def border_split(a: NormalMatrix) -> BorderedBlocks:
    """Inverse of border_compose: peel off the last row and column."""
    if a.n < 2:
        raise ValueError("cannot split an order-1 matrix")
    n = a.n - 1
    inner = NormalMatrix.from_zeros(
        n, {(i, j) for (i, j) in a.zeros if i <= n and j <= n}
    )
    v = BorderVector(n, {i for i in range(1, n + 1) if a.entry(i, n + 1) == ZERO})
    w = BorderVector(n, {j for j in range(1, n + 1) if a.entry(n + 1, j) == ZERO})
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
        "b1_v2_oplus_v1": vector_oplus_mask(
            left_product_mask(b1.b, b2.v), b1.v.mask()
        ),
        "b2_v1_oplus_v2": vector_oplus_mask(
            left_product_mask(b2.b, b1.v), b2.v.mask()
        ),
        "w1_b2_oplus_w2": vector_oplus_mask(
            right_product_mask(b1.w, b2.b), b2.w.mask()
        ),
        "w2_b1_oplus_w1": vector_oplus_mask(
            right_product_mask(b2.w, b1.b), b1.w.mask()
        ),
    }
    detail = {k: _is_zero_vector_mask(m, n) for k, m in conds.items()}
    return {"orthogonal": all(detail.values()), "conditions": detail}


def self_ortho_border_condition(blocks: BorderedBlocks) -> dict:
    """For a self-orthogonal inner block, the bordered matrix is
    self-orthogonal iff B (.) v and w^T (.) B are zero vectors."""
    b = blocks.b
    if not is_orthogonal(b, b):
        raise ValueError("inner block is not self-orthogonal")
    detail = {
        "b_v": _is_zero_vector_mask(left_product_mask(b, blocks.v), b.n),
        "w_b": _is_zero_vector_mask(right_product_mask(blocks.w, b), b.n),
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
    row_off = a.rows[i - 1] & ~(1 << (i - 1))
    col_off = a.col_mask(i) & ~(1 << (i - 1))
    if row_off or col_off:
        raise ValueError(
            f"row/column {i} has off-diagonal zeros; deletion not supported"
        )

    def shift(x: int) -> int:
        return x if x < i else x - 1

    zeros = {
        (shift(r), shift(c)) for (r, c) in a.zeros if r != i and c != i
    }
    return NormalMatrix.from_zeros(n - 1, zeros)
