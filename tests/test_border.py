import random

import pytest

from conftest import rand_normal
from tropnorm.border import (
    BorderVector,
    BorderedBlocks,
    border_compose,
    border_orthogonality_condition,
    border_split,
    reduce_size,
    self_ortho_border_condition,
)
from tropnorm.core import NormalMatrix, identity, mat_odot, all_zero
from tropnorm.ortho import is_orthogonal


def rand_vector(rng, n):
    return BorderVector(n, frozenset(i for i in range(1, n + 1) if rng.random() < 0.5))


def rand_blocks(rng, n):
    return BorderedBlocks(rand_normal(rng, n), rand_vector(rng, n), rand_vector(rng, n))


def test_border_vector_basics():
    v = BorderVector.from_entries([0, -1, 0])
    assert v.n == 3
    assert v.zeros == frozenset({1, 3})
    assert v.entry(1) == 0 and v.entry(2) == -1
    with pytest.raises(IndexError):
        v.entry(4)


@pytest.mark.parametrize("entries,where", [
    ([0, 5, "x"], "entry 2"),
    ([0, -1, "x"], "entry 3"),
    ([1], "entry 1"),
])
def test_border_vector_rejects_bad_entries(entries, where):
    with pytest.raises(ValueError, match=where):
        BorderVector.from_entries(entries)


def test_compose_split_round_trip():
    rng = random.Random(30)
    for _ in range(300):
        n = rng.randint(1, 7)
        blocks = rand_blocks(rng, n)
        a = border_compose(blocks)
        assert a.n == n + 1
        # corner entry is always a zero of the composed matrix (diagonal)
        assert a.entry(n + 1, n + 1) == 0
        assert border_split(a) == blocks


def test_split_random_matrices():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 8)
        a = rand_normal(rng, n)
        assert border_compose(border_split(a)) == a


def test_orthogonality_condition_matches_brute_force():
    # the four vector conditions are equivalent to orthogonality of the
    # bordered matrices, given orthogonal inner blocks
    rng = random.Random(32)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 5)
        b1, b2 = rand_normal(rng, n), rand_normal(rng, n)
        if not is_orthogonal(b1, b2):
            continue
        blocks1 = BorderedBlocks(b1, rand_vector(rng, n), rand_vector(rng, n))
        blocks2 = BorderedBlocks(b2, rand_vector(rng, n), rand_vector(rng, n))
        res = border_orthogonality_condition(blocks1, blocks2)
        direct = is_orthogonal(border_compose(blocks1), border_compose(blocks2))
        assert res["orthogonal"] == direct
        assert res["orthogonal"] == all(res["conditions"].values())
        checked += 1


def test_orthogonality_condition_requires_orthogonal_blocks():
    rng = random.Random(33)
    b1 = identity(3)
    blocks = BorderedBlocks(b1, rand_vector(rng, 3), rand_vector(rng, 3))
    with pytest.raises(ValueError):
        border_orthogonality_condition(blocks, blocks)


def test_self_orthogonality_condition():
    rng = random.Random(34)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 5)
        b = rand_normal(rng, n)
        if not is_orthogonal(b, b):
            continue
        blocks = BorderedBlocks(b, rand_vector(rng, n), rand_vector(rng, n))
        res = self_ortho_border_condition(blocks)
        a = border_compose(blocks)
        assert res["self_orthogonal"] == is_orthogonal(a, a)
        checked += 1


def test_self_orthogonal_growth():
    # a self-orthogonal matrix borders to a self-orthogonal one with the
    # all-zero border vectors
    rng = random.Random(35)
    for _ in range(200):
        n = rng.randint(1, 5)
        b = rand_normal(rng, n)
        if not is_orthogonal(b, b):
            continue
        full = BorderVector(n, frozenset(range(1, n + 1)))
        res = self_ortho_border_condition(BorderedBlocks(b, full, full))
        assert res["self_orthogonal"]


def test_reduce_size():
    assert reduce_size(identity(4), 2) == identity(3)
    rng = random.Random(36)
    for _ in range(200):
        n = rng.randint(2, 7)
        blocks = rand_blocks(rng, n)
        empty = BorderVector(n, frozenset())
        a = border_compose(BorderedBlocks(blocks.b, empty, empty))
        assert reduce_size(a, n + 1) == blocks.b
    with pytest.raises(ValueError):
        reduce_size(all_zero(3), 1)
    with pytest.raises(IndexError):
        reduce_size(identity(3), 4)


def test_reduce_preserves_orthogonality_of_remainder():
    # cutting the same index out of an orthogonal pair whose row/column i
    # carry no extra zeros leaves an orthogonal pair
    rng = random.Random(37)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 5)
        b1, b2 = rand_normal(rng, n), rand_normal(rng, n)
        if not is_orthogonal(b1, b2):
            continue
        empty = BorderVector(n, frozenset())
        a1 = border_compose(BorderedBlocks(b1, empty, empty))
        a2 = border_compose(BorderedBlocks(b2, empty, empty))
        r1, r2 = reduce_size(a1, n + 1), reduce_size(a2, n + 1)
        assert (r1, r2) == (b1, b2)
        # the bordered pair itself need not be orthogonal; the inner one is
        assert is_orthogonal(r1, r2)
        assert mat_odot(r1, r2) == all_zero(n)
        checked += 1


# -- references on zero-position sets ---------------------------------------


def _compose_zeros(blocks):
    n = blocks.b.n
    zeros = set(blocks.b.zeros)
    zeros |= {(i, n + 1) for i in blocks.v.zeros}
    zeros |= {(n + 1, j) for j in blocks.w.zeros}
    return NormalMatrix.from_zeros(n + 1, zeros)


def _split_zeros(a):
    n = a.n - 1
    inner = NormalMatrix.from_zeros(n, {(i, j) for i, j in a.zeros if i <= n and j <= n})
    v = BorderVector(n, {i for i, j in a.zeros if j == n + 1 and i <= n})
    w = BorderVector(n, {j for i, j in a.zeros if i == n + 1 and j <= n})
    return BorderedBlocks(inner, v, w)


def _reduce_zeros(a, i):
    """Row and column i deleted, or None when they hold an off-diagonal zero."""
    if any(i in (r, c) and r != c for r, c in a.zeros):
        return None

    def shift(x):
        return x if x < i else x - 1

    return NormalMatrix.from_zeros(
        a.n - 1, {(shift(r), shift(c)) for r, c in a.zeros if i not in (r, c)}
    )


def test_compose_split_match_zero_sets():
    rng = random.Random(38)
    for n in range(1, 8):
        for _ in range(60):
            blocks = rand_blocks(rng, n)
            assert border_compose(blocks) == _compose_zeros(blocks)
            a = rand_normal(rng, n + 1)
            assert border_split(a) == _split_zeros(a)
    with pytest.raises(ValueError, match="order-1"):
        border_split(identity(1))


def test_reduce_size_matches_zero_sets():
    rng = random.Random(39)
    for n in range(2, 8):
        for i in range(1, n + 1):
            for _ in range(10):
                # clear row and column i, then put one zero back in the row
                # only, in the column only, or nowhere
                rows = [r if k == i - 1 else r & ~(1 << (i - 1))
                        for k, r in enumerate(rand_normal(rng, n).rows)]
                rows[i - 1] = 1 << (i - 1)
                clean = NormalMatrix(n, tuple(rows))
                t = rng.choice([t for t in range(1, n + 1) if t != i])
                row_only = NormalMatrix.from_zeros(n, clean.zeros | {(i, t)})
                col_only = NormalMatrix.from_zeros(n, clean.zeros | {(t, i)})
                assert reduce_size(clean, i) == _reduce_zeros(clean, i)
                for a in (row_only, col_only):
                    assert _reduce_zeros(a, i) is None
                    with pytest.raises(ValueError, match=f"row/column {i} has off-diagonal"):
                        reduce_size(a, i)
            a = rand_normal(rng, n)
            want = _reduce_zeros(a, i)
            if want is None:
                with pytest.raises(ValueError):
                    reduce_size(a, i)
            else:
                assert reduce_size(a, i) == want
    with pytest.raises(ValueError, match="order-1"):
        reduce_size(identity(1), 1)
