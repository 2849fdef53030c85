import random

import pytest

from conftest import rand_normal
from tropnorm.core import (
    DimensionMismatch,
    MatrixFormatError,
    NormalMatrix,
    all_normal_matrices,
    all_zero,
    format_matrix,
    from_offdiag_mask,
    identity,
    make_elementary,
    mat_odot,
    mat_oplus,
    naive_odot,
    nu,
    nu_row,
    offdiag_positions,
    parse_matrix,
    permute_conjugate,
    sigma,
    sigma_row,
    to_offdiag_mask,
    transpose,
)


def test_construction_and_entries():
    m = NormalMatrix.from_zeros(3, [(1, 2), (3, 1)])
    assert m.entry(1, 2) == 0
    assert m.entry(2, 1) == -1
    assert m.entry(2, 2) == 0
    assert m.zeros == frozenset({(1, 1), (2, 2), (3, 3), (1, 2), (3, 1)})


def test_diagonal_always_zero():
    m = NormalMatrix.from_entries([[0, -1], [-1, 0]])
    assert m == identity(2)
    with pytest.raises(ValueError):
        NormalMatrix.from_entries([[-1, 0], [0, 0]])


def test_entry_index_errors():
    m = identity(3)
    with pytest.raises(IndexError):
        m.entry(0, 1)
    with pytest.raises(IndexError):
        m.entry(1, 4)


def test_identity_and_zero():
    i3 = identity(3)
    z3 = all_zero(3)
    assert nu(i3) == 3
    assert nu(z3) == 9
    assert i3 <= z3
    assert not z3 <= i3


def test_elementary_constructors():
    u = make_elementary("U", 3, 1, 2)
    assert u.zeros == frozenset({(1, 1), (2, 2), (3, 3), (1, 2)})
    e = make_elementary("E", 3, 1, 2)
    assert e.entry(1, 2) == -1
    assert nu(e) == 8
    assert make_elementary("I", 4) == identity(4)
    assert make_elementary("Z", 4) == all_zero(4)
    for kind in ("E", "U"):
        with pytest.raises(ValueError):
            make_elementary(kind, 3, 2, 2)
    with pytest.raises(ValueError):
        make_elementary("Q", 3, 1, 2)


def test_oplus_is_zero_union():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 6)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        assert mat_oplus(a, b).zeros == a.zeros | b.zeros


def test_odot_neutral_and_absorbing():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = rand_normal(rng, n)
        assert mat_odot(a, identity(n)) == a == mat_odot(identity(n), a)
        assert mat_odot(a, all_zero(n)) == all_zero(n) == mat_odot(all_zero(n), a)
        assert mat_oplus(a, identity(n)) == a


def test_odot_matches_naive():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 7)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        assert mat_odot(a, b) == naive_odot(a, b)


def test_odot_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_odot(identity(2), identity(3))


def test_transpose_involution_and_product():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 6)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        assert transpose(transpose(a)) == a
        assert transpose(mat_odot(a, b)) == mat_odot(transpose(b), transpose(a))


def test_permute_conjugate():
    a = NormalMatrix.from_zeros(3, [(1, 2)])
    b = permute_conjugate(a, 1, 3)
    assert b == NormalMatrix.from_zeros(3, [(3, 2)])
    assert permute_conjugate(a, 2, 2) == a
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 6)
        m = rand_normal(rng, n)
        i, j = rng.randint(1, n), rng.randint(1, n)
        assert permute_conjugate(permute_conjugate(m, i, j), i, j) == m
        assert nu(permute_conjugate(m, i, j)) == nu(m)


def test_counts():
    a = NormalMatrix.from_zeros(3, [(1, 2), (1, 3), (2, 1)])
    b = identity(3)
    assert nu(a) == 6
    assert nu_row(a, 1) == 3
    assert sigma(a, b) == 3
    assert sigma_row(a, b, 1) == 2
    assert sigma_row(a, b, 3) == 0


def test_parse_format_round_trip():
    text = "0-0\n00-\n-00"
    m = parse_matrix(text)
    assert format_matrix(m) == text
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 7)
        a = rand_normal(rng, n)
        assert parse_matrix(format_matrix(a)) == a


def test_parse_errors():
    with pytest.raises(MatrixFormatError):
        parse_matrix("")
    with pytest.raises(MatrixFormatError):
        parse_matrix("0-\n0")  # ragged
    with pytest.raises(MatrixFormatError):
        parse_matrix("0x\n00")  # foreign glyph
    with pytest.raises(MatrixFormatError):
        parse_matrix("--\n-0")  # nonzero diagonal
    with pytest.raises(MatrixFormatError):
        parse_matrix("0-0\n00-")  # not square


def test_offdiag_mask_round_trip():
    for n in (1, 2, 3, 4):
        slots = n * n - n
        assert len(offdiag_positions(n)) == slots
        for mask in range(min(1 << slots, 256)):
            assert to_offdiag_mask(from_offdiag_mask(n, mask)) == mask
    # the codec's slot order is the row-major order of offdiag_positions
    for n in range(1, 7):
        for s, pos in enumerate(offdiag_positions(n)):
            assert from_offdiag_mask(n, 1 << s) == NormalMatrix.from_zeros(n, [pos])


def test_all_normal_matrices():
    mats = list(all_normal_matrices(3))
    assert len(mats) == 64
    assert len(set(mats)) == 64
    assert mats[0] == identity(3)
    assert mats[-1] == all_zero(3)


def test_entrywise_order():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        a, b = rand_normal(rng, n), rand_normal(rng, n)
        assert (a <= b) == (a.zeros <= b.zeros)
        assert identity(n) <= a <= all_zero(n)
