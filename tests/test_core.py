import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conjugations, rand_normal, slot_generators, slot_image
from tropnorm import search
from tropnorm.core import (
    DimensionMismatch,
    MatrixFormatError,
    NormalMatrix,
    _cols,
    _conj,
    _partners,
    _row_union,
    _sliced_meets,
    _slot_images,
    _union_table,
    all_normal_matrices,
    all_zero,
    elementary_e,
    elementary_u,
    format_matrix,
    from_offdiag_mask,
    identity,
    is_canonical,
    make_elementary,
    mat_odot,
    mat_oplus,
    naive_odot,
    nu,
    nu_row,
    offdiag_rows,
    parse_matrix,
    permute_conjugate,
    sigma,
    sigma_row,
    to_offdiag_mask,
    transpose,
)
from tropnorm.ortho import is_orthogonal


def test_construction_and_entries():
    m = NormalMatrix.from_zeros(3, [(1, 2), (3, 1)])
    assert m.entry(1, 2) == 0
    assert m.entry(2, 1) == -1
    assert m.entry(2, 2) == 0
    assert m.zeros == frozenset({(1, 1), (2, 2), (3, 3), (1, 2), (3, 1)})


def _outcome(build, *args):
    """The value of build(*args), or the type and message of its error."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _from_entries_reference(entries):
    """`NormalMatrix.from_entries` through the positions of the zeros."""
    n = len(entries)
    zeros = []
    for i, row in enumerate(entries, 1):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
        for j, e in enumerate(row, 1):
            if e not in (0, -1):
                raise ValueError(f"entry ({i},{j}) must be 0 or -1, got {e!r}")
            if e == 0:
                zeros.append((i, j))
            elif i == j:
                raise ValueError(f"diagonal entry ({i},{i}) must be zero")
    return NormalMatrix.from_zeros(n, zeros)


def test_from_entries_matches_zero_positions():
    # every grid of 0, -1 and 5 up to order 3: the matrix or the message
    built = 0
    for n in range(4):
        for cells in product((0, -1, 5), repeat=n * n):
            entries = [list(cells[i * n:(i + 1) * n]) for i in range(n)]
            got = _outcome(NormalMatrix.from_entries, entries)
            assert got == _outcome(_from_entries_reference, entries), entries
            built += isinstance(got, NormalMatrix)
    assert built == 1 + 2**2 + 2**6


def test_elementary_u_matches_zero_positions():
    for n in range(7):
        for i, j in product(range(n + 2), repeat=2):
            want = (
                (ValueError, "U(i,i) coincides with the identity; rejected")
                if i == j
                else _outcome(NormalMatrix.from_zeros, n, [(i, j)])
            )
            assert _outcome(elementary_u, i, j, n) == want, (i, j, n)
    with pytest.raises(ValueError, match=r"position \(2,5\) out of range for n=4"):
        elementary_u(2, 5, 4)


def test_diagonal_always_zero():
    m = NormalMatrix.from_entries([[0, -1], [-1, 0]])
    assert m == identity(2)
    with pytest.raises(ValueError):
        NormalMatrix.from_entries([[-1, 0], [0, 0]])


@pytest.mark.parametrize("entries,where", [
    ([[0, 7], [-3, 0]], r"entry \(1,2\)"),
    ([[0, -1], ["x", 0]], r"entry \(2,1\)"),
    ([[0, -1, 0], [-1, 0]], "row 1 has 3 entries"),
    ([[0, -1], [-1]], "row 2 has 1 entries"),
    ([[0, -1, 0], [-1, 0, 0], [0, 0]], "row 3 has 2 entries"),
])
def test_from_entries_rejects_bad_entries(entries, where):
    with pytest.raises(ValueError, match=where):
        NormalMatrix.from_entries(entries)


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


@pytest.mark.parametrize("n", (0, -1))
def test_constructors_reject_orders_below_one(n):
    # the order is checked before a full row mask is shifted out of it
    for make in (identity, all_zero, lambda n: elementary_e(1, 2, n)):
        with pytest.raises(ValueError, match=f"order must be >= 1, got {n}"):
            make(n)


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


def test_permute_conjugate_matches_relabelling():
    # every (i, j) at orders 1..6, against moving each zero (p, q) to
    # (s(p), s(q)) for the transposition s = (i j)
    rng = random.Random(6)
    for n in range(1, 7):
        if n <= 3:
            mats = list(all_normal_matrices(n))
        else:
            mats = [rand_normal(rng, n) for _ in range(40)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                s = {i: j, j: i}
                for m in mats:
                    moved = [(s.get(p, p), s.get(q, q)) for p, q in m.zeros]
                    want = NormalMatrix.from_zeros(n, moved)
                    assert permute_conjugate(m, i, j) == want, (m, i, j)
    with pytest.raises(IndexError):
        permute_conjugate(identity(3), 0, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_conj_tables_match_per_bit_images(n):
    # every permutation, in order, against the image of each row mask
    # built bit by bit: bit j moves to p(j), and row t comes from p^-1(t)
    want = []
    for p in permutations(range(n)):
        src = tuple(p.index(t) for t in range(n))
        img = tuple(sum(1 << p[j] for j in range(n) if r >> j & 1) for r in range(1 << n))
        want.append((src, img))
    assert [_conj(n, p) for p in permutations(range(n))] == want
    # the tables behind the reference walks of the tests
    assert list(conjugations(n)) == want


@pytest.mark.parametrize("n", range(2, 6))
def test_slot_images_match_permutation_loop(n):
    # per slot, the slot its zero moves to under each element, from the
    # cells: p moves (i, j) to (p(i), p(j)), and the transpose first moves
    # it to (j, i); every p in order, then every p after the transpose
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    perms = list(permutations(range(n)))
    want = tuple(
        tuple(1 << cells.index((p[a], p[b])) for (a, b) in ((i, j), (j, i)) for p in perms)
        for i, j in cells
    )
    assert _slot_images(n) == want
    # and the ORs of a mask's slot tuples are its orbit under the group
    rng = random.Random(n)
    gens = slot_generators(n)
    for mask in [0, (1 << n * n - n) - 1] + [rng.getrandbits(n * n - n) for _ in range(20)]:
        images = [0] * len(want[0])
        for s in range(n * n - n):
            if mask >> s & 1:
                images = [x | y for x, y in zip(images, want[s])]
        orbit = {to_offdiag_mask(m) for m in _orbit(from_offdiag_mask(n, mask))}
        assert set(images) == orbit
        assert all(slot_image(mask, g) in orbit for g in gens)


def _orbit(m):
    """Every P A P^-1 and P A^T P^-1, from the definition."""
    out = set()
    for zeros in (m.zeros, {(j, i) for i, j in m.zeros}):
        for p in permutations(range(m.n)):
            out.add(NormalMatrix.from_zeros(m.n, [(p[i - 1] + 1, p[j - 1] + 1) for i, j in zeros]))
    return out


def _is_canonical_full_walk(rows):
    """Reference canonicity test: compare rows with every image under
    S_n x C2, the identity on rows excepted, from row 0 on."""
    n = len(rows)
    cols = _cols(rows)
    tables = conjugations(n)
    for base, perms in ((rows, tables[1:]), (cols, tables)):
        for src, img in perms:
            for t, s in enumerate(src):
                d = img[base[s]] - rows[t]
                if d:
                    if d > 0:
                        return False
                    break
    return True


def _images(rows):
    """Row tuples of every image of rows under S_n x C2."""
    return [
        tuple(img[base[s]] for s in src)
        for base in (tuple(rows), tuple(_cols(rows)))
        for src, img in conjugations(len(rows))
    ]


def _first_row_form(rows, rng):
    """A random image of rows that passes the first-row test of
    `is_canonical`: a row or column of the most zeros c, sent to row 0
    with its other zeros relabelled to the top c - 1 columns."""
    n = len(rows)
    cols = _cols(rows)
    c = max(map(int.bit_count, (*rows, *cols)))
    base = rng.choice([b for b in (rows, cols) if c in map(int.bit_count, b)])
    s = rng.choice([i for i, r in enumerate(base) if r.bit_count() == c])
    rest = [j for j in range(n) if not base[s] >> j & 1]
    top = [j for j in range(n) if base[s] >> j & 1 and j != s]
    rng.shuffle(rest)
    rng.shuffle(top)
    src = [s, *rest, *top]  # row t of the image comes from row src[t]
    p = {j: t for t, j in enumerate(src)}
    return tuple(sum(1 << p[j] for j in range(n) if base[i] >> j & 1) for i in src)


def test_canonical_one_per_orbit():
    # orbits under conjugation by permutation matrices and the transpose
    for n, orbits in {1: 1, 2: 3, 3: 13, 4: 144}.items():
        images = _slot_images(n)
        perms = list(permutations(range(n)))
        swap = (*reversed(range(min(n, 2))), *range(2, n))
        gens = perms.index(swap), perms.index(tuple((i + 1) % n for i in range(n))), len(perms)
        seen = set()
        for m in all_normal_matrices(n):
            if m in seen:
                continue
            orbit = _orbit(m)
            seen |= orbit
            orbits -= 1
            # exactly the lex-greatest row tuple of the orbit is canonical
            canonical = [x for x in orbit if is_canonical(x.rows, _cols(x.rows))]
            assert canonical == [max(orbit, key=lambda x: x.rows)]
            # and the columns of `_slot_images` that `graphs` reads, (1 2),
            # the n-cycle and the transpose, reach the whole orbit
            reached = [to_offdiag_mask(m)]
            for mask in reached:
                for e in gens:
                    image = sum(img[e] for s, img in enumerate(images) if mask >> s & 1)
                    if image not in reached:
                        reached.append(image)
            assert sorted(reached) == sorted(map(to_offdiag_mask, orbit))
        assert orbits == 0


def test_canonical_matches_full_walk_in_bounded_search(monkeypatch):
    # every row tuple that the orderly generation of theta(5, 14) tests
    tested = []

    def recording(rows, cols):
        assert list(cols) == _cols(rows)
        got = is_canonical(rows, cols)
        tested.append((tuple(rows), got))
        return got

    monkeypatch.setattr(search, "is_canonical", recording)
    _, stats = search._bounded_pairs(5, 14)
    # the last-level extensions cut by the column bound are not tested,
    # and those the look-ahead skips are not made
    assert len(tested) + stats["pre_cut"] == stats["left_factors"] == 1126
    assert stats["look_skipped"] == 351
    # the root, the identity, is searched without a test
    assert sum(got for _, got in tested) + 1 == stats["canonical"] == 396
    for rows, got in tested:
        assert got == _is_canonical_full_walk(rows)


@pytest.mark.parametrize("n, sets", [(5, 60), (6, 30), (7, 10)])
def test_canonical_matches_full_walk_on_first_row_forms(n, sets):
    # a random set almost always fails the first-row test, so each seeded
    # set is tested through images that pass it: the greatest one of its
    # orbit and random first-row forms, next to random images of the
    # orbit and the transposes of all of these
    rng = random.Random(1300 + n)
    outcomes = Counter()
    for _ in range(sets):
        density = rng.choice((0.2, 0.35, 0.5, 0.7))
        rows = tuple(
            1 << i | sum(1 << j for j in range(n) if rng.random() < density)
            for i in range(n)
        )
        images = _images(rows)
        forms = [max(images), *(_first_row_form(rows, rng) for _ in range(6))]
        forms += rng.sample(images, 4)
        forms += [tuple(_cols(x)) for x in forms]
        assert is_canonical(forms[0], _cols(forms[0]))
        for x in forms:
            got = is_canonical(x, _cols(x))
            assert got == _is_canonical_full_walk(x), x
            outcomes[got, x[0] == forms[0][0]] += 1
    # both outcomes are reached past the first-row test
    assert outcomes[True, True] >= sets and outcomes[False, True] >= sets


def _zero_sets(n):
    """Random zero sets of order n as row tuples, the diagonal included."""
    return st.tuples(*(st.integers(0, (1 << n) - 1).map(lambda r, i=i: r | 1 << i)
                       for i in range(n)))


@settings(max_examples=100, deadline=None, database=None)
@given(rows=st.integers(2, 6).flatmap(_zero_sets))
def test_canonical_matches_full_walk_and_orbit_maximum(rows):
    # on a random set `is_canonical` agrees with the full-walk oracle, and
    # on every image of its orbit that ties the greatest one at row 0, and
    # so passes the first-row test, with the brute-force orbit maximum
    assert is_canonical(rows, _cols(rows)) == _is_canonical_full_walk(rows)
    images = _images(rows)
    greatest = max(images)
    for x in {rows, *(y for y in images if y[0] == greatest[0])}:
        assert is_canonical(x, _cols(x)) == (x == greatest), x


def test_bounded_pairs_closed_under_slot_generators():
    triples, _ = search._bounded_pairs(5, 14)
    assert len(triples) == 6680
    found = set(triples)
    # the generators as slot permutations, independent of `core`
    gens = slot_generators(5)
    for sig, am, bm in triples:
        a, b = from_offdiag_mask(5, am), from_offdiag_mask(5, bm)
        assert is_orthogonal(a, b)
        assert sigma(a, b) == sig <= 14
        assert (sig, bm, am) in found
        for g in gens:
            assert (sig, slot_image(am, g), slot_image(bm, g)) in found


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


def test_format_matrix_matches_per_cell_definition():
    """format_matrix writes whole rows at once; each line must be the cells
    of its row, '0' for a zero entry and '-' for -1, on every matrix of
    order up to 4 and on seeded matrices of order up to 12."""
    def per_cell(a):
        return "\n".join(
            "".join("0" if a.entry(i, j) == 0 else "-" for j in range(1, a.n + 1))
            for i in range(1, a.n + 1)
        )

    rng = random.Random(48)
    seeded = [rand_normal(rng, n) for n in range(5, 13) for _ in range(50)]
    for n in range(1, 5):
        for a in all_normal_matrices(n):
            assert format_matrix(a) == per_cell(a), a
    for a in seeded:
        assert format_matrix(a) == per_cell(a), a


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
        for mask in range(min(1 << (n * n - n), 256)):
            assert to_offdiag_mask(from_offdiag_mask(n, mask)) == mask
    # the codec's slot order is the row-major order of the off-diagonal cells
    for n in range(1, 7):
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for s, pos in enumerate(cells):
            assert from_offdiag_mask(n, 1 << s) == NormalMatrix.from_zeros(n, [pos])


@pytest.mark.parametrize("n", range(1, 5))
def test_sliced_meets_match_definition(n):
    """Bit m of cols_meet[r] (rows_meet[r]) says every column (row) of
    mask m's matrix meets r, for every mask, 0 and the full one included,
    and every r; no bit lies past the last mask."""
    cols_meet, rows_meet = _sliced_meets(n)
    size = 1 << (n * n - n)
    assert len(cols_meet) == len(rows_meet) == 1 << n
    assert all(s >> size == 0 for s in cols_meet + rows_meet)
    for m in range(size):
        rows = offdiag_rows(n, m)
        cols = _cols(rows)
        for r in range(1 << n):
            assert cols_meet[r] >> m & 1 == all(c & r for c in cols), (m, r)
            assert rows_meet[r] >> m & 1 == all(x & r for x in rows), (m, r)


def _naive_partner(a, b) -> bool:
    z = all_zero(a.n)
    return naive_odot(a, b) == z and naive_odot(b, a) == z


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partners_match_naive_odot(n):
    """Bit m of `_partners(n, a.rows)` says the matrix of mask m is
    orthogonal to A by `naive_odot` in both orders, for every pair."""
    mats = list(all_normal_matrices(n))
    for a in mats:
        got = _partners(n, a.rows)
        assert [got >> m & 1 for m in range(len(mats))] == [_naive_partner(a, b) for b in mats], a


def test_partners_match_naive_odot_seeded_n4():
    """200 seeded A of order 4 against every B.  `naive_odot` over all
    819,200 pairs takes about 30 s on a 2-CPU host, so each bit is checked
    against the same max-plus sum evaluated in numpy over every B at once,
    and against `naive_odot` itself for 8 seeded partners and 8 seeded B
    of all."""
    import numpy as np

    mats = list(all_normal_matrices(4))
    cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    entries = np.array([[b.entry(i, j) for i, j in cells] for b in mats]).reshape(-1, 4, 4)
    rng = random.Random(4242)
    for _ in range(200):
        m = rng.getrandbits(12)
        a, ea = mats[m], entries[m]
        # (B, i, t, j): a_it + b_tj for A*B, b_it + a_tj for B*A, max over t
        ab = (ea[None, :, :, None] + entries[:, None, :, :]).max(axis=2)
        ba = (entries[:, :, :, None] + ea[None, None, :, :]).max(axis=2)
        want = ((ab == 0) & (ba == 0)).all(axis=(1, 2)).tolist()
        bits = _partners(4, a.rows)
        got = [bits >> b & 1 for b in range(len(mats))]
        assert got == want, a
        partners = [b for b, bit in enumerate(got) if bit]
        for b in rng.sample(partners, min(8, len(partners))) + rng.sample(range(len(mats)), 8):
            assert got[b] == _naive_partner(a, mats[b]), (a, mats[b])


def test_union_table_matches_row_union():
    rng = random.Random(31)
    for length in range(7):
        for _ in range(5):
            parts = [rng.getrandbits(40) for _ in range(length)]
            assert _union_table(parts) == [_row_union(r, parts) for r in range(1 << length)]


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
