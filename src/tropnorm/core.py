"""Two-element tropical semiring {0, -1} and normal matrices over it.

A normal matrix is identified with its set of zero positions: the diagonal
is always zero, every other entry is 0 or -1.  Each matrix keeps one
bitmask per row (bit j-1 set means entry (i, j) is zero), which makes
tropical products and row/column extraction cheap up to n ~ 12 and beyond.
It is the one encoding: every builder in the package, here and in
`ortho`, `families` and `border`, sets row masks, and `from_zeros` and
`.zeros` serve only callers whose input or output is a set of positions.

This module owns every bit-level decision about that format, and the other
modules call it instead of re-deriving them:

* the off-diagonal mask codec: `offdiag_rows` decodes an n(n-1)-bit mask
  (one bit per off-diagonal cell, row-major) to row masks through
  per-order lookup tables, and `offdiag_mask` encodes them;
  `_sliced_meets` gives, per n-bit value r, the set of matrices each of
  whose columns (rows) meets r, as one int with a bit per mask;
* the row-union kernel `_row_union`: the union of the rows picked by the
  set bits of a mask, which is one row of a tropical product, and
  `_union_table`, its value for every mask at one OR each;
* set-bit iteration `_bits` and the bit transpose `_cols`;
* the symmetry group S_n x C2 of conjugation by permutation matrices
  and the transpose, in two forms with one job each.  For orbits,
  `_slot_images` holds each off-diagonal slot's image under every
  element: the search closes its pairs through it, and `graphs` reads
  the columns of the transposition (1 2), the n-cycle and the transpose,
  which generate the group.  For canonicity, `_conj` gives conjugation
  by a permutation on row masks as a (source rows, row-mask image) pair,
  and `is_canonical` picks the lex-greatest matrix of each orbit through
  the permutations that can give it its first row (`_first_row_tables`).

All indices in the public API are 1-based.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import permutations
from operator import and_
from typing import Iterable, Iterator, Sequence

ZERO = 0
MINUS_ONE = -1

_SCALARS = (ZERO, MINUS_ONE)


class DimensionMismatch(ValueError):
    """Raised when two matrices of different orders are combined."""


class MatrixFormatError(ValueError):
    """Raised by parse_matrix on malformed input text."""


class SearchInconclusive(RuntimeError):
    """A resource cap was hit before the search finished."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


# the relation graphs of `graphs`, named here so that the CLI parser can
# offer them without importing the graph builders
GRAPH_KINDS = ("ortho", "vnl", "wnl")

# the most matrices or pairs a document lists, in search certificates and
# in the CLI's lists; named here so that the CLI imports `search` only to
# search
WITNESS_CAP = 10_000


_setfield = object.__setattr__


class _Record:
    """Base of the package's immutable records.  A record names its fields
    in `_fields`, sets them once in __init__ (through `_set`, or
    `_setfield` where it is built in a hot loop), and compares, hashes and
    prints by their values; assigning or deleting an attribute afterwards
    raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            _setfield(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NormalMatrix(_Record):
    """Square matrix over {0, -1} with zero diagonal, stored as row bitmasks.

    rows[i] has bit (j-1) set iff entry (i+1, j) is zero.
    """

    __slots__ = _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        rows, full = tuple(rows), _full_row(n)
        if len(rows) != n:
            raise ValueError("row count does not match order")
        for i, r in enumerate(rows):
            if r & ~full:
                raise ValueError(f"row {i + 1} has bits outside [1..n]")
            if not r & (1 << i):
                raise ValueError(f"diagonal entry ({i + 1},{i + 1}) must be zero")
        _setfield(self, "n", n)
        _setfield(self, "rows", rows)

    # __init__, == and hash written out for this field pair: the searches
    # build matrices and the enumeration and orbit closure hash them in
    # their inner loops
    def __eq__(self, other):
        if other.__class__ is NormalMatrix:
            return self.n == other.n and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    # -- construction ------------------------------------------------

    @classmethod
    def from_zeros(cls, n: int, zeros: Iterable[tuple[int, int]]) -> "NormalMatrix":
        """Build from 1-based zero positions; the diagonal is added for free."""
        rows = [1 << i for i in range(n)]
        for i, j in zeros:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"position ({i},{j}) out of range for n={n}")
            rows[i - 1] |= 1 << (j - 1)
        return cls(n, tuple(rows))

    @classmethod
    def from_entries(cls, entries: list[list[int]]) -> "NormalMatrix":
        n = len(entries)
        rows = []
        for i, row in enumerate(entries, 1):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            for j, e in enumerate(row, 1):
                if e not in _SCALARS:
                    raise ValueError(f"entry ({i},{j}) must be 0 or -1, got {e!r}")
                if e != ZERO and i == j:
                    raise ValueError(f"diagonal entry ({i},{i}) must be zero")
            rows.append(sum(1 << j for j, e in enumerate(row) if e == ZERO))
        return cls(n, tuple(rows))

    # -- inspection --------------------------------------------------

    @property
    def zeros(self) -> frozenset[tuple[int, int]]:
        """1-based positions of the zero entries (diagonal included)."""
        return frozenset(
            (i + 1, j + 1) for i, r in enumerate(self.rows) for j in _bits(r)
        )

    def entry(self, i: int, j: int) -> int:
        self._check_index(i)
        self._check_index(j)
        return ZERO if self.rows[i - 1] & (1 << (j - 1)) else MINUS_ONE

    def row_mask(self, i: int) -> int:
        self._check_index(i)
        return self.rows[i - 1]

    def col_mask(self, j: int) -> int:
        self._check_index(j)
        return _cols(self.rows)[j - 1]

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range for n={self.n}")

    def __le__(self, other: "NormalMatrix") -> bool:
        """Entrywise order: since -1 < 0, A <= B iff zeros(A) <= zeros(B)."""
        _same_order(self, other)
        return all(ra & ~rb == 0 for ra, rb in zip(self.rows, other.rows))


def _same_order(a: NormalMatrix, b: NormalMatrix) -> int:
    if a.n != b.n:
        raise DimensionMismatch(f"orders differ: {a.n} vs {b.n}")
    return a.n


# -- bit kernels -----------------------------------------------------


def _bits(x: int) -> Iterator[int]:
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _row_union(pick: int, rows: Sequence[int]) -> int:
    """Union of rows[t] over the set bits t of pick.

    With pick a row of A and rows the rows of B, this is the row of the
    tropical product A*B: column j is zero iff some t has a_it = b_tj = 0."""
    acc = 0
    while pick:
        low = pick & -pick
        acc |= rows[low.bit_length() - 1]
        pick ^= low
    return acc


def _cols(rows: Sequence[int]) -> list[int]:
    """Column masks of a square bit matrix given by its row masks: bit i of
    column j is bit j of row i."""
    cols = [0] * len(rows)
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= bit
            r ^= low
    return cols


# -- distinguished matrices -----------------------------------------


def _full_row(n: int) -> int:
    """The row mask with all n bits set, once n is checked as an order."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return (1 << n) - 1


def identity(n: int) -> NormalMatrix:
    return NormalMatrix(n, tuple(1 << i for i in range(n)))


def all_zero(n: int) -> NormalMatrix:
    return NormalMatrix(n, (_full_row(n),) * n)


def elementary_e(i: int, j: int, n: int) -> NormalMatrix:
    """All entries zero except a single -1 at (i, j); requires i != j."""
    if i == j:
        raise ValueError("E(i,i) would break the zero diagonal")
    rows = [_full_row(n)] * n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"position ({i},{j}) out of range for n={n}")
    rows[i - 1] &= ~(1 << (j - 1))
    return NormalMatrix(n, tuple(rows))


def elementary_u(i: int, j: int, n: int) -> NormalMatrix:
    """Diagonal plus a single zero at (i, j); requires i != j."""
    if i == j:
        raise ValueError("U(i,i) coincides with the identity; rejected")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"position ({i},{j}) out of range for n={n}")
    return NormalMatrix(n, tuple(1 << t | (t == i - 1) << (j - 1) for t in range(n)))


def make_elementary(kind: str, n: int, i: int = 0, j: int = 0) -> NormalMatrix:
    """Dispatch on kind in {'E', 'U', 'I', 'Z'}."""
    if kind == "I":
        return identity(n)
    if kind == "Z":
        return all_zero(n)
    if kind == "E":
        return elementary_e(i, j, n)
    if kind == "U":
        return elementary_u(i, j, n)
    raise ValueError(f"unknown elementary kind {kind!r}")


# -- tropical algebra ------------------------------------------------


def mat_oplus(a: NormalMatrix, b: NormalMatrix) -> NormalMatrix:
    """Entrywise max: union of the zero patterns."""
    n = _same_order(a, b)
    return NormalMatrix(n, tuple(ra | rb for ra, rb in zip(a.rows, b.rows)))


def mat_odot(a: NormalMatrix, b: NormalMatrix) -> NormalMatrix:
    """Tropical product: entry (i,j) is zero iff some t has a_it = b_tj = 0.

    Bit-parallel: row i of the product is the union of the rows of b indexed
    by the zero columns of row i of a.
    """
    n = _same_order(a, b)
    brows = b.rows
    return NormalMatrix(n, tuple([_row_union(ra, brows) for ra in a.rows]))


def naive_odot(a: NormalMatrix, b: NormalMatrix) -> NormalMatrix:
    """Independent oracle: triple-loop max-plus evaluation over {0, -1}.

    Deliberately avoids the bitmask path so the two products can be checked
    against each other.
    """
    n = _same_order(a, b)
    ea = [[a.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    eb = [[b.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(max(ea[i][t] + eb[t][j] for t in range(n)))
        out.append(row)
    # max-plus over {0,-1} can produce -2; clamp to the semiring
    clamped = [[ZERO if v == 0 else MINUS_ONE for v in row] for row in out]
    return NormalMatrix.from_entries(clamped)


def transpose(a: NormalMatrix) -> NormalMatrix:
    return NormalMatrix(a.n, tuple(_cols(a.rows)))


def permute_conjugate(a: NormalMatrix, i: int, j: int) -> NormalMatrix:
    """Conjugation P_ij A P_ij by the transposition (i j): relabel i <-> j."""
    a._check_index(i)
    a._check_index(j)
    if i == j:
        return a
    p, q = i - 1, j - 1
    rows = list(a.rows)
    rows[p], rows[q] = rows[q], rows[p]
    # swap bits p and q of every row: flip both where they differ
    both = 1 << p | 1 << q
    return NormalMatrix(a.n, tuple(r ^ both if (r >> p ^ r >> q) & 1 else r for r in rows))


# -- counting --------------------------------------------------------


def nu(a: NormalMatrix) -> int:
    """Total number of zero entries; at least n."""
    return sum(r.bit_count() for r in a.rows)


def nu_row(a: NormalMatrix, i: int) -> int:
    """Number of zeros in row i (diagonal included)."""
    return a.row_mask(i).bit_count()


def sigma_row(a: NormalMatrix, b: NormalMatrix, i: int) -> int:
    """Off-diagonal zeros of the pair in row i."""
    _same_order(a, b)
    return nu_row(a, i) + nu_row(b, i) - 2


def sigma(a: NormalMatrix, b: NormalMatrix) -> int:
    """Total off-diagonal zeros of the pair: nu(A) + nu(B) - 2n."""
    n = _same_order(a, b)
    return nu(a) + nu(b) - 2 * n


# -- text I/O --------------------------------------------------------


def parse_matrix(text: str) -> NormalMatrix:
    """Parse newline-separated rows of '0' / '-' glyphs."""
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    n = len(lines)
    if n == 0:
        raise MatrixFormatError("empty matrix text")
    rows = []
    for i, ln in enumerate(lines):
        ln = ln.strip()
        if len(ln) != n:
            raise MatrixFormatError(
                f"line {i + 1} has {len(ln)} characters, expected {n}"
            )
        r = 0
        for j, ch in enumerate(ln):
            if ch == "0":
                r |= 1 << j
            elif ch != "-":
                raise MatrixFormatError(
                    f"unexpected character {ch!r} at line {i + 1}, column {j + 1}"
                )
        if not r & (1 << i):
            raise MatrixFormatError(f"diagonal entry ({i + 1},{i + 1}) is not '0'")
        rows.append(r)
    return NormalMatrix(n, tuple(rows))


# binary digits of a row mask to cells: a set bit is a zero entry
_CELLS = str.maketrans("10", "0-")


def format_matrix(a: NormalMatrix) -> str:
    """One line per row, '0' for a zero entry and '-' for -1: the row mask
    in n binary digits, reversed so that column 1 comes first."""
    width = f"0{a.n}b"
    return "\n".join([format(r, width)[::-1] for r in a.rows]).translate(_CELLS)


# -- enumeration helpers ---------------------------------------------


@lru_cache(maxsize=None)
def _offdiag_tables(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per row i: the shift of its (n-1)-bit field in an off-diagonal mask,
    and the full row mask of every field value (the field fills columns
    0..n-1 except i, and bit i is the diagonal).  The tables of order n
    hold n * 2^(n-1) entries."""
    stride = n - 1
    tables = []
    for i in range(n):
        low = (1 << i) - 1
        row = tuple(
            (f & low) | ((f & ~low) << 1) | (1 << i) for f in range(1 << stride)
        )
        tables.append((i * stride, row))
    return tuple(tables)


def offdiag_rows(n: int, mask: int) -> tuple[int, ...]:
    """Row masks of the normal matrix whose off-diagonal zeros are the set
    bits of mask, one bit per off-diagonal cell in row-major order."""
    stride = n - 1
    if n < 1 or mask < 0 or mask >> (n * stride):
        raise ValueError(f"mask {mask} does not fit the off-diagonal slots of order {n}")
    field = (1 << stride) - 1
    return tuple([row[(mask >> shift) & field] for shift, row in _offdiag_tables(n)])


def offdiag_mask(n: int, rows: Sequence[int]) -> int:
    """Inverse of offdiag_rows: the off-diagonal mask of the row masks."""
    stride = n - 1
    m = 0
    for i, r in enumerate(rows):
        m |= ((r & ((1 << i) - 1)) | (r >> (i + 1) << i)) << (i * stride)
    return m


def _union_table(parts: Sequence[int]) -> list[int]:
    """`_row_union(r, parts)` for every r below 2^len(parts), one OR per
    entry: r is r without its lowest bit, plus that bit's part."""
    table = [0] * (1 << len(parts))
    for r in range(1, len(table)):
        low = r & -r
        table[r] = table[r ^ low] | parts[low.bit_length() - 1]
    return table


def _sliced_meets(n: int) -> tuple[list[int], list[int]]:
    """Per n-bit value r, the matrices of order n each of whose columns
    meets r (cols_meet[r]) and those each of whose rows meets r
    (rows_meet[r]), bit-sliced: a set of matrices is an int whose bit m
    stands for the matrix with off-diagonal mask m.  A*B = Z iff every
    row of A meets every column of B."""
    slots = n * n - n
    size = 1 << slots
    # the matrices with a zero at off-diagonal slot s: runs of 2^s
    slot_set = [
        int(("1" * (1 << s) + "0" * (1 << s)) * (size >> (s + 1)), 2) for s in range(slots)
    ]
    # cells[i][j]: the matrices with a zero at (i, j), every one if i == j
    cells = [
        [(1 << size) - 1 if i == j else slot_set[i * (n - 1) + j - (j > i)] for j in range(n)]
        for i in range(n)
    ]

    def meet(lines) -> list[int]:
        return [reduce(and_, per_line) for per_line in zip(*map(_union_table, lines))]

    return meet(zip(*cells)), meet(cells)


def _conj(n: int, p: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Conjugation P A P^-1 by the permutation p of 0..n-1: the source row
    p^-1(t) of each row t and the image of every row mask, bit j moved to
    p(j).  The image of rows is `[img[rows[s]] for s in src]`: the zero at
    (i, j) moves to (p(i), p(j))."""
    src = tuple(sorted(range(n), key=p.__getitem__))
    return src, tuple(_union_table([1 << t for t in p]))


@lru_cache(maxsize=None)
def _slot_images(n: int) -> tuple[tuple[int, ...], ...]:
    """Per off-diagonal slot, in mask order, the bit its zero moves to under
    every element of S_n x C2: each permutation p, in `permutations` order,
    sends (i, j) to (p(i), p(j)), then to (p(j), p(i)) for the transpose."""
    bit = {ij: 1 << s for s, ij in enumerate((i, j) for i in range(n) for j in range(n) if j != i)}
    perms = list(permutations(range(n)))
    return tuple(tuple([bit[p[i], p[j]] for p in perms] + [bit[p[j], p[i]] for p in perms])
                 for i, j in bit)


@lru_cache(maxsize=None)
def _first_row_tables(n: int) -> tuple[tuple[tuple, ...], ...]:
    """Per source row s and row mask r holding bit s: `_conj` of the
    permutations that send row s to row 0 and the other bits of r to the
    top |r| - 1 bits, so that the image of a row r at s is the greatest
    first row of its zero count, in `permutations` order (the identity
    first).  Each permutation lands under n keys, one per |r|."""
    tables = [[[] for _ in range(1 << n)] for _ in range(n)]
    for p in permutations(range(n)):
        src, img = _conj(n, p)
        r = 1 << src[0]
        tables[src[0]][r].append((src, img))
        for t in reversed(range(1, n)):
            r |= 1 << src[t]
            tables[src[0]][r].append((src, img))
    return tuple(tuple(map(tuple, by_mask)) for by_mask in tables)


def is_canonical(rows: Sequence[int], cols: Sequence[int]) -> bool:
    """Whether the row tuple is lexicographically greatest among its images
    under conjugation by permutation matrices and the transpose, the group
    S_n x C2; each order keeps one such matrix per orbit.  `cols` are the
    column masks of rows (`_cols(rows)`).  Stops at the first greater
    image."""
    n = len(rows)
    # the greatest first row of an image is 1 | ((2^(c-1) - 1) << (n-c+1))
    # for the most zeros c of a row or column: a row of c zeros whose
    # diagonal bit is relabelled 0 and whose other bits are the top c - 1
    c = max(map(int.bit_count, (*rows, *cols)))
    if rows[0] != 1 | ((1 << c - 1) - 1) << n - c + 1:
        return False
    # so only the images that send a row of c zeros to row 0 in that form
    # tie rows at row 0; every other image is smaller there
    tables = _first_row_tables(n)
    for base, skip in ((rows, 1), (cols, 0)):
        for s, r in enumerate(base):
            if r.bit_count() != c:
                continue
            # on rows, the identity leads the entries of (0, rows[0])
            for src, img in tables[s][r][skip if s == 0 else 0:]:
                for t in range(1, n):
                    d = img[base[src[t]]] - rows[t]
                    if d:
                        if d > 0:
                            return False
                        break
    return True


def from_offdiag_mask(n: int, mask: int) -> NormalMatrix:
    """Matrix whose off-diagonal zeros are the set bits of mask, in
    row-major order."""
    return NormalMatrix(n, offdiag_rows(n, mask))


def to_offdiag_mask(a: NormalMatrix) -> int:
    return offdiag_mask(a.n, a.rows)


def all_normal_matrices(n: int) -> Iterator[NormalMatrix]:
    """All 2^(n^2-n) normal matrices, in off-diagonal mask order."""
    for mask in range(1 << (n * n - n)):
        yield from_offdiag_mask(n, mask)
