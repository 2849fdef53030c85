"""Two-element tropical semiring {0, -1} and normal matrices over it.

A normal matrix is identified with its set of zero positions: the diagonal
is always zero, every other entry is 0 or -1.  Internally each matrix keeps
one bitmask per row (bit j-1 set means entry (i, j) is zero), which makes
tropical products and row/column extraction cheap up to n ~ 12 and beyond.

This module owns every bit-level decision about that format, and the other
modules call it instead of re-deriving them:

* the off-diagonal mask codec: `offdiag_rows` decodes an n(n-1)-bit mask
  (one bit per off-diagonal cell, in `offdiag_positions` order) to row
  masks through per-order lookup tables, and `offdiag_mask` encodes;
* the row-union kernel `_row_union`: the union of the rows picked by the
  set bits of a mask, which is one row of a tropical product;
* set-bit iteration `_bits` and the bit transpose `_cols`;
* the symmetry group S_n x C2 of conjugation by permutation matrices
  and the transpose: per-order conjugation tables `_conj_tables` apply
  every permutation to row masks, `is_canonical` picks the lex-greatest
  matrix of each orbit through the entries of those tables that can
  give it its first row, and the slot-generator table `slot_generators`
  holds the transposition (1 2), the n-cycle and the transpose, which
  generate the group, each as a permutation of the off-diagonal slots.

All indices in the public API are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
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
# offer them without importing the graph builders (and numpy)
GRAPH_KINDS = ("ortho", "vnl", "wnl")


@dataclass(frozen=True)
class NormalMatrix:
    """Square matrix over {0, -1} with zero diagonal, stored as row bitmasks.

    rows[i] has bit (j-1) set iff entry (i+1, j) is zero.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"order must be >= 1, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match order")
        full = (1 << self.n) - 1
        for i, r in enumerate(self.rows):
            if r & ~full:
                raise ValueError(f"row {i + 1} has bits outside [1..n]")
            if not r & (1 << i):
                raise ValueError(f"diagonal entry ({i + 1},{i + 1}) must be zero")

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
        zeros = []
        for i, row in enumerate(entries, 1):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            for j, e in enumerate(row, 1):
                if e not in _SCALARS:
                    raise ValueError(f"entry ({i},{j}) must be 0 or -1, got {e!r}")
                if e == ZERO:
                    zeros.append((i, j))
                elif i == j:
                    raise ValueError(f"diagonal entry ({i},{i}) must be zero")
        return cls.from_zeros(n, zeros)

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


def identity(n: int) -> NormalMatrix:
    return NormalMatrix(n, tuple(1 << i for i in range(n)))


def all_zero(n: int) -> NormalMatrix:
    full = (1 << n) - 1
    return NormalMatrix(n, (full,) * n)


def elementary_e(i: int, j: int, n: int) -> NormalMatrix:
    """All entries zero except a single -1 at (i, j); requires i != j."""
    if i == j:
        raise ValueError("E(i,i) would break the zero diagonal")
    full = (1 << n) - 1
    rows = list((full,) * n)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"position ({i},{j}) out of range for n={n}")
    rows[i - 1] &= ~(1 << (j - 1))
    return NormalMatrix(n, tuple(rows))


def elementary_u(i: int, j: int, n: int) -> NormalMatrix:
    """Diagonal plus a single zero at (i, j); requires i != j."""
    if i == j:
        raise ValueError("U(i,i) coincides with the identity; rejected")
    return NormalMatrix.from_zeros(n, [(i, j)])


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
    swap = {i: j, j: i}
    zeros = [
        (swap.get(p, p), swap.get(q, q))
        for (p, q) in a.zeros
    ]
    return NormalMatrix.from_zeros(a.n, zeros)


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


def format_matrix(a: NormalMatrix) -> str:
    lines = []
    for i in range(a.n):
        r = a.rows[i]
        lines.append("".join("0" if r & (1 << j) else "-" for j in range(a.n)))
    return "\n".join(lines)


# -- enumeration helpers ---------------------------------------------


def offdiag_positions(n: int) -> list[tuple[int, int]]:
    """Row-major list of the n(n-1) off-diagonal positions (1-based)."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


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
    bits of mask, in the order given by offdiag_positions."""
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


@lru_cache(maxsize=None)
def _conj_tables(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per permutation p of 0..n-1, the identity first: the source row of
    each row of P A P^-1 (row t is the image of row p^-1(t)) and the image
    of every row mask under relabelling bit j as bit p(j).  The tables of
    order n hold n! * (n + 2^n) entries."""
    tables = []
    for p in permutations(range(n)):
        src = tuple(sorted(range(n), key=p.__getitem__))
        img = tuple(sum(1 << p[j] for j in _bits(r)) for r in range(1 << n))
        tables.append((src, img))
    return tuple(tables)


@lru_cache(maxsize=None)
def _first_row_tables(n: int) -> tuple[tuple[tuple, ...], ...]:
    """Per source row s and row mask r holding bit s: the `_conj_tables`
    entries whose permutation sends row s to row 0 and the other bits of
    r to the top |r| - 1 bits, so that the image of a row r at s is the
    greatest first row of its zero count, in `_conj_tables` order (the
    identity first).  Each permutation lands under n keys, one per |r|."""
    tables = [[[] for _ in range(1 << n)] for _ in range(n)]
    for src, img in _conj_tables(n):
        r = 1 << src[0]
        tables[src[0]][r].append((src, img))
        for t in reversed(range(1, n)):
            r |= 1 << src[t]
            tables[src[0]][r].append((src, img))
    return tuple(tuple(map(tuple, by_mask)) for by_mask in tables)


def is_canonical(rows: Sequence[int]) -> bool:
    """Whether the row tuple is lexicographically greatest among its images
    under conjugation by permutation matrices and the transpose, the group
    S_n x C2; each order keeps one such matrix per orbit.  Stops at the
    first greater image."""
    n = len(rows)
    cols = _cols(rows)
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


@lru_cache(maxsize=None)
def slot_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """Generators of conjugation by permutation matrices times the
    transpose, as permutations of the off-diagonal slots: the
    transposition (1 2), the n-cycle i -> i+1 (mod n) and the transpose.
    Entry s of a generator is the slot that the bit of slot s moves to;
    conjugation by p moves the zero at (i, j) to (p(i), p(j))."""
    pos = offdiag_positions(n)
    slot = {ij: s for s, ij in enumerate(pos)}
    swap = {1: 2, 2: 1}
    return (
        tuple(slot[swap.get(i, i), swap.get(j, j)] for i, j in pos),
        tuple(slot[i % n + 1, j % n + 1] for i, j in pos),
        tuple(slot[j, i] for i, j in pos),
    )


def from_offdiag_mask(n: int, mask: int) -> NormalMatrix:
    """Matrix whose off-diagonal zeros are the set bits of mask, in the
    order given by offdiag_positions."""
    return NormalMatrix(n, offdiag_rows(n, mask))


def to_offdiag_mask(a: NormalMatrix) -> int:
    return offdiag_mask(a.n, a.rows)


def all_normal_matrices(n: int) -> Iterator[NormalMatrix]:
    """All 2^(n^2-n) normal matrices, in off-diagonal mask order."""
    for mask in range(1 << (n * n - n)):
        yield from_offdiag_mask(n, mask)
