"""Constraint families V/W/Z, generic matrices and the minimal-pair family.

An atom forces zeros, given as the row masks of `core.NormalMatrix`:

  V(p;q)  all of row p and all of column q: row p full, bit q-1 elsewhere,
  W(p;q)  the same without the cell (p,q),
  Z(p;q)  the single cell (p,q).

A FamilySpec is a conjunction of atoms; its rows are the OR of the atoms'
rows and the diagonal, and its generic matrix has exactly those zeros and
-1 everywhere else.  Membership is a maskwise subset test.

`mm_pair` builds the generic pair of a minimal-family label (k, m, variant)
and `mm_classify` finds the first label whose pair equals its input.  Every
variant zeroes row m of A and row k of B except at most one cell, so it
tries only the rows with at least n - 1 zeros, and only the variants whose
fixed zero counts (3n - 4 to 3n - 2 per matrix) are those of the input: a
random pair, dense or not, usually costs no build at all.
"""

from __future__ import annotations

from .core import DimensionMismatch, NormalMatrix, _Record, _same_order, nu

ATOM_KINDS = ("V", "W", "Z")


class Atom(_Record):
    __slots__ = _fields = ("kind", "p", "q")

    def __init__(self, kind: str, p: int, q: int):
        self._set(kind=kind, p=p, q=q)  # kind: 'V', 'W' or 'Z'

    def __str__(self) -> str:
        return f"{self.kind}:{self.p},{self.q}"

    def rows(self, n: int) -> tuple[int, ...]:
        """Row masks of the zeros the atom forces, in core's format (bit
        j-1 of rows[i-1] is the cell (i, j))."""
        if not (1 <= self.p <= n and 1 <= self.q <= n):
            raise ValueError(f"atom {self} out of range for n={n}")
        full, qbit = (1 << n) - 1, 1 << (self.q - 1)
        # per kind: row p, and every other row (column q)
        forced = {"V": (full, qbit), "W": (full ^ qbit, qbit), "Z": (qbit, 0)}
        if self.kind not in forced:
            raise ValueError(f"unknown atom kind {self.kind!r}")
        row_p, col_q = forced[self.kind]
        rows = [col_q] * n
        rows[self.p - 1] = row_p
        return tuple(rows)


class FamilySpec(_Record):
    """A conjunction of V/W/Z constraints over matrices of order n."""

    __slots__ = _fields = ("n", "atoms")

    def __init__(self, n: int, atoms: tuple[Atom, ...]):
        self._set(n=n, atoms=tuple(atoms))

    @classmethod
    def parse(cls, n: int, text: str) -> "FamilySpec":
        """Parse 'V:p,q&W:p,q&...' into a spec."""
        atoms = []
        for part in text.split("&"):
            part = part.strip()
            if not part:
                continue
            try:
                kind, rest = part.split(":")
                p_s, q_s = rest.split(",")
                atom = Atom(kind.strip().upper(), int(p_s), int(q_s))
            except ValueError:
                raise ValueError(
                    f"bad atom {part!r}: expected KIND:p,q with integer p and q") from None
            if atom.kind not in ATOM_KINDS:
                raise ValueError(f"unknown atom kind {atom.kind!r} in {part!r}")
            atoms.append(atom)
        if not atoms:
            raise ValueError("a family spec needs at least one atom")
        return cls(n, tuple(atoms))

    def __str__(self) -> str:
        return "&".join(str(a) for a in self.atoms)

    @property
    def rows(self) -> tuple[int, ...]:
        """Row masks of the forced zeros, diagonal included."""
        rows = [1 << i for i in range(self.n)]
        for atom in self.atoms:
            rows = [r | f for r, f in zip(rows, atom.rows(self.n))]
        return tuple(rows)


def family(n: int, *atoms: tuple[str, int, int]) -> FamilySpec:
    """Shorthand: family(4, ('V', 1, 2), ('Z', 2, 1))."""
    return FamilySpec(n, tuple(Atom(k, p, q) for (k, p, q) in atoms))


def spec_generic(spec: FamilySpec) -> NormalMatrix:
    """The unique matrix with exactly the forced zeros."""
    return NormalMatrix(spec.n, spec.rows)


def spec_contains(spec: FamilySpec, a: NormalMatrix) -> bool:
    """Membership: every forced zero is a zero of A."""
    if spec.n != a.n:
        raise DimensionMismatch(f"orders differ: {spec.n} vs {a.n}")
    return all(f & ~r == 0 for f, r in zip(spec.rows, a.rows))


# -- the four-variant minimal-pair family -----------------------------


class MmVariant(_Record):
    __slots__ = _fields = ("k", "m", "variant")

    def __init__(self, k: int, m: int, variant: int):
        if variant not in (0, 1, 2, 3):
            raise ValueError(f"variant must be in 0..3, got {variant}")
        self._set(k=k, m=m, variant=variant)


def _mm_specs(v: MmVariant, n: int) -> tuple[FamilySpec, FamilySpec]:
    k, m = v.k, v.m
    if not (1 <= k <= n and 1 <= m <= n):
        raise ValueError(f"indices ({k},{m}) out of range for n={n}")
    if v.variant == 0:
        return family(n, ("V", m, k)), family(n, ("V", k, m))
    if v.variant == 1:
        return (
            family(n, ("W", m, k), ("Z", k, m)),
            family(n, ("W", k, m), ("Z", m, k)),
        )
    if v.variant == 2:
        return (
            family(n, ("W", m, k)),
            family(n, ("W", k, m), ("Z", m, k), ("Z", k, m)),
        )
    return (
        family(n, ("W", m, k), ("Z", m, k), ("Z", k, m)),
        family(n, ("W", k, m)),
    )


def mm_pair(v: MmVariant, n: int) -> tuple[NormalMatrix, NormalMatrix]:
    """The generic pair of the chosen variant.  For k = m all four variants
    coincide with the (V(k;k)-generic, V(k;k)-generic) pair."""
    sa, sb = _mm_specs(v, n)
    return spec_generic(sa), spec_generic(sb)


# zeros of a generic pair with k != m, diagonal included, minus 3n; every
# variant with k = m has (-2, -2)
_MM_ZEROS = ((-3, -3), (-3, -3), (-4, -2), (-2, -4))


def mm_classify(a: NormalMatrix, b: NormalMatrix) -> MmVariant | None:
    """Direct membership in the minimal-pair family: the pair must equal one
    of the generated generic pairs.  Ties break to the lexicographically
    smallest (k, m), then the smallest variant.  Only rows of B with at least
    n - 1 zeros can be k, only such rows of A can be m, and a variant is
    built only when its zero counts are those of A and B."""
    n = _same_order(a, b)
    ks = [i for i, r in enumerate(b.rows, 1) if r.bit_count() >= n - 1]
    ms = [i for i, r in enumerate(a.rows, 1) if r.bit_count() >= n - 1]
    zeros = (nu(a) - 3 * n, nu(b) - 3 * n)
    for k in ks:
        for m in ms:
            for variant in range(4):
                if zeros != ((-2, -2) if k == m else _MM_ZEROS[variant]):
                    continue
                v = MmVariant(k, m, variant)
                if mm_pair(v, n) == (a, b):
                    return v
    return None
