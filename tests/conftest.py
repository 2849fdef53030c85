import random

from tropnorm.core import NormalMatrix, from_offdiag_mask


def rand_normal(rng: random.Random, n: int) -> NormalMatrix:
    """Uniformly random normal matrix of order n."""
    return from_offdiag_mask(n, rng.getrandbits(n * n - n))


def rand_order(rng: random.Random, lo: int = 2, hi: int = 8) -> int:
    return rng.randint(lo, hi)


def atom_zeros(kind: str, p: int, q: int, n: int) -> set[tuple[int, int]]:
    """The zeros an atom forces, written as 1-based positions straight from
    the definitions: V(p;q) is row p and column q, W(p;q) the same without
    (p, q), Z(p;q) the cell (p, q)."""
    row = {(p, j) for j in range(1, n + 1)}
    col = {(i, q) for i in range(1, n + 1)}
    return {"V": row | col, "W": (row | col) - {(p, q)}, "Z": {(p, q)}}[kind]
