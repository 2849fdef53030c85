import random
from functools import lru_cache
from itertools import permutations

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


def slot_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """Generators of S_n x C2 as permutations of the off-diagonal slots,
    written from the cells: conjugation by the transposition (1 2) and by
    the n-cycle i -> i+1 (mod n) moves the zero at (i, j) to (p(i), p(j)),
    and the transpose moves it to (j, i).  Entry s is the slot that the bit
    of slot s moves to; the slots are the off-diagonal cells, row-major."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    slot = {ij: s for s, ij in enumerate(cells)}
    swap = {1: 2, 2: 1}
    return (
        tuple(slot[swap.get(i, i), swap.get(j, j)] for i, j in cells),
        tuple(slot[i % n + 1, j % n + 1] for i, j in cells),
        tuple(slot[j, i] for i, j in cells),
    )


def slot_image(mask: int, perm) -> int:
    """Image of an off-diagonal mask under a slot permutation: bit s moves
    to bit perm[s]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


@lru_cache(maxsize=None)
def conjugations(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Conjugation P A P^-1 by every permutation p of 0..n-1, in
    `permutations` order, written out without `core`: per p, the source
    row p^-1(t) of each row t, and the image of every row mask with each
    bit j moved to p(j), built a bit at a time (the masks holding bit j
    are those below 2^j with bit p(j) added)."""
    out = []
    for p in permutations(range(n)):
        img = [0]
        for j in range(n):
            img += [x | 1 << p[j] for x in img]
        out.append((tuple(p.index(t) for t in range(n)), tuple(img)))
    return tuple(out)
