"""Orbit counts of zero sets of normal matrices, by Burnside's lemma.

A normal matrix is fixed by its off-diagonal zero set, a set of cells
(i, j) with i != j.  S_n acts on the cells by conjugation, (i, j) ->
(p(i), p(j)), and C2 by the transpose, (i, j) -> (j, i).  A group element
whose action on the cells has cycle lengths L fixes the zero sets that are
unions of its cycles, counted by size as the polynomial prod (1 + x^L).
By Burnside's lemma the average of these polynomials over the 2 n!
elements counts the orbits of zero sets by size (Harary and Palmer,
Graphical Enumeration, 1973: digraphs up to isomorphism and converse).

The cells and the group are written here from their definitions; nothing
is shared with the package, so the counts check its symmetry reduction.
"""

from itertools import permutations
from math import factorial


def _cycle_lengths(image: dict) -> list[int]:
    """Cycle lengths of a permutation given as a dict from each point to
    its image."""
    seen, lengths = set(), []
    for start in image:
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = image[x]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def orbit_counts(n: int, kmax: int) -> list[int]:
    """Entry k is the number of orbits of off-diagonal zero sets of order n
    with k zeros under S_n x C2, for k = 0..kmax."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    total = [0] * (kmax + 1)
    for p in permutations(range(n)):
        for transpose in (False, True):
            image = {
                (i, j): (p[j], p[i]) if transpose else (p[i], p[j]) for i, j in cells
            }
            fixed = [1] + [0] * kmax  # prod (1 + x^L), truncated at x^kmax
            for length in _cycle_lengths(image):
                for k in range(kmax, length - 1, -1):
                    fixed[k] += fixed[k - length]
            total = [t + f for t, f in zip(total, fixed)]
    group = 2 * factorial(n)
    assert all(t % group == 0 for t in total), "Burnside average is not whole"
    return [t // group for t in total]
