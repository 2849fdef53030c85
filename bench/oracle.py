"""Independent evaluator for the benchmark's correctness checks.

Everything here works on matrices written as text ('0' for a zero entry,
'-' for -1, rows separated by newlines), the format `format_matrix`
prints, and is computed straight from the definitions in the package
docstrings with plain nested loops.  Nothing here imports tropnorm, so a
fault in the package's bitmask kernels cannot hide in its own check.

Indices in the public functions are 1-based, as in the package.
"""

from __future__ import annotations

import json
from collections import deque

Z = 0   # the semiring zero
M = -1  # the semiring minus one


# -- text ----------------------------------------------------------------


def parse(text: str) -> list[list[int]]:
    rows = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    n = len(rows)
    out = []
    for i, ln in enumerate(rows):
        if len(ln) != n or set(ln) - {"0", "-"} or ln[i] != "0":
            raise ValueError(f"not a normal matrix: {text!r}")
        out.append([Z if ch == "0" else M for ch in ln])
    return out


def fmt(a: list[list[int]]) -> str:
    return "\n".join("".join("0" if x == Z else "-" for x in row) for row in a)


def strict_json(text: str):
    """json.loads that refuses NaN and +-Infinity, as strict JSON does."""

    def refuse(token):
        raise ValueError(f"not valid JSON: {token}")

    return json.loads(text, parse_constant=refuse)


# -- semiring algebra ----------------------------------------------------


def product(a, b):
    """(A (.) B)_ij = max_t (a_it + b_tj), clamped to {0, -1}."""
    n = len(a)
    return [
        [Z if max(a[i][t] + b[t][j] for t in range(n)) == 0 else M for j in range(n)]
        for i in range(n)
    ]


def is_all_zero(a) -> bool:
    return all(x == Z for row in a for x in row)


def orthogonal(a, b) -> bool:
    return is_all_zero(product(a, b)) and is_all_zero(product(b, a))


def offdiag_zeros(a) -> int:
    n = len(a)
    return sum(1 for i in range(n) for j in range(n) if i != j and a[i][j] == Z)


def sigma(a, b) -> int:
    return offdiag_zeros(a) + offdiag_zeros(b)


def transpose(a):
    return [list(col) for col in zip(*a)]


def conjugate(a, perm):
    """Relabel index i as perm[i] (0-based permutation)."""
    n = len(a)
    out = [[M] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = a[i][j]
    return out


# -- indicator and zero classes ------------------------------------------


def classify(a, b) -> dict:
    """Indicator matrix and the class of each off-diagonal cell.

    A cell (s,t) of the indicator is zero iff both products are zero there.
    A zero is propagation when a_st or b_st is zero; else cost when some
    k outside {s,t} has a_sk = b_kt = b_sk = a_kt = 0; else gift when some
    (k,m) with s,t,k,m distinct has a_sk = b_kt = b_sm = a_mt = 0.
    Witness sets are complete.  1-based keys and witnesses.
    """
    n = len(a)
    left, right = product(a, b), product(b, a)
    ind = [[Z if left[i][j] == Z and right[i][j] == Z else M for j in range(n)] for i in range(n)]
    cells = {}
    counts = {"propagation": 0, "cost": 0, "gift": 0}
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            key = (s + 1, t + 1)
            if ind[s][t] != Z:
                cells[key] = ("nonzero", frozenset())
                continue
            if a[s][t] == Z or b[s][t] == Z:
                cells[key] = ("propagation", frozenset())
                counts["propagation"] += 1
                continue
            cost = frozenset(
                k + 1
                for k in range(n)
                if k not in (s, t)
                and a[s][k] == Z and b[k][t] == Z and b[s][k] == Z and a[k][t] == Z
            )
            if cost:
                cells[key] = ("cost", cost)
                counts["cost"] += 1
                continue
            gift = frozenset(
                (k + 1, m + 1)
                for k in range(n)
                for m in range(n)
                if len({s, t, k, m}) == 4
                and a[s][k] == Z and b[k][t] == Z and b[s][m] == Z and a[m][t] == Z
            )
            cells[key] = ("gift" if gift else "unclassified", gift)
            if gift:
                counts["gift"] += 1
    dup = 0
    if a != b:
        dup = sum(1 for i in range(n) for j in range(n) if i != j and a[i][j] == Z and b[i][j] == Z)
    return {
        "left": left,
        "right": right,
        "indicator": ind,
        "orthogonal": is_all_zero(ind),
        "cells": cells,
        "prop_count": counts["propagation"],
        "cost_count": counts["cost"],
        "gift_count": counts["gift"],
        "duplicate_count": dup,
    }


def row_types(a, b, cls: dict) -> list[tuple]:
    """(kind, k, m) per row: a cost row has n-2 cost zeros, one propagation
    zero and a witness k common to its cost zeros; a gift row has n-3 gift
    zeros, two propagation zeros, two off-diagonal zeros of the pair in the
    row and a witness (k, m) common to its gift zeros.  The smallest common
    witness is reported."""
    n = len(a)
    out = []
    for i in range(1, n + 1):
        row = [cls["cells"][(i, j)] for j in range(1, n + 1) if j != i]
        tags = [tag for tag, _ in row]
        kind = ("other", None, None)
        if tags.count("cost") == n - 2 and tags.count("propagation") == 1:
            common = frozenset.intersection(*[w for tag, w in row if tag == "cost"]) if n > 2 else frozenset()
            if common:
                kind = ("cost", min(common), None)
        if kind[0] == "other":
            pair_zeros = sum(
                1 for j in range(n) if j != i - 1 and a[i - 1][j] == Z
            ) + sum(1 for j in range(n) if j != i - 1 and b[i - 1][j] == Z)
            if tags.count("gift") == n - 3 and tags.count("propagation") == 2 and pair_zeros == 2:
                gifts = [w for tag, w in row if tag == "gift"]
                common = frozenset.intersection(*gifts) if gifts else frozenset()
                if common:
                    k, m = min(common)
                    kind = ("gift", k, m)
        out.append(kind)
    return out


# -- constraint families ---------------------------------------------------


def atom_zeros(kind: str, p: int, q: int, n: int) -> set:
    """V(p;q): row p and column q; W(p;q): the same without (p,q);
    Z(p;q): the cell (p,q).  1-based cells."""
    row = {(p, j) for j in range(1, n + 1)}
    col = {(i, q) for i in range(1, n + 1)}
    if kind == "V":
        return row | col
    if kind == "W":
        return (row | col) - {(p, q)}
    if kind == "Z":
        return {(p, q)}
    raise ValueError(kind)


def generic_zeros(n: int, atoms) -> frozenset:
    """Zero cells of the generic matrix: the diagonal and the forced cells."""
    zeros = {(i, i) for i in range(1, n + 1)}
    for kind, p, q in atoms:
        zeros |= atom_zeros(kind, p, q, n)
    return frozenset(zeros)


def zero_cells(a) -> frozenset:
    n = len(a)
    return frozenset((i + 1, j + 1) for i in range(n) for j in range(n) if a[i][j] == Z)


def generic(n: int, atoms) -> list[list[int]]:
    zeros = generic_zeros(n, atoms)
    return [[Z if (i, j) in zeros else M for j in range(1, n + 1)] for i in range(1, n + 1)]


def family_atoms(k: int, m: int, variant: int):
    """The four generic minimal-family pairs, as atom lists for (A, B)."""
    return {
        0: ([("V", m, k)], [("V", k, m)]),
        1: ([("W", m, k), ("Z", k, m)], [("W", k, m), ("Z", m, k)]),
        2: ([("W", m, k)], [("W", k, m), ("Z", m, k), ("Z", k, m)]),
        3: ([("W", m, k), ("Z", m, k), ("Z", k, m)], [("W", k, m)]),
    }[variant]


def family_pair(n: int, k: int, m: int, variant: int):
    fa, fb = family_atoms(k, m, variant)
    return generic(n, fa), generic(n, fb)


def family_variant(a, b):
    """Smallest (k, m, variant) whose generic pair is (A, B), else None."""
    n = len(a)
    za, zb = zero_cells(a), zero_cells(b)
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            for variant in range(4):
                fa, fb = family_atoms(k, m, variant)
                if generic_zeros(n, fa) == za and generic_zeros(n, fb) == zb:
                    return (k, m, variant)
    return None


# -- bordering -----------------------------------------------------------


def border_compose(b, v: list[int], w: list[int]):
    """Order n+1 matrix: block b, last column v, last row w, corner 0."""
    n = len(b)
    out = [list(b[i]) + [v[i]] for i in range(n)]
    out.append(list(w) + [Z])
    return out


def border_split(a):
    n = len(a) - 1
    return [row[:n] for row in a[:n]], [a[i][n] for i in range(n)], a[n][:n]


def delete_index(a, i: int):
    """Drop row and column i (1-based)."""
    return [[x for j, x in enumerate(row) if j != i - 1] for r, row in enumerate(a) if r != i - 1]


def vec_text(v: list[int]) -> str:
    return "".join("0" if x == Z else "-" for x in v)


# -- relation graphs by brute force ---------------------------------------


def all_matrices(n: int):
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(cells)):
        a = [[Z if i == j else M for j in range(n)] for i in range(n)]
        for bit, (i, j) in enumerate(cells):
            if mask >> bit & 1:
                a[i][j] = Z
        yield a


def carries(a, cells: set) -> bool:
    return all(a[i - 1][j - 1] == Z for i, j in cells)


def is_vertex(kind: str, a) -> bool:
    """ORTHO: every matrix but the identity and the all-zero one.  VNL and
    WNL: not all-zero, and carrying some V(p;q) (resp. W(p;q)), p != q."""
    n = len(a)
    if is_all_zero(a):
        return False
    if kind == "ortho":
        return offdiag_zeros(a) > 0
    pat = "V" if kind == "vnl" else "W"
    return any(
        carries(a, atom_zeros(pat, p, q, n))
        for p in range(1, n + 1)
        for q in range(1, n + 1)
        if p != q
    )


def graph_stats(vertices: list, adjacent) -> dict:
    """Vertex, edge and loop counts, girth, diameter and connectivity of
    the graph on `vertices` whose edge predicate is `adjacent(u, v)`."""
    nv = len(vertices)
    nbrs = [[] for _ in range(nv)]
    loops = 0
    for u in range(nv):
        if adjacent(vertices[u], vertices[u]):
            loops += 1
        for v in range(u + 1, nv):
            if adjacent(vertices[u], vertices[v]):
                nbrs[u].append(v)
                nbrs[v].append(u)
    dists = [bfs(nbrs, s) for s in range(nv)]
    diam = max((d for row in dists for d in row), default=0)
    girth = float("inf")
    for root in range(nv):
        dist, parent = {root: 0}, {root: -1}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in nbrs[x]:
                if y not in dist:
                    dist[y], parent[y] = dist[x] + 1, x
                    queue.append(y)
                elif parent[x] != y:
                    girth = min(girth, dist[x] + dist[y] + 1)
    return {
        "vertices": nv,
        "edges": sum(len(x) for x in nbrs) // 2,
        "loops": loops,
        "girth": girth,
        "diameter": diam,
        "connected": diam < float("inf"),
        "dist": dists,
    }


def bfs(nbrs: list, s: int) -> list:
    dist = [float("inf")] * len(nbrs)
    dist[s] = 0
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for y in nbrs[x]:
            if dist[y] == float("inf"):
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def symmetry_images(a, b):
    """Images of an ordered pair under the maps that preserve orthogonality
    and the zero count: the swap (B, A), the transpose swap (B^T, A^T), and
    conjugation of both by each transposition of two indices."""
    n = len(a)
    out = [(b, a), (transpose(b), transpose(a))]
    for i in range(n):
        for j in range(i + 1, n):
            perm = list(range(n))
            perm[i], perm[j] = j, i
            out.append((conjugate(a, perm), conjugate(b, perm)))
    return out

