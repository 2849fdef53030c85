"""Relation graphs on normal matrices.

Three graphs share the machinery:

* ORTHO: vertices are all normal matrices except the two trivial ones,
  edges are orthogonal pairs, loops mark self-orthogonal matrices;
* VNL: vertices carry some full row p / column q zero pattern (p != q),
  edges demand A carrying pattern (p;q) and B the swapped one;
* WNL: the analogous graph for the weak pattern (row p and column q
  zero except possibly the (p,q) cell), with the three sufficient
  conditions on corner cells as the edge rule.

Every graph is stored as a class graph: each class holds vertices with
the same neighbours, and bit c of class c's adjacency row says the
members of c are adjacent to each other (for a class of one member, that
bit is its loop).  VNL and WNL adjacency depends only on which patterns a
matrix carries, so their classes are the vertices with equal pattern
signatures.  Their edge rule is a list of (left, right) signature terms,
and class a meets class b when left[a] shares a bit with the transposed
right[b].  Each adjacency row is the OR, over the set bits of the left
terms, of per-bit bitsets of the classes whose transposed right term has
that bit.  Swapping left and right maps the term list onto itself, so
the relation is symmetric and the rows are also the columns (checked in
the tests, not on every build).  ORTHO is built with one
class per vertex, each adjacency row the AND of 2n bitsets looked up by
the vertex's rows and columns.  All metrics are computed on the class
graph; the blow-up back to the full graph only needs class sizes.

A mask contains a pattern iff each half of its slots contains that half
of the pattern, so the signatures of all masks are the outer AND of two
tables over half masks.  A class is one value of an int64 key: the VNL
signature, or for WNL a 2-bit level per (p, q) that counts the nested
patterns W ⊆ W&Z(q;p) ⊆ W&Z(p;q)&Z(q;p) the mask contains.  Classes are
numbered in the lexicographic order of their signatures.

Conjugation by permutation matrices and the transpose are automorphisms
of all three graphs, and eccentricity is invariant under automorphisms.
So `stats` runs one BFS per orbit of classes: one member of every class
is mapped through the slot-generator table `core.slot_generators`, and a
union-find joins each class with the classes of its images (ORTHO n=4:
142 orbits of 4,094 classes; VNL n=5: 18 of 750; WNL n=5: 107 of 11,479).

Vertices are keyed by their off-diagonal mask (`core.to_offdiag_mask`).
A graph keeps only the sorted numpy array of those masks: `vertices`
decodes a matrix on demand, and `vertex_index` is a binary search.  The
V/W/Z patterns are the masks of the zeros a `families.Atom` forces, so
neither the slot order nor the patterns are written here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import or_
from typing import TYPE_CHECKING

from .core import (
    GRAPH_KINDS,
    NormalMatrix,
    _offdiag_tables,
    _row_union,
    from_offdiag_mask,
    slot_generators,
    to_offdiag_mask,
)
from .families import ATOM_KINDS, Atom
from .ortho import is_orthogonal

if TYPE_CHECKING:
    import numpy as np

ORTHO, VNL, WNL = GRAPH_KINDS

ORTHO_BUILD_GUARD = 4
PATTERN_BUILD_GUARD = 5
# the WNL class key packs a 2-bit level for each of the n^2 pairs (p, q)
assert 2 * PATTERN_BUILD_GUARD**2 <= 63, "WNL class keys would overflow int64"

INFINITY = math.inf


# -- zero patterns ----------------------------------------------------------


@lru_cache(maxsize=None)
def _patterns(n: int) -> dict[tuple[str, int, int], int]:
    """Off-diagonal mask of the zeros each atom (kind, p, q) of order n
    forces, keyed by (kind, p, q)."""
    return {
        (kind, p, q): to_offdiag_mask(
            NormalMatrix.from_zeros(n, Atom(kind, p, q).forced_zeros(n))
        )
        for kind in ATOM_KINDS
        for p in range(1, n + 1)
        for q in range(1, n + 1)
    }


def _signatures(n: int, patterns: list[int], step: int = 1) -> np.ndarray:
    """Entry m has bit step*s set iff off-diagonal mask m of order n
    contains patterns[s]: a table over the high h slots at m >> h ANDed
    with one over the low h slots, so the outer AND is in mask order."""
    import numpy as np
    h = (n * n - n) // 2
    half = np.arange(1 << h, dtype=np.int64)
    tables = []
    for shift in (h, 0):
        t = np.zeros(1 << h, dtype=np.int64)
        for s, pat in enumerate(patterns):
            part = (pat >> shift) & ((1 << h) - 1)
            t |= ((half & part) == part).astype(np.int64) << step * s
        tables.append(t)
    return (tables[0][:, None] & tables[1][None, :]).reshape(-1)


def _apply_perm(sig: np.ndarray, perm) -> np.ndarray:
    """Move bit s of every entry to bit perm[s]."""
    import numpy as np
    out = np.zeros_like(sig)
    for s in range(len(perm)):
        out |= ((sig >> s) & 1) << perm[s]
    return out


# -- class bitsets ---------------------------------------------------------


def _to_bits(flags: np.ndarray) -> int:
    """Bitset of the set flags: bit c is flags[c]."""
    import numpy as np
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _members(x: int, k: int) -> list[int]:
    """Indices of the set bits of x, a bitset over k classes."""
    import numpy as np
    raw = np.frombuffer(x.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


# -- graph value ----------------------------------------------------------


class Vertices(Sequence):
    """The vertices of a graph, decoded on demand from the sorted numpy
    array of their off-diagonal masks."""

    def __init__(self, n: int, masks: np.ndarray):
        self.n = n
        self.masks = masks

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [from_offdiag_mask(self.n, m) for m in self.masks[i].tolist()]
        return from_offdiag_mask(self.n, int(self.masks[i]))


@dataclass
class OrthoGraph:
    kind: str
    n: int
    vertices: Vertices = field(repr=False)
    _class_of: np.ndarray = field(repr=False)   # vertex idx -> class
    _class_sizes: list = field(repr=False)
    _class_adj: list = field(repr=False)        # int bitsets, self bit included
    _stats: dict | None = field(default=None, repr=False)

    def vertex_index(self, a: NormalMatrix) -> int:
        if a.n != self.n:
            raise ValueError(f"order {a.n} vertex in an order {self.n} graph")
        masks = self.vertices.masks
        m = to_offdiag_mask(a)
        idx = int(masks.searchsorted(m))
        if idx == len(masks) or masks.item(idx) != m:
            raise ValueError("matrix is not a vertex of this graph")
        return idx

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)


# -- adjacency predicates -------------------------------------------------


def _vnl_patterns(n: int) -> list[int]:
    pat = _patterns(n)
    return [pat["V", p, q] for p in range(1, n + 1) for q in range(1, n + 1)]


def _wnl_patterns(n: int) -> tuple[list[int], list[int], list[int]]:
    """W(p;q), W(p;q)&Z(q;p) and W(p;q)&Z(p;q)&Z(q;p) for every (p, q); a
    diagonal Z atom forces no off-diagonal zero."""
    pat = _patterns(n)
    w, wzo, wzz = [], [], []
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            base = pat["W", p, q]
            w.append(base)
            wzo.append(base | pat["Z", q, p])
            wzz.append(base | pat["Z", p, q] | pat["Z", q, p])
    return w, wzo, wzz


def adjacent(kind: str, a: NormalMatrix, b: NormalMatrix) -> bool:
    """Edge predicate, loops included (a == b tests for a loop)."""
    if kind not in GRAPH_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}")
    n = a.n
    if b.n != n:
        raise ValueError("vertices have different orders")
    if not _is_vertex(kind, a) or not _is_vertex(kind, b):
        raise ValueError(f"arguments must be vertices of the {kind} graph")
    if kind == ORTHO:
        return is_orthogonal(a, b)
    am = to_offdiag_mask(a)
    bm = to_offdiag_mask(b)
    pat = _patterns(n)
    if kind == VNL:
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                if (am & pat["V", p, q]) == pat["V", p, q] and (
                    bm & pat["V", q, p]
                ) == pat["V", q, p]:
                    return True
        return False
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            a_w = (am & pat["W", k, m]) == pat["W", k, m]
            b_w = (bm & pat["W", m, k]) == pat["W", m, k]
            if not (a_w and b_w):
                continue
            if k == m:
                return True
            a_zs = bool(am & pat["Z", k, m])
            a_zo = bool(am & pat["Z", m, k])
            b_zs = bool(bm & pat["Z", m, k])
            b_zo = bool(bm & pat["Z", k, m])
            if (a_zs and a_zo) or (a_zo and b_zo) or (b_zs and b_zo):
                return True
    return False


def _is_vertex(kind: str, a: NormalMatrix) -> bool:
    n = a.n
    full = (1 << (n * n - n)) - 1
    m = to_offdiag_mask(a)
    if kind == ORTHO:
        return m not in (0, full)
    if m == full:
        return False
    pat = _patterns(n)
    atom = "V" if kind == VNL else "W"
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            if p != q and (m & pat[atom, p, q]) == pat[atom, p, q]:
                return True
    return False


# -- construction ----------------------------------------------------------


def build(kind: str, n: int) -> OrthoGraph:
    if kind not in GRAPH_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}")
    if n < 2:
        raise ValueError(f"{kind} build needs an order n >= 2, got n={n}")
    if kind == ORTHO:
        if n > ORTHO_BUILD_GUARD:
            raise ValueError(f"ORTHO build refused above n={ORTHO_BUILD_GUARD}")
        return _build_ortho(n)
    if n > PATTERN_BUILD_GUARD:
        raise ValueError(f"{kind} build refused above n={PATTERN_BUILD_GUARD}")
    return _build_pattern_graph(kind, n)


def _rows_of(masks: np.ndarray, n: int) -> np.ndarray:
    """Row masks of every off-diagonal mask, one column per row, through
    the lookup tables of the core codec."""
    import numpy as np
    low = (1 << (n - 1)) - 1
    return np.stack(
        [np.asarray(row)[(masks >> shift) & low] for shift, row in _offdiag_tables(n)],
        axis=1,
    )


def _build_ortho(n: int) -> OrthoGraph:
    import numpy as np
    masks = np.arange(1, (1 << (n * n - n)) - 1, dtype=np.int64)
    rows = _rows_of(masks, n)
    cols = _rows_of(_apply_perm(masks, slot_generators(n)[2]), n)  # rows of the transpose

    # A (.) B is all zero iff every row of A meets every column of B.  For
    # each n-bit value r: the vertices each of whose columns meets r, and
    # those each of whose rows meets r
    cols_meet = [_to_bits(((cols & r) != 0).all(axis=1)) for r in range(1 << n)]
    rows_meet = [_to_bits(((rows & r) != 0).all(axis=1)) for r in range(1 << n)]

    # one class per vertex; a self-orthogonal vertex keeps its own bit
    adj_bits: list[int] = []
    for vrows, vcols in zip(rows.tolist(), cols.tolist()):
        acc = -1
        for r in vrows:  # A (.) B with this vertex as A
            acc &= cols_meet[r]
        for c in vcols:  # B (.) A with this vertex as A
            acc &= rows_meet[c]
        adj_bits.append(acc)

    return OrthoGraph(
        kind=ORTHO,
        n=n,
        vertices=Vertices(n, masks),
        _class_of=np.arange(len(masks)),
        _class_sizes=[1] * len(masks),
        _class_adj=adj_bits,
    )


def _fold(terms, perm) -> list[int]:
    """Class-adjacency rows of the relation given by (left, right) terms,
    perm transposing signature bits: per term, has[s] holds the classes
    whose transposed right term has bit s, and row a ORs has[s] over the
    bits s of left[a]."""
    has = [[_to_bits((right >> t) & 1) for t in perm] for _, right in terms]
    lefts = [left.tolist() for left, _ in terms]
    return [reduce(or_, map(_row_union, sigs, has)) for sigs in zip(*lefts)]


def _build_pattern_graph(kind: str, n: int) -> OrthoGraph:
    import numpy as np
    full = (1 << (n * n - n)) - 1
    pattern_lists = [_vnl_patterns(n)] if kind == VNL else _wnl_patterns(n)
    sigs = [_signatures(n, pats) for pats in pattern_lists]

    # vertex filter: some off-diagonal (p,q) pattern, and not the top matrix
    offdiag_bits = sum(1 << (p * n + q) for p in range(n) for q in range(n) if p != q)
    is_vert = (sigs[0] & offdiag_bits) != 0
    is_vert[full] = False
    vmask = np.flatnonzero(is_vert)

    # quotient by one key per vertex: the bits s of the pattern lists sum
    # into bits 2s, 2s+1, a level that fixes all three as wzz => wzo => w
    key = sum(_signatures(n, pats, 2) for pats in pattern_lists)[is_vert]
    _, first, class_of = np.unique(key, return_index=True, return_inverse=True)
    # number the classes by their signature rows, not by the packed key
    rows = [s[vmask[first]] for s in sigs]
    order = np.lexsort(rows[::-1])
    rows = [r[order] for r in rows]
    class_of = np.argsort(order)[class_of]
    sizes = np.bincount(class_of, minlength=len(order)).tolist()

    # transposing moves signature bit (p, q) to (q, p)
    perm = [q * n + p for p in range(n) for q in range(n)]
    if kind == VNL:
        terms = [(rows[0], rows[0])]
    else:
        w, wzo, wzz = rows
        terms = [(wzz, w), (wzo, wzo), (w, wzz)]
    return OrthoGraph(
        kind=kind,
        n=n,
        vertices=Vertices(n, vmask),
        _class_of=class_of,
        _class_sizes=sizes,
        _class_adj=_fold(terms, perm),
    )


# -- metrics ----------------------------------------------------------------


def _bfs(adj: list[int], start: int, target: int | None = None):
    """Breadth-first search over bitset rows from `start`: the number of
    layers until `target` is reached, or with no target the eccentricity
    of `start`; INFINITY when the goal is unreachable."""
    k = len(adj)
    goal = (1 << k) - 1 if target is None else 1 << target
    seen = frontier = 1 << start
    layers = 0
    while seen & goal != goal:
        nxt = 0
        for c in _members(frontier, k):
            nxt |= adj[c]
        frontier = nxt & ~seen
        if not frontier:
            return INFINITY
        seen |= frontier
        layers += 1
    return layers


def _intra_dist(adj: list[int], c: int):
    """Distance between two members of class c: 1 when they are adjacent,
    2 through any other class, otherwise unreachable."""
    if adj[c] & (1 << c):
        return 1
    if adj[c] & ~(1 << c):
        return 2
    return INFINITY


def dist(g: OrthoGraph, u: NormalMatrix, v: NormalMatrix):
    iu = g.vertex_index(u)
    iv = g.vertex_index(v)
    if iu == iv:
        return 0
    cu = int(g._class_of[iu])
    cv = int(g._class_of[iv])
    if cu == cv:
        return _intra_dist(g._class_adj, cu)
    return _bfs(g._class_adj, cu, cv)


def stats(g: OrthoGraph) -> dict:
    import numpy as np
    if g._stats is not None:
        return g._stats
    sizes = g._class_sizes
    adj = g._class_adj
    k = len(sizes)
    self_adj = [bool(adj[c] & (1 << c)) for c in range(k)]
    others = [adj[c] & ~(1 << c) for c in range(k)]

    # size_bits[p] holds the classes whose size has bit p set, so the
    # total size of a set of classes is a sum of shifted popcounts
    sz = np.array(sizes)
    width = max(sizes, default=0).bit_length()
    size_bits = [_to_bits((sz >> p) & 1) for p in range(width)]
    edges = 0
    ends = 0  # edges between two classes, counted from both ends
    loops = 0
    for a in range(k):
        if self_adj[a]:
            loops += sizes[a]
            edges += sizes[a] * (sizes[a] - 1) // 2
        ends += sizes[a] * sum(
            (others[a] & m).bit_count() << p for p, m in enumerate(size_bits)
        )
    edges += ends // 2

    diam = 0
    for a in sorted(set(_class_orbits(g))):
        if sizes[a] >= 2:
            diam = max(diam, _intra_dist(adj, a))
        diam = max(diam, _bfs(adj, a))
        if diam == INFINITY:
            break
    connected = diam < INFINITY

    # a triangle inside a class, or through two members and another class
    girth = INFINITY
    for a in range(k):
        if self_adj[a] and (sizes[a] >= 3 or (sizes[a] >= 2 and others[a])):
            girth = 3
            break
    # a triangle through three classes
    if girth > 3:
        for a in range(k):
            if any(b > a and others[a] & others[b] for b in _members(others[a], k)):
                girth = 3
                break
    # a 4-cycle through two members of a class and two neighbouring vertices
    if girth > 4:
        for a in range(k):
            deg = others[a].bit_count()
            if sizes[a] >= 2 and (
                deg >= 2 or (deg == 1 and sizes[others[a].bit_length() - 1] >= 2)
            ):
                girth = 4
                break
    if girth > 4:
        girth = min(girth, _simple_girth(others, k, cap=girth))

    g._stats = {
        "kind": g.kind,
        "n": g.n,
        "vertices": g.num_vertices,
        "edges": edges,
        "loops": loops,
        "girth": girth,
        "diameter": diam,
        "connected": connected,
    }
    return g._stats


def _class_orbits(g: OrthoGraph) -> list[int]:
    """The least class of the orbit of each class under conjugation by
    permutation matrices and the transpose.  Each generator maps one
    member of every class to a vertex, and a union-find joins the class
    with the class of that image."""
    import numpy as np
    masks = g.vertices.masks
    _, first = np.unique(g._class_of, return_index=True)
    parent = list(range(len(first)))

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for perm in slot_generators(g.n):
        img = _apply_perm(masks[first], perm)
        at = np.searchsorted(masks, img)
        assert (masks[at] == img).all(), "a generator maps a vertex off the graph"
        for a, b in enumerate(g._class_of[at].tolist()):
            a, b = root(a), root(b)
            parent[max(a, b)] = min(a, b)
    return [root(c) for c in range(len(parent))]


def _simple_girth(adj: list[int], nbits: int, cap=INFINITY):
    """Girth of a simple graph given as bitset rows (no self bits)."""
    best = cap
    for root in range(nbits):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                if 2 * dist[x] >= best - 1:
                    break
                for y in _members(adj[x], nbits):
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif y != parent[x]:
                        best = min(best, dist[x] + dist[y] + 1)
            frontier = nxt
        if best == 3:
            break
    return best


def diameter(g: OrthoGraph):
    return stats(g)["diameter"]


def girth(g: OrthoGraph):
    return stats(g)["girth"]


def has_loop(g: OrthoGraph, u: NormalMatrix) -> bool:
    c = int(g._class_of[g.vertex_index(u)])
    return bool(g._class_adj[c] & (1 << c))
