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
right[b].  Swapping left and right maps the term list onto itself, so
the relation is symmetric (checked in the tests, not on every build).
ORTHO adjacency does not factor through signature bits: it has one class
per vertex, each adjacency row the AND of 2n bitsets looked up by the
vertex's rows and columns.

All three graphs hold one relation over nodes, `_Nodes`.  Per class c,
lnode[c] and rnode[c] are sets of nodes; per node x, rhas[x] is the
bitset of the classes whose rnode has x, and grow[x] the union of lnode
over them.  Class a meets class b iff lnode[a] & rnode[b], and row a of
the adjacency is the OR of rhas over lnode[a].  In a pattern graph node
t*n^2 + s stands for bit s of term t (n^2 nodes for VNL, 3n^2 for WNL):
lnode[c] holds the nodes of c's left terms, rnode[c] those of its
transposed right terms.  ORTHO's nodes are its classes: lnode[c] is c
alone, and rnode, rhas and grow are all the adjacency rows.

`dist` builds no row: the left nodes X of the ball of radius d around a
class give those of radius d + 1 as X with grow[x] ORed in for every x
in X, so it grows X from lnode[a] until X meets rnode[b] (in a pattern
graph each step is at most 3n^2 ORs of 3n^2-bit ints, whatever the
number of classes).  The same search gives the distance between two
members of one class, and `has_loop` is lnode[c] & rnode[c].  `stats`
builds all the rows, once, on first use (ORTHO's come with the build).
All metrics are computed on the class graph; the blow-up back to the
full graph only needs class sizes.

A mask contains a pattern iff each half of its slots contains that half
of the pattern, so the signatures of all masks are the outer AND of two
tables over half masks.  A class is one value of an int64 key: the VNL
signature, or for WNL a 2-bit level per (p, q) that counts the nested
patterns W ⊆ W&Z(q;p) ⊆ W&Z(p;q)&Z(q;p) the mask contains.  Classes are
numbered in the order of their keys, and the signature rows of the edge
terms are decoded from the keys.

Conjugation by permutation matrices and the transpose are automorphisms
of all three graphs, and eccentricity is invariant under automorphisms.
So `stats` runs one BFS per orbit of classes: the row masks of one member
of every class go through the conjugations `core.conj_generators`, which
search shares, and the bit transpose `core._col_array`, and a union-find
joins each class with the classes of its images (ORTHO n=4: 142 orbits of
4,094 classes; VNL n=5: 18 of 750; WNL n=5: 107 of 11,479).

Vertices are keyed by their off-diagonal mask (`core.to_offdiag_mask`).
A graph keeps only the sorted numpy array of those masks: `vertices`
decodes a matrix on demand, and `vertex_index` is a binary search.  The
V/W/Z patterns are the off-diagonal masks of the rows a `families.Atom`
forces, so neither the slot order nor the patterns are written here.
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
    _col_array,
    _row_union,
    conj_generators,
    from_offdiag_mask,
    offdiag_mask,
    offdiag_row_array,
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
        (kind, p, q): offdiag_mask(n, Atom(kind, p, q).rows(n))
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


# -- class bitsets ---------------------------------------------------------


def _to_bits(flags: np.ndarray) -> int:
    """Bitset of the set flags: bit c is flags[c]."""
    import numpy as np
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _words(flags: np.ndarray) -> np.ndarray:
    """The rows of a boolean matrix in little-endian 64-bit words: bit j of
    row i is bit j % 64 of words[i, j // 64]."""
    import numpy as np
    k, width = flags.shape
    padded = np.zeros((k, -(-width // 64) * 64), dtype=bool)
    padded[:, :width] = flags
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _pack_rows(flags: np.ndarray) -> list[int]:
    """Bitset of each row of a boolean matrix: bit j of row i is
    flags[i, j]."""
    rows, *high = _words(flags).T.tolist()
    for w, word in enumerate(high, 1):
        rows = [r | x << 64 * w for r, x in zip(rows, word)]
    return rows


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
class _Nodes:
    """The relation of a graph over nodes (module docstring): signature
    nodes for VNL and WNL, the classes themselves for ORTHO."""

    lnode: list[int]  # class -> its left nodes
    rnode: list[int]  # class -> its right nodes
    rhas: list[int]   # node -> classes whose rnode has it
    grow: list[int]   # node -> union of lnode over rhas[node]

    def row(self, c: int) -> int:
        return _row_union(self.lnode[c], self.rhas)

    def step(self, x: int) -> int:
        """Left nodes of the ball one edge wider than the ball whose left
        nodes are x."""
        return x | _row_union(x, self.grow)

    def dist(self, a: int, b: int):
        """Distance from a member of class a to another member of class b,
        a and b possibly the same class: the least d such that the ball of
        radius d - 1 around a has a member adjacent to b, or INFINITY once
        the ball stops growing.  For a == b that is 1 on a self-adjacent
        class, 2 when the class has another neighbour, else INFINITY.  The
        ball's left-node set grows at most once per node, which bounds the
        loop."""
        x, target = self.lnode[a], self.rnode[b]
        for d in range(1, len(self.grow) + 2):
            if x & target:
                return d
            grown = self.step(x)
            if grown == x:
                break
            x = grown
        return INFINITY


@dataclass
class OrthoGraph:
    """A graph of any of the three kinds, ORTHO, VNL or WNL (the name is
    the public export's): its vertices, the class of each vertex, the
    class sizes and the relation over nodes."""

    kind: str
    n: int
    vertices: Vertices = field(repr=False)
    _class_of: np.ndarray = field(repr=False)   # vertex idx -> class
    _class_sizes: list = field(repr=False)
    _nodes: _Nodes = field(repr=False)
    # adjacency rows, int bitsets with the self bit: ORTHO's from the
    # build, VNL's and WNL's from _nodes on the first `_rows()`
    _class_adj: list | None = field(default=None, repr=False)
    _stats: dict | None = field(default=None, repr=False)

    def _rows(self) -> list[int]:
        if self._class_adj is None:
            self._class_adj = [self._nodes.row(c) for c in range(len(self._class_sizes))]
        return self._class_adj

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


def _build_ortho(n: int) -> OrthoGraph:
    import numpy as np
    masks = np.arange(1, (1 << (n * n - n)) - 1, dtype=np.int64)
    rows = offdiag_row_array(n, masks)
    cols = _col_array(rows)

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

    # nodes are classes: lnode[c] is c alone; rnode, rhas and grow are the rows
    return OrthoGraph(
        kind=ORTHO,
        n=n,
        vertices=Vertices(n, masks),
        _class_of=np.arange(len(masks)),
        _class_sizes=[1] * len(masks),
        _nodes=_Nodes([1 << c for c in range(len(masks))], adj_bits, adj_bits, adj_bits),
        _class_adj=adj_bits,
    )


def _node_tables(terms, perm: np.ndarray) -> _Nodes:
    """Signature-node tables of the relation given by (left, right) terms,
    perm transposing signature bits: node t*len(perm) + s is bit s of
    term t."""
    import numpy as np
    bits = np.arange(len(perm))
    left = np.hstack([lt[:, None] >> bits & 1 for lt, _ in terms]) != 0
    right = np.hstack([rt[:, None] >> perm & 1 for _, rt in terms]) != 0
    has = np.ascontiguousarray(right.T)
    # grow[x] has node y iff some class has x in its rnode and y in its lnode
    lsets = _words(left.T)
    grow = np.array([(lsets & h).any(axis=1) for h in _words(has)])
    return _Nodes(
        lnode=_pack_rows(left),
        rnode=_pack_rows(right),
        rhas=[_to_bits(h) for h in has],
        grow=_pack_rows(grow),
    )


def _build_pattern_graph(kind: str, n: int) -> OrthoGraph:
    import numpy as np
    full = (1 << (n * n - n)) - 1
    pattern_lists = [_vnl_patterns(n)] if kind == VNL else _wnl_patterns(n)
    # one key per mask: the bits s of the pattern lists sum into bits 2s,
    # 2s+1, a level that fixes all three as wzz => wzo => w
    key = sum(_signatures(n, pats, 2) for pats in pattern_lists)

    # vertex filter: some off-diagonal (p,q) level, and not the top matrix
    offdiag_fields = sum(3 << 2 * (p * n + q) for p in range(n) for q in range(n) if p != q)
    is_vert = (key & offdiag_fields) != 0
    is_vert[full] = False
    vmask = np.flatnonzero(is_vert)

    # a class is a key value; signature row t has bit s where level s exceeds t
    keys, class_of = np.unique(key[is_vert], return_inverse=True)
    levels = [(keys >> 2 * s) & 3 for s in range(n * n)]
    rows = [sum((lv > t).astype(np.int64) << s for s, lv in enumerate(levels))
            for t in range(len(pattern_lists))]
    sizes = np.bincount(class_of, minlength=len(keys)).tolist()

    # transposing moves signature bit (p, q) to (q, p)
    perm = np.array([q * n + p for p in range(n) for q in range(n)])
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
        _nodes=_node_tables(terms, perm),
    )


# -- metrics ----------------------------------------------------------------


def _layer(adj: list[int], frontier: int, unseen: int, k: int) -> int:
    """The unseen classes next to the frontier, walking the smaller set:
    top-down ORs the frontier's rows, bottom-up keeps the unseen classes
    whose row meets the frontier (the adjacency is symmetric)."""
    if frontier.bit_count() <= unseen.bit_count():
        return reduce(or_, [adj[c] for c in _members(frontier, k)], 0) & unseen
    import numpy as np
    hit = np.zeros(k, dtype=bool)
    hit[[c for c in _members(unseen, k) if adj[c] & frontier]] = True
    return _to_bits(hit)


def _bfs(adj: list[int], start: int):
    """Eccentricity of `start`, INFINITY when some class is unreachable."""
    k = len(adj)
    frontier = 1 << start
    unseen = ((1 << k) - 1) ^ frontier
    layers = 0
    while unseen:
        frontier = _layer(adj, frontier, unseen, k)
        if not frontier:
            return INFINITY
        unseen ^= frontier
        layers += 1
    return layers


def dist(g: OrthoGraph, u: NormalMatrix, v: NormalMatrix):
    iu = g.vertex_index(u)
    iv = g.vertex_index(v)
    if iu == iv:
        return 0
    return g._nodes.dist(int(g._class_of[iu]), int(g._class_of[iv]))


def stats(g: OrthoGraph) -> dict:
    import numpy as np
    if g._stats is not None:
        return g._stats
    sizes = g._class_sizes
    adj = g._rows()
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
            diam = max(diam, g._nodes.dist(a, a))
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
    # any member of every class: its images fall in the same classes
    first = np.empty(len(g._class_sizes), dtype=np.int64)
    first[g._class_of] = np.arange(len(masks))
    rows = offdiag_row_array(g.n, masks[first])
    images = [np.asarray(img)[rows[:, src]] for src, img in conj_generators(g.n)]
    parent = list(range(len(first)))

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for image in (*images, _col_array(rows)):
        img = offdiag_mask(g.n, image.T)
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
    return bool(g._nodes.lnode[c] & g._nodes.rnode[c])
