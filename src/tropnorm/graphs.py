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
lnode(c) and rnode[c] are sets of nodes; per node x, rhas[x] is the
bitset of the classes whose rnode has x, and grow[x] the union of lnode
over them.  Class a meets class b iff lnode(a) & rnode[b], and row a of
the adjacency is the OR of rhas over lnode(a).  In a pattern graph node
t*n^2 + s stands for bit s of term t (n^2 nodes for VNL, 3n^2 for WNL):
lnode(c) holds the nodes of c's left terms, rnode[c] those of its
transposed right terms.  ORTHO's nodes are its classes: lnode(c) is c
alone, and rnode, rhas and grow are all the adjacency rows.

`dist` builds no row: the left nodes X of the ball of radius d around a
class give those of radius d + 1 as X with grow[x] ORed in for every x
in X, so it grows X from lnode(a) until X meets rnode[b] (in a pattern
graph each step is at most 3n^2 ORs of 3n^2-bit ints, whatever the
number of classes).  The same search gives the distance between two
members of one class, and `has_loop` is lnode(c) & rnode[c].  `stats`
builds all the rows, once, on first use (ORTHO's come with the build).
All metrics are computed on the class graph; the blow-up back to the
full graph only needs class sizes.

A mask contains a pattern iff each half of its slots contains that half
of the pattern, so its class follows from the half classes of its high
and low h = (n^2 - n)/2 slots: the half masks grouped by the pattern
halves they contain, 472 a side for WNL n=5.  The key of a pair of half
classes sums, per pattern list, the AND of their signatures: the VNL
signature, or for WNL a 2-bit level per (p, q) that counts the nested
patterns W ⊆ W&Z(q;p) ⊆ W&Z(p;q)&Z(q;p) the masks contain.  A pair's
size is the product of its half counts, less one for the all-zero matrix
(alone in its pair).  Classes are numbered in key order; one pair of each
class gives a member and the edge terms' signature rows, and a table
gives each pair's class (-1 for none): three reads give a mask's class.

Conjugation by permutation matrices and the transpose are automorphisms
of all three graphs, and eccentricity is invariant under automorphisms.
So `stats` runs one BFS per orbit of classes: the row masks of one member
of every class go through the conjugations `core.conj_generators`, which
search shares, and the bit transpose `core._col_array`; each class takes
the least label of its images until the labels settle (ORTHO n=4: 142
orbits of 4,094 classes; VNL n=5: 18 of 750; WNL n=5: 107 of 11,479).

Vertices are keyed by their off-diagonal mask (`core.to_offdiag_mask`).
`vertices` sorts the vertex masks on first use and decodes a matrix on
demand, and `vertex_index` is a binary search in them.  The V/W/Z
patterns are the off-diagonal masks of the rows a `families.Atom`
forces, so neither the slot order nor the patterns are written here.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
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

    lnode: Callable[[int], int]  # class -> its left nodes
    rnode: list[int]  # class -> its right nodes
    rhas: list[int]   # node -> classes whose rnode has it
    grow: list[int]   # node -> union of lnode over rhas[node]

    def row(self, c: int) -> int:
        return _row_union(self.lnode(c), self.rhas)

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
        x, target = self.lnode(a), self.rnode[b]
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
    the public export's): the class table, the class sizes and the
    relation over nodes."""

    kind: str
    n: int
    _hi: np.ndarray = field(repr=False)  # mask of the high h slots -> half class
    _lo: np.ndarray = field(repr=False)  # mask of the low h slots -> half class
    _table: np.ndarray = field(repr=False)  # (high, low) half class -> class, -1 for none
    _member: np.ndarray = field(repr=False)  # class -> the mask of one member
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

    def _class(self, m):
        """Class of the off-diagonal mask m or mask array m, -1 off the graph."""
        h = (self.n * self.n - self.n) // 2
        return self._table[self._hi[m >> h], self._lo[m & ((1 << h) - 1)]]

    def _vertex_class(self, a: NormalMatrix) -> int:
        if a.n != self.n:
            raise ValueError(f"order {a.n} vertex in an order {self.n} graph")
        c = int(self._class(to_offdiag_mask(a)))
        if c < 0:
            raise ValueError("matrix is not a vertex of this graph")
        return c

    def vertex_index(self, a: NormalMatrix) -> int:
        self._vertex_class(a)
        return int(self.vertices.masks.searchsorted(to_offdiag_mask(a)))

    @cached_property
    def vertices(self) -> Vertices:
        is_vert = (self._table >= 0)[self._hi[:, None], self._lo]
        return Vertices(self.n, is_vert.ravel().nonzero()[0])

    @property
    def num_vertices(self) -> int:
        return sum(self._class_sizes)


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
    h = (n * n - n) // 2
    masks = np.arange(1, (1 << 2 * h) - 1, dtype=np.int64)
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

    # a half class per half mask, and class m - 1 for mask m off both ends
    table = np.append(np.arange(-1, len(masks), dtype=np.int32), -1)
    # nodes are classes: lnode(c) is c alone; rnode, rhas and grow are the rows
    return OrthoGraph(
        kind=ORTHO,
        n=n,
        _hi=np.arange(1 << h),
        _lo=np.arange(1 << h),
        _table=table.reshape(1 << h, 1 << h),
        _member=masks,
        _class_sizes=[1] * len(masks),
        _nodes=_Nodes((1).__lshift__, adj_bits, adj_bits, adj_bits),
        _class_adj=adj_bits,
    )


def _node_tables(terms, perm: np.ndarray) -> _Nodes:
    """Signature-node tables of the relation given by (left, right) terms,
    each a boolean matrix of classes by signature bits, perm transposing
    signature bits: node t*len(perm) + s is bit s of term t."""
    import numpy as np
    left = np.hstack([lt for lt, _ in terms])
    right = np.hstack([rt[:, perm] for _, rt in terms])
    has = np.ascontiguousarray(right.T)
    # grow[x] has node y iff some class has x in its rnode and y in its lnode
    lsets = _words(left.T)
    grow = np.array([(lsets & h).any(axis=1) for h in _words(has)])
    return _Nodes(
        lnode=_pack_rows(left).__getitem__,
        rnode=_pack_rows(right),
        rhas=[_to_bits(h) for h in has],
        grow=_pack_rows(grow),
    )


def _half_classes(n: int, pattern_lists, shift: int):
    """Half masks of the h slots from bit `shift` grouped by the pattern
    halves they hold: each one's class, the class sizes, each class's least
    mask and per pattern list their signatures, bit 2s for pattern s."""
    import numpy as np
    h = (n * n - n) // 2
    half = np.arange(1 << h, dtype=np.int64)
    parts = [[(pat >> shift) & ((1 << h) - 1) for pat in pats] for pats in pattern_lists]
    sigs = [sum(((half & part) == part).astype(np.int64) << 2 * s for s, part in enumerate(ps))
            for ps in parts]
    # the lists nest, so their sum loses none of them (module docstring)
    _, first, ids, counts = np.unique(
        sum(sigs), return_index=True, return_inverse=True, return_counts=True)
    return ids, counts, first, [sig[first] for sig in sigs]


def _build_pattern_graph(kind: str, n: int) -> OrthoGraph:
    import numpy as np
    h = (n * n - n) // 2
    pattern_lists = [_vnl_patterns(n)] if kind == VNL else _wnl_patterns(n)
    hi, hi_count, hi_first, hi_sigs = _half_classes(n, pattern_lists, h)
    lo, lo_count, lo_first, lo_sigs = _half_classes(n, pattern_lists, 0)
    # per (high, low) pair of half classes and per list, the signature of
    # its masks; the key sums them into a 2-bit level per (p, q)
    sigs = [a[:, None] & b for a, b in zip(hi_sigs, lo_sigs)]
    key = sum(sigs)
    size = hi_count[:, None] * lo_count
    size[hi[-1], lo[-1]] -= 1  # the all-zero matrix, alone in its pair
    # vertex filter: some off-diagonal (p,q) level, and a member left
    offdiag_fields = sum(3 << 2 * (p * n + q) for p in range(n) for q in range(n) if p != q)
    is_vert = ((key & offdiag_fields) != 0) & (size > 0)
    keys, class_of = np.unique(key[is_vert], return_inverse=True)
    sizes = np.bincount(class_of, weights=size[is_vert]).astype(np.int64).tolist()
    table = np.full(key.shape, -1, dtype=np.int32)
    table[is_vert] = class_of
    # at one pair of each class: a member, and per list the signature as
    # bits, bit s of class c at [c, s], for the rows of the edge terms
    pair = np.empty(len(keys), dtype=np.int64)
    pair[class_of] = np.flatnonzero(is_vert)
    hi_at, lo_at = np.divmod(pair, len(lo_count))
    raw = [sig.reshape(-1)[pair].astype("<u8").view(np.uint8).reshape(-1, 8) for sig in sigs]
    rows = [np.unpackbits(r, axis=1, bitorder="little")[:, : 2 * n * n : 2] != 0 for r in raw]
    # transposing moves signature bit (p, q) to (q, p); the terms are
    # (V, V) for VNL and (wzz, w), (wzo, wzo), (w, wzz) for WNL
    perm = np.array([q * n + p for p in range(n) for q in range(n)])
    terms = list(zip(rows[::-1], rows))
    return OrthoGraph(
        kind=kind,
        n=n,
        _hi=hi,
        _lo=lo,
        _table=table,
        _member=hi_first[hi_at] << h | lo_first[lo_at],
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
    a, b = g._vertex_class(u), g._vertex_class(v)
    return 0 if u == v else g._nodes.dist(a, b)


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
    member of every class to a vertex and so permutes the classes; every
    class takes the least label of its images until the labels settle."""
    import numpy as np
    rows = offdiag_row_array(g.n, g._member)
    images = [np.asarray(img)[rows[:, src]] for src, img in conj_generators(g.n)]
    maps = [g._class(offdiag_mask(g.n, image.T)) for image in (*images, _col_array(rows))]
    assert min(m.min() for m in maps) >= 0, "a generator maps a vertex off the graph"
    # a label is a class of its orbit no greater than its own class
    label = np.arange(len(g._member))
    while not np.array_equal(label, new := reduce(np.minimum, [label[m] for m in maps], label)):
        label = new[new]
    return label.tolist()


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
    c = g._vertex_class(u)
    return bool(g._nodes.lnode(c) & g._nodes.rnode[c])
