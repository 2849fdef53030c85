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
signatures; ORTHO is built with one class per vertex.  All metrics are
computed on the class graph; the blow-up back to the full graph only
needs class sizes.

Vertices are keyed by their off-diagonal mask (`core.to_offdiag_mask`),
and the V/W/Z patterns are the masks of the zeros a `families.Atom`
forces, so neither the slot order nor the patterns are written here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import NormalMatrix, _cols, from_offdiag_mask, to_offdiag_mask
from .families import ATOM_KINDS, Atom
from .ortho import is_orthogonal

ORTHO = "ortho"
VNL = "vnl"
WNL = "wnl"
GRAPH_KINDS = (ORTHO, VNL, WNL)

ORTHO_BUILD_GUARD = 4
PATTERN_BUILD_GUARD = 5

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


def _sig_transpose_perm(n: int) -> np.ndarray:
    """Permutation sending signature slot (p, q) to (q, p)."""
    perm = np.zeros(n * n, dtype=np.int64)
    for p in range(n):
        for q in range(n):
            perm[p * n + q] = q * n + p
    return perm


def _signatures(masks: np.ndarray, n: int, patterns: list[int]) -> np.ndarray:
    """Pack pattern containment of each mask into one integer per mask."""
    sig = np.zeros(len(masks), dtype=np.int64)
    for s, pat in enumerate(patterns):
        sig |= ((masks & pat) == pat).astype(np.int64) << s
    return sig


def _apply_perm(sig: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.zeros_like(sig)
    for s in range(len(perm)):
        out |= ((sig >> s) & 1) << perm[s]
    return out


# -- class bitsets ---------------------------------------------------------


def _to_bits(flags: np.ndarray) -> int:
    """Bitset of the set flags: bit c is flags[c]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _members(x: int, k: int) -> list[int]:
    """Indices of the set bits of x, a bitset over k classes."""
    raw = np.frombuffer(x.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


# -- graph value ----------------------------------------------------------


@dataclass
class OrthoGraph:
    kind: str
    n: int
    vertices: list[NormalMatrix]
    _index: dict = field(repr=False)            # offdiag mask -> vertex idx
    _class_of: np.ndarray = field(repr=False)   # vertex idx -> class
    _class_sizes: list = field(repr=False)
    _class_adj: list = field(repr=False)        # int bitsets, self bit included
    _stats: dict | None = field(default=None, repr=False)

    def vertex_index(self, a: NormalMatrix) -> int:
        if a.n != self.n:
            raise ValueError(f"order {a.n} vertex in an order {self.n} graph")
        idx = self._index.get(to_offdiag_mask(a))
        if idx is None:
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
    slots = n * n - n
    full = (1 << slots) - 1
    masks = [m for m in range(1 << slots) if m not in (0, full)]
    vertices = [from_offdiag_mask(n, m) for m in masks]
    v = len(vertices)

    # rows and columns of each vertex as n-bit integers
    rowarr = np.zeros((v, n), dtype=np.int64)
    colarr = np.zeros((v, n), dtype=np.int64)
    for idx, mat in enumerate(vertices):
        rowarr[idx] = mat.rows
        colarr[idx] = _cols(mat.rows)

    # one class per vertex; a self-orthogonal vertex keeps its own bit
    adj_bits: list[int] = []
    ok = np.empty(v, dtype=bool)
    for idx in range(v):
        ok[:] = True
        # A (.) B all zero: every row of A meets every column of B
        for i in range(n):
            ri = int(rowarr[idx, i])
            for j in range(n):
                ok &= (colarr[:, j] & ri) != 0
        # B (.) A all zero: every row of B meets every column of A
        for j in range(n):
            cj = int(colarr[idx, j])
            for i in range(n):
                ok &= (rowarr[:, i] & cj) != 0
        adj_bits.append(_to_bits(ok))

    return OrthoGraph(
        kind=ORTHO,
        n=n,
        vertices=vertices,
        _index={m: i for i, m in enumerate(masks)},
        _class_of=np.arange(v),
        _class_sizes=[1] * v,
        _class_adj=adj_bits,
    )


# rows of the class adjacency matrix built per numpy pass; bounds the
# temporaries at ADJ_BLOCK x classes int64 instead of classes x classes
ADJ_BLOCK = 256


def _relation_block(terms, rows, cols) -> np.ndarray:
    """Boolean adjacency of classes `rows` against classes `cols`: some
    (left, right) term pair shares a signature bit."""
    acc = 0
    for left, right in terms:
        acc = acc | (left[rows, None] & right[None, cols])
    return acc != 0


def _build_pattern_graph(kind: str, n: int) -> OrthoGraph:
    slots = n * n - n
    full = (1 << slots) - 1
    allm = np.arange(1 << slots, dtype=np.int64)
    perm = _sig_transpose_perm(n)

    if kind == VNL:
        pats = _vnl_patterns(n)
        sig = _signatures(allm, n, pats)
        sigs = [sig]
    else:
        w, wzo, wzz = _wnl_patterns(n)
        sigs = [
            _signatures(allm, n, w),
            _signatures(allm, n, wzo),
            _signatures(allm, n, wzz),
        ]

    # vertex filter: some off-diagonal (p,q) pattern, and not the top matrix
    offdiag_bits = 0
    for p in range(n):
        for q in range(n):
            if p != q:
                offdiag_bits |= 1 << (p * n + q)
    is_vert = (sigs[0] & offdiag_bits) != 0
    is_vert[full] = False
    vmask = allm[is_vert]
    vsigs = [s[is_vert] for s in sigs]

    # quotient by the signature tuple
    key = np.stack(vsigs, axis=1)
    uniq, class_of = np.unique(key, axis=0, return_inverse=True)
    class_of = class_of.reshape(-1)
    k = len(uniq)
    sizes = np.bincount(class_of, minlength=k).tolist()

    # class a meets class b when a left term of a shares a bit with the
    # transposed right term of b
    if kind == VNL:
        s = uniq[:, 0]
        terms = [(s, _apply_perm(s, perm))]
    else:
        w, wzo, wzz = uniq[:, 0], uniq[:, 1], uniq[:, 2]
        terms = [
            (wzz, _apply_perm(w, perm)),
            (wzo, _apply_perm(wzo, perm)),
            (w, _apply_perm(wzz, perm)),
        ]

    class_adj = []
    for r0 in range(0, k, ADJ_BLOCK):
        rows = slice(r0, r0 + ADJ_BLOCK)
        block = _relation_block(terms, rows, slice(None))
        assert (block == _relation_block(terms, slice(None), rows).T).all()
        class_adj.extend(_to_bits(row) for row in block)

    vertices = [from_offdiag_mask(n, int(m)) for m in vmask]
    return OrthoGraph(
        kind=kind,
        n=n,
        vertices=vertices,
        _index={int(m): i for i, m in enumerate(vmask)},
        _class_of=class_of,
        _class_sizes=sizes,
        _class_adj=class_adj,
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
    for a in range(k):
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


def is_connected(g: OrthoGraph) -> bool:
    return stats(g)["connected"]


def has_loop(g: OrthoGraph, u: NormalMatrix) -> bool:
    c = int(g._class_of[g.vertex_index(u)])
    return bool(g._class_adj[c] & (1 << c))
