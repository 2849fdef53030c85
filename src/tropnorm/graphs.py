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
vertex's rows and columns.  The build makes only those 2^(n+1) bitsets,
the meet sets of `core._sliced_meets` in class numbering, and a row is
built when it is first read.

All three graphs hold one relation over nodes, `_Nodes`.  Per class c,
lnode(c) and rnode[c] are sets of nodes; per node x, rhas[x] is the
bitset of the classes whose rnode has x, and grow[x] the union of lnode
over them.  Class a meets class b iff lnode(a) & rnode[b], and the
classes adjacent to class c, `reach(c)`, are the OR of rhas over
lnode(c).  In a pattern graph node t*n^2 + s stands for bit s of term t
(n^2 nodes for VNL, 3n^2 for WNL): lnode(c) holds the nodes of c's left
terms, rnode[c] those of its transposed right terms.  ORTHO's nodes are
its classes: lnode(c) is c alone, and rnode, rhas and grow are all one
`_OrthoRows`, whose row c is built on first read and kept (`stats` of
ORTHO n=4 builds 154 of the 4,094 rows).

`dist` and `stats` build no adjacency rows of a pattern graph.  The left
nodes X of the ball of radius d around a class give those of radius
d + 1 as X with grow[x] ORed in for every x in X, so `dist` grows X from
lnode(a) until X meets rnode[b] (in a pattern graph each step is at most
3n^2 ORs of 3n^2-bit ints, whatever the number of classes), as it does
between two members of one class.  Class c has a loop iff lnode(c) & rnode[c].  All
metrics are computed on the class graph; the blow-up only needs class
sizes.

A mask contains a pattern iff each half of its slots contains that half
of the pattern, so its class follows from the half classes of its high
and low h = (n^2 - n)/2 slots: the half masks grouped by the pattern
halves they contain, 472 a side for WNL n=5.  A class key has a field per
(p, q) that counts the pattern lists whose (p, q) pattern the masks
contain: 1 bit for VNL; for WNL 2 bits, the level of the nested patterns
W ⊆ W&Z(q;p) ⊆ W&Z(p;q)&Z(q;p), but 1 bit on the diagonal, where the
three are equal (a diagonal Z atom forces no off-diagonal zero), so 45
bits at n=5.  Per list, the signature of a pair of half classes is the
AND of theirs, and the pair's key sums them.  The build puts each key
above its pair's index in one int64 word and sorts the words of the
vertex pairs once: the runs of equal keys are the classes, numbered in
key order, a running count of the run starts gives each pair's class for
the pair table (-1 for none), and a class's size sums its pairs' products
of half counts.  (The pair of the two full half masks holds only the
all-zero matrix and is left out.)  The last pair of each class gives a
member, and its two half classes the class's left and right nodes, the
AND of theirs.  rhas reads the class keys: a class holds pattern s of
list l iff its field s is at least the weights of lists 0..l there.  grow
needs no class: some vertex holds the patterns of nodes x and y iff their
union is not the full mask, as every co-atom is a vertex.  Three reads
give a mask's class.

Conjugation by permutation matrices and the transpose are automorphisms
of all three graphs: they keep a class's size, loop and eccentricity and
its neighbours' sizes.  So `stats` takes one class per orbit, weighted
by the orbit's class count in the edge and loop sums, and starts every
girth test there, the last a search of the class graph one bitset layer
at a time (`_simple_girth`): one member mask of every class goes
through the generators (1 2), the n-cycle and the transpose, read from
`core._slot_images` as the search's closure reads it; each class takes
the least label of its images until the labels settle
(ORTHO n=4: 142 orbits of 4,094 classes; VNL n=5: 18 of 750; WNL n=5:
107 of 11,479).  The edge rules are monotone in the zeros, and every
vertex lies under a co-atom, a vertex with one -1 cell.  So past radius
0 the ball around a, less a, is an up-set with the neighbours of its
co-atom classes: `_ecc` keeps the left nodes of a and of the co-atom
classes in the ball, and each step past the first is the OR of rhas over
them; the first step adds a's neighbours, which the edge sums have
already taken.

Vertices are keyed by their off-diagonal mask (`core.to_offdiag_mask`).
`vertices` sorts the vertex masks on first use and decodes a matrix on
demand.  The V/W/Z patterns are the off-diagonal masks of the rows a
`families.Atom` forces, so neither the slot order nor the patterns are
written here.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Sequence
from functools import cached_property, lru_cache, reduce
from itertools import permutations
from operator import and_, or_
from typing import TYPE_CHECKING

from .core import (
    GRAPH_KINDS,
    NormalMatrix,
    _bits,
    _cols,
    _row_union,
    _slot_images,
    _sliced_meets,
    from_offdiag_mask,
    offdiag_mask,
    offdiag_rows,
    to_offdiag_mask,
)
from .families import ATOM_KINDS, Atom
from .ortho import is_orthogonal

# numpy loads inside the functions that use it: importing this module alone
# reads 15 MB max RSS, 27 MB with numpy
if TYPE_CHECKING:
    import numpy as np

ORTHO, VNL, WNL = GRAPH_KINDS

ORTHO_BUILD_GUARD = 4
PATTERN_BUILD_GUARD = 5
# a pair of half classes is numbered in _PAIR_BITS bits: WNL n = 5 has
# 472 x 472 pairs, the most under the guard
_PAIR_BITS = 18
# the build sorts a class key above a pair index in one int64 word; a WNL
# key has 2 bits per off-diagonal (p, q) and 1 per diagonal one
assert 2 * PATTERN_BUILD_GUARD**2 - PATTERN_BUILD_GUARD + _PAIR_BITS <= 63, \
    "WNL class keys and pair indices would overflow int64"

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


def _pack_rows(flags: np.ndarray) -> list[int]:
    """Bitset of each row of a boolean matrix: bit j of row i is
    flags[i, j]."""
    import numpy as np
    packed = np.packbits(flags, axis=1, bitorder="little")
    raw, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]


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


class _Nodes:
    """The relation of a graph over nodes (module docstring): signature
    nodes for VNL and WNL, the classes themselves for ORTHO."""

    __slots__ = ("lnode", "rnode", "rhas", "grow")

    def __init__(self, lnode: Callable[[int], int], rnode: Sequence[int],
                 rhas: Sequence[int], grow: Sequence[int]):
        self.lnode = lnode  # class -> its left nodes
        self.rnode = rnode  # class -> its right nodes
        self.rhas = rhas    # node -> classes whose rnode has it
        self.grow = grow    # node -> union of lnode over rhas[node]

    def reach(self, c: int) -> int:
        """Classes adjacent to class c: the OR of rhas over lnode(c)."""
        return _row_union(self.lnode(c), self.rhas)

    def loop(self, c: int) -> bool:
        return bool(self.lnode(c) & self.rnode[c])

    def step(self, x: int) -> int:
        """Left nodes of the ball one edge wider than the ball whose left
        nodes are x."""
        return x | _row_union(x, self.grow)

    def dist(self, a: int, b: int):
        """Distance from a member of class a to another member of class b,
        a and b possibly the same class: the least d such that the ball of
        radius d - 1 around a has a member adjacent to b, or INFINITY once
        the ball stops growing.  For a == b that is 1 on a self-adjacent
        class, 2 when the class has another neighbour, else INFINITY."""
        x, target, d = self.lnode(a), self.rnode[b], 1
        while not x & target:
            grown = self.step(x)
            if grown == x:
                return INFINITY
            x, d = grown, d + 1
        return d


class _OrthoRows:
    """The adjacency rows of ORTHO's k classes, each built on first read
    and kept: row c is the AND of cols_meet over the rows of mask c + 1
    and of rows_meet over its columns (`_build_ortho`)."""

    __slots__ = ("n", "cols_meet", "rows_meet", "built")

    def __init__(self, n: int, k: int, cols_meet: list[int], rows_meet: list[int]):
        self.n = n
        self.cols_meet, self.rows_meet = cols_meet, rows_meet
        self.built: list[int | None] = [None] * k

    def __len__(self) -> int:
        return len(self.built)

    def __getitem__(self, c: int) -> int:
        row = self.built[c]  # IndexError past the last class
        if row is None:
            vrows = offdiag_rows(self.n, c % len(self.built) + 1)
            row = reduce(and_, [self.cols_meet[r] for r in vrows]
                         + [self.rows_meet[col] for col in _cols(vrows)])
            self.built[c] = row
        return row


class OrthoGraph:
    """A graph of any of the three kinds, ORTHO, VNL or WNL (the name is
    the public export's): the class table, the class sizes and the
    relation over nodes."""

    def __init__(self, kind: str, n: int, _hi: np.ndarray, _lo: np.ndarray,
                 _table: np.ndarray, _member: np.ndarray, _class_sizes: list,
                 _nodes: _Nodes):
        self.kind, self.n = kind, n
        self._hi = _hi  # mask of the high h slots -> half class
        self._lo = _lo  # mask of the low h slots -> half class
        self._table = _table  # (high, low) half class -> class, -1 for none
        self._member = _member  # class -> the mask of one member
        self._class_sizes = _class_sizes
        self._nodes = _nodes
        self._stats: dict | None = None

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
    k = (1 << 2 * h) - 2
    # the bit-sliced meet sets of `core._sliced_meets` as class sets:
    # class m - 1 stands for mask m, so the shift drops mask 0 and the
    # full mask
    classes = (1 << k) - 1
    rows = _OrthoRows(n, k, *([m >> 1 & classes for m in meets] for meets in _sliced_meets(n)))
    # a half class per half mask, and class m - 1 for mask m off both ends
    table = np.append(np.arange(-1, k, dtype=np.int32), -1)
    # nodes are classes: lnode(c) is c alone; rnode, rhas and grow are the rows
    return OrthoGraph(
        kind=ORTHO,
        n=n,
        _hi=np.arange(1 << h),
        _lo=np.arange(1 << h),
        _table=table.reshape(1 << h, 1 << h),
        _member=np.arange(1, k + 1, dtype=np.int64),
        _class_sizes=[1] * k,
        _nodes=_Nodes((1).__lshift__, rows, rows, rows),
    )


def _key_weights(n: int, lists: int) -> np.ndarray:
    """Weight in the class key of each flag (l, s), a mask holding pattern
    s of list l, as [l, s]: per pattern s = (p, q) a field of 2 bits (WNL,
    p != q) or 1 bit, each field above the one before, counts the lists
    that hold it.  The three WNL patterns of a diagonal (p, p) are equal,
    so only the first list counts there."""
    import numpy as np
    diagonal = np.arange(n * n) % (n + 1) == 0
    width = np.where(diagonal | (lists == 1), 1, 2)
    weights = np.tile(1 << np.cumsum(width) - width, (lists, 1))
    weights[1:, diagonal] = 0
    return weights


def _half_classes(pats: np.ndarray, weights: np.ndarray, h: int, shift: int):
    """Half masks of the h slots from bit `shift` grouped by the pattern
    halves they hold: each one's class, the class sizes, each class's least
    mask and its flags, column i set iff its half masks hold that half of
    pattern pats[i].  The classes are numbered in the order of their keys,
    the sums of their flags' weights."""
    import numpy as np
    parts = (pats >> shift) & ((1 << h) - 1)
    flags = (np.arange(1 << h)[:, None] & parts) == parts
    _, first, ids, counts = np.unique(
        flags @ weights, return_index=True, return_inverse=True, return_counts=True)
    return ids, counts, first, flags[first]


def _build_pattern_graph(kind: str, n: int) -> OrthoGraph:
    import numpy as np
    h, width = (n * n - n) // 2, n * n
    pattern_lists = [_vnl_patterns(n)] if kind == VNL else _wnl_patterns(n)
    lists = len(pattern_lists)
    pats = np.array(sum(pattern_lists, []))  # flag l*n^2 + s: pattern s of list l
    weights = _key_weights(n, lists)
    hi, hi_count, hi_first, hi_has = _half_classes(pats, weights.ravel(), h, h)
    lo, lo_count, lo_first, lo_has = _half_classes(pats, weights.ravel(), h, 0)
    shape = len(hi_count), len(lo_count)
    pairs = shape[0] * shape[1]
    assert pairs <= 1 << _PAIR_BITS, "pair indices would overflow the sort word"
    # a mask holds a pattern iff each half holds that half of it, so per
    # list the signature of a pair of half classes is the AND of theirs,
    # and its key sums them, above the pair's index
    hi_sig, lo_sig = ((has.reshape(-1, lists, width) * weights).sum(axis=2).T << _PAIR_BITS
                      for has in (hi_has, lo_has))
    key = np.arange(pairs).reshape(shape)
    buf = np.empty_like(key)
    for a, b in zip(hi_sig, lo_sig):
        key += np.bitwise_and(a[:, None], b, out=buf)
    # the vertex pairs have some off-diagonal field set; the last pair, of
    # the two full half masks, holds only the all-zero matrix
    floors = weights.cumsum(axis=0)  # the last row masks each field's bits
    offdiag = int(floors[-1][np.arange(width) % (n + 1) != 0].sum()) << _PAIR_BITS
    key = key.ravel()[:-1]
    packed = key[np.bitwise_and(key, offdiag, out=buf.ravel()[:-1]) != 0]
    del key  # the words of all pairs go before the sort
    # one sort groups the vertex pairs by class in key order, and each
    # class's pairs in pair order
    packed.sort()
    pair = packed & ((1 << _PAIR_BITS) - 1)
    packed >>= _PAIR_BITS
    start = np.append(True, packed[1:] != packed[:-1])
    table = np.full(pairs, -1, dtype=np.int32)
    table[pair] = np.cumsum(start, dtype=np.int32) - 1
    np.multiply.outer(hi_count, lo_count, out=buf)
    sizes = np.add.reduceat(buf.ravel()[pair], np.flatnonzero(start))
    # each class's last pair gives its key, its member and its nodes
    last = np.append(np.flatnonzero(start[1:]), len(start) - 1)
    keys = packed[last]
    hi_at, lo_at = np.divmod(pair[last], shape[1])
    # node t*n^2 + s: left term t is list lists-1-t, right term t is list t
    # transposed, which moves pattern (p, q) to (q, p)
    perm = np.array([q * n + p for p in range(n) for q in range(n)])
    lcols = np.arange(lists * width).reshape(lists, width)[::-1].ravel()
    rcols = (np.arange(lists)[:, None] * width + perm).ravel()
    member = hi_first[hi_at] << h | lo_first[lo_at]
    # a class's left or right nodes are those both halves of its member hold
    hi_at, lo_at = hi_at.tolist(), lo_at.tolist()
    left, right = ([hi[i] & lo[j] for i, j in zip(hi_at, lo_at)]
                   for hi, lo in ((_pack_rows(hi_has[:, c]), _pack_rows(lo_has[:, c]))
                                  for c in (lcols, rcols)))
    # a class holds pattern s of list l iff its key's field s is at least
    # the weights of lists 0..l there
    rhas = [_to_bits((keys & floors[-1, i % width]) >= floors.flat[i]) for i in rcols.tolist()]
    # grow[x] has y iff some vertex holds right node x's and left node y's
    # patterns: iff their union is not the full mask, as every other mask
    # lies under a co-atom, a vertex
    grow = _pack_rows((pats[rcols, None] | pats[lcols]) != (1 << 2 * h) - 1)
    return OrthoGraph(
        kind=kind,
        n=n,
        _hi=hi,
        _lo=lo,
        _table=table.reshape(shape),
        _member=member,
        _class_sizes=sizes.tolist(),
        _nodes=_Nodes(left.__getitem__, right, rhas, grow),
    )


# -- metrics ----------------------------------------------------------------


def _ecc(nodes: _Nodes, k: int, a: int, near: int, hubs: int):
    """Eccentricity of class a among k classes, INFINITY when some class is
    unreachable; `near` holds the classes adjacent to a, less a, which
    make the first step.  The ball less a is an up-set, so its neighbours
    are those of its classes in `hubs`, the co-atom classes (module
    docstring): x holds the left nodes of a and of the hub classes in the
    ball."""
    full = (1 << k) - 1
    ball, x, d = 1 << a, nodes.lnode(a), 0
    while ball != full:
        grown = ball | (_row_union(x, nodes.rhas) if d else near)
        if grown == ball:
            return INFINITY
        for c in _bits(grown & hubs & ~ball):
            x |= nodes.lnode(c)
        ball, d = grown, d + 1
    return d


def dist(g: OrthoGraph, u: NormalMatrix, v: NormalMatrix):
    a, b = g._vertex_class(u), g._vertex_class(v)
    return 0 if u == v else g._nodes.dist(a, b)


def stats(g: OrthoGraph) -> dict:
    import numpy as np
    if g._stats is not None:
        return g._stats
    nodes, sizes = g._nodes, g._class_sizes
    k = len(sizes)
    # classes per orbit, keyed by the orbit's least class
    orbits = Counter(_class_orbits(g))
    roots = sorted(orbits)

    @lru_cache(maxsize=None)
    def others(c: int) -> int:  # the classes adjacent to c, less c
        return nodes.reach(c) & ~(1 << c)

    # size_bits[p] holds the classes whose size has bit p set, so the
    # total size of a set of classes is a sum of shifted popcounts
    sz = np.array(sizes)
    width = max(sizes, default=0).bit_length()
    size_bits = [_to_bits((sz >> p) & 1) for p in range(width)]

    def size(f: int) -> int:  # the number of vertices in the classes of f
        return sum((f & m).bit_count() << p for p, m in enumerate(size_bits))

    edges = loops = 0
    ends = 0  # edges between two classes, counted from both ends
    for a, weight in orbits.items():
        if nodes.loop(a):
            loops += weight * sizes[a]
            edges += weight * (sizes[a] * (sizes[a] - 1) // 2)
        ends += weight * sizes[a] * size(others(a))
    edges += ends // 2

    # the co-atoms, one -1 cell each, lie above every vertex
    slots = g.n * g.n - g.n
    hub_classes = g._class(((1 << slots) - 1) ^ 1 << np.arange(slots)).tolist()
    assert min(hub_classes) >= 0, "a co-atom is not a vertex"
    hubs = reduce(or_, [1 << c for c in hub_classes])
    diam = 0
    for a in roots:
        if sizes[a] >= 2:  # two members of a: adjacent, a common neighbour, or neither
            diam = max(diam, 1 if nodes.loop(a) else 2 if others(a) else INFINITY)
        diam = max(diam, _ecc(nodes, k, a, others(a), hubs))
        if diam == INFINITY:
            break
    connected = diam < INFINITY

    # every cycle test runs from the orbit representatives (`_simple_girth`)
    if any(nodes.loop(a) and (sizes[a] >= 3 or (sizes[a] >= 2 and others(a))) for a in roots):
        girth = 3  # a triangle inside a class, or through two members and another class
    elif any(others(a) & others(b) for a in roots for b in _bits(others(a))):
        girth = 3  # a triangle through three classes
    elif any(sizes[a] >= 2 and size(others(a)) >= 2 for a in roots):
        girth = 4  # two members of a class and two vertices adjacent to it
    else:
        girth = _simple_girth(others, roots)

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
    permutation matrices and the transpose.  Each generator, the
    transposition (1 2), the n-cycle i -> i+1 (mod n) and the transpose,
    maps one member of every class to a vertex through its column of
    `core._slot_images` and so permutes the classes; every class takes the
    least label of its images until the labels settle."""
    import numpy as np
    n, m = g.n, g._member
    images = _slot_images(n)
    perms = list(permutations(range(n)))
    swap = (1, 0, *range(2, n))
    cycle = tuple((i + 1) % n for i in range(n))
    maps = [g._class(sum((m >> s & 1) * img[e] for s, img in enumerate(images)))
            for e in (perms.index(swap), perms.index(cycle), len(perms))]
    assert min(c.min() for c in maps) >= 0, "a generator maps a vertex off the graph"
    # a label is a class of its orbit no greater than its own class
    label = np.arange(len(m))
    while not np.array_equal(label, new := reduce(np.minimum, [label[c] for c in maps], label)):
        label = new[new]
    return label.tolist()


def _simple_girth(row: Callable[[int], int], roots) -> int | float:
    """Girth of a simple graph, row(x) the bitset of x's neighbours (no
    self bit), by a breadth-first search from each root one bitset layer
    at a time (Itai and Rodeh 1978): an edge inside layer d closes a cycle
    of at most 2d + 1, and a vertex of layer d + 1 with two neighbours in
    layer d one of at most 2d + 2.  Exact when some shortest cycle passes
    through a root, as a search from a vertex of a shortest cycle returns
    its length.  On a class graph an automorphism carries a shortest cycle
    through any class to one through its orbit's representative, so the
    representatives suffice."""
    best = INFINITY
    for root in roots:
        seen = layer = 1 << root
        d = 0
        while layer and 2 * d + 1 < best:
            inner = nxt = twice = 0
            for x in _bits(layer):
                r = row(x)
                inner |= r & layer
                new = r & ~seen
                twice |= nxt & new
                nxt |= new
            if inner or twice:
                best = 2 * d + 1 if inner else 2 * d + 2
                break
            seen, layer, d = seen | nxt, nxt, d + 1
        if best == 3:
            break
    return best


def diameter(g: OrthoGraph):
    return stats(g)["diameter"]


def girth(g: OrthoGraph):
    return stats(g)["girth"]
