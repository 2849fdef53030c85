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
per vertex, whose adjacency row is the vertex's partner set
(`core._partners`, one AND of the order's cached meet sets per row and
column) in class numbering, built when it is first read.

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

A graph is made in two stages.  `build` makes what `dist` reads, with
plain ints: the left and right nodes of every mask, and grow.  A mask
holds a pattern iff each half of its slots holds that half of the
pattern, so a pattern graph keeps four tables over the half masks of its
high and of its low h = (n^2 - n)/2 slots: the left and the right nodes
whose pattern half each one holds, built by doubling over the slots.  A
mask's left (right) nodes are then two reads and an AND, and it is a
vertex iff it is not the full mask and holds an off-diagonal pattern of
list 0.  ORTHO's mask m has left node m - 1 and the right nodes of row
m - 1.  grow needs no class: some vertex holds the patterns of right
node x and left node y iff their union is not the full mask, as every
co-atom is a vertex, so grow[x] is the union over the slots outside x's
pattern of the left nodes without a zero there.  The class partition, the
class lookup, numbering, sizes, members, lnode, rnode and rhas, is made
with numpy on the first read of any of its fields (`stats`, `vertices`,
`num_vertices` or `_class`), so a `dist` run loads no numpy.

`dist` and `stats` build no adjacency rows of a pattern graph.  The left
nodes X of the ball of radius d around a vertex give those of radius
d + 1 as X with grow[x] ORed in for every x in X, so `dist` grows X from
the left nodes of one end until X meets the right nodes of the other
(in a pattern graph each step is at most 3n^2 ORs of 3n^2-bit ints,
whatever the number of classes), between two members of one class too.
Class c has a loop iff lnode(c) & rnode[c].  All metrics are computed on
the class graph; the blow-up only needs class sizes.

The partition of a pattern graph reads its half classes off the build's
tables: the half masks grouped by their left nodes, which say the
pattern halves they hold, 472 a side for WNL n=5.  A class key has a
field per (p, q) that counts the pattern lists whose (p, q) pattern the
masks contain: 1 bit for VNL; for WNL 2 bits, the level of the nested
patterns W ⊆ W&Z(q;p) ⊆ W&Z(p;q)&Z(q;p), but 1 bit on the diagonal, where
the three are equal (a diagonal Z atom forces no off-diagonal zero), so
45 bits at n=5.  Per list, the signature of a pair of half classes is
the AND of theirs, and the pair's key sums them.  The partition puts
each key above its pair's index in one int64 word and sorts the words of
the vertex pairs once: the runs of equal keys are the classes, numbered
in key order, a running count of the run starts gives each pair's class
for the pair table (-1 for none), and a class's size sums its pairs'
products of half counts.  (The pair of the two full half masks holds
only the all-zero matrix and is left out.)  The last pair of each class
gives a member, whose nodes, read from the build's tables, are the
class's.  rhas reads the class keys: a class holds pattern s of list l
iff its field s is at least the weights of lists 0..l there.  grow is the
build's.  Three reads give a mask's class.

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
from operator import or_
from typing import TYPE_CHECKING

from .core import (
    GRAPH_KINDS,
    NormalMatrix,
    _bits,
    _cols,
    _partners,
    _row_union,
    _slot_images,
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
    """The relation of a graph's classes over nodes (module docstring):
    signature nodes for VNL and WNL, the classes themselves for ORTHO."""

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


def _ball_dist(x: int, target: int, grow: Sequence[int]):
    """Distance from a vertex with left nodes x to a vertex with right
    nodes target, other than the first: the least d such that the ball of
    radius d - 1 around the first, whose left nodes d - 1 steps give (each
    ORs in grow[y] for every y), meets target, or INFINITY once the ball
    stops growing.  Between two members of one class that is 1 on a
    self-adjacent class, 2 when the class has another neighbour, else
    INFINITY."""
    d = 1
    while not x & target:
        grown = x | _row_union(x, grow)
        if grown == x:
            return INFINITY
        x, d = grown, d + 1
    return d


class _OrthoRows:
    """The adjacency rows of ORTHO's k classes, each built on first read
    and kept: row c is the partner set of mask c + 1 (`core._partners`)
    with class m - 1 for mask m, less mask 0 and the full mask."""

    __slots__ = ("n", "built")

    def __init__(self, n: int, k: int):
        self.n = n
        self.built: list[int | None] = [None] * k

    def __len__(self) -> int:
        return len(self.built)

    def __getitem__(self, c: int) -> int:
        row = self.built[c]  # IndexError past the last class
        if row is None:
            k = len(self.built)
            row = _partners(self.n, offdiag_rows(self.n, c % k + 1)) >> 1 & (1 << k) - 1
            self.built[c] = row
        return row


class OrthoGraph:
    """A graph of any of the three kinds, ORTHO, VNL or WNL (the name is
    the public export's), in the two stages of the module docstring: the
    node sets of every mask and grow, which `dist` reads, and the class
    partition, whose fields are made together on the first read of any."""

    # the partition's fields: half mask -> half class, of the high and of
    # the low slots; (high, low) half class -> class, -1 for none; class ->
    # the mask of one member; the class sizes; the relation over nodes
    _PARTITION = ("_hi", "_lo", "_table", "_member", "_class_sizes", "_nodes")

    def __init__(self, kind: str, n: int, _ends: Callable[[int], tuple[int, int]],
                 _grow: Sequence[int], _partition: Callable[[], tuple]):
        self.kind, self.n = kind, n
        self._ends = _ends  # mask -> its left and right nodes, (0, 0) off the graph
        self._grow = _grow  # node -> the left nodes a step adds (module docstring)
        self._partition = _partition  # () -> the _PARTITION fields, in order
        self._stats: dict | None = None

    def __getattr__(self, name: str):
        # reached only for an attribute not set: a partition field before
        # the partition is made
        if name not in OrthoGraph._PARTITION:
            raise AttributeError(name)
        vars(self).update(zip(OrthoGraph._PARTITION, self._partition()))
        return vars(self)[name]

    def _class(self, m):
        """Class of the off-diagonal mask m or mask array m, -1 off the graph."""
        h = (self.n * self.n - self.n) // 2
        return self._table[self._hi[m >> h], self._lo[m & ((1 << h) - 1)]]

    def _mask(self, a: NormalMatrix) -> int:
        if a.n != self.n:
            raise ValueError(f"order {a.n} vertex in an order {self.n} graph")
        return to_offdiag_mask(a)

    def _vertex_class(self, a: NormalMatrix) -> int:
        c = int(self._class(self._mask(a)))
        if c < 0:
            raise ValueError("matrix is not a vertex of this graph")
        return c

    def _vertex_nodes(self, a: NormalMatrix) -> tuple[int, int]:
        """Left and right nodes of the vertex a, from the build's tables."""
        ends = self._ends(self._mask(a))
        if not ends[0]:
            raise ValueError("matrix is not a vertex of this graph")
        return ends

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
    k = (1 << n * n - n) - 2
    rows = _OrthoRows(n, k)

    def ends(m: int) -> tuple[int, int]:
        # nodes are classes: lnode(c) is c alone; rnode, rhas and grow are the rows
        return (1 << m - 1, rows[m - 1]) if 0 < m <= k else (0, 0)

    return OrthoGraph(ORTHO, n, ends, rows, lambda: _ortho_partition(n, rows))


def _ortho_partition(n: int, rows: _OrthoRows) -> tuple:
    import numpy as np
    h, k = (n * n - n) // 2, len(rows)
    # a half class per half mask, and class m - 1 for mask m off both ends
    table = np.append(np.arange(-1, k, dtype=np.int32), -1)
    return (np.arange(1 << h), np.arange(1 << h), table.reshape(1 << h, 1 << h),
            np.arange(1, k + 1, dtype=np.int64), [1] * k,
            _Nodes((1).__lshift__, rows, rows, rows))


def _node_patterns(kind: str, n: int) -> tuple[list[int], list[int]]:
    """The pattern of each left node and of each right node: node t*n^2 + s
    of the left nodes is pattern s of list lists-1-t, of the right nodes
    pattern s of list t transposed, which moves (p, q) to (q, p)."""
    lists = [_vnl_patterns(n)] if kind == VNL else _wnl_patterns(n)
    perm = [q * n + p for p in range(n) for q in range(n)]
    return ([pat for pats in lists[::-1] for pat in pats],
            [pats[s] for pats in lists for s in perm])


def _half_tables(lacks: Sequence[int], h: int, every: int) -> list[list[int]]:
    """Per half mask x of the high h slots, then of the low h slots, the
    nodes whose pattern's half x holds, given in lacks[s] the nodes whose
    pattern has no zero at slot s and in `every` all nodes.  Built by
    doubling over the slots: x without slot s holds the nodes that x with
    it holds and that lack s."""
    tables = []
    for at in (h, 0):
        held = [every]
        for lack in lacks[at : at + h]:
            held = [x & lack for x in held] + held
        tables.append(held)
    return tables


def _build_pattern_graph(kind: str, n: int) -> OrthoGraph:
    h = (n * n - n) // 2
    full, low = (1 << 2 * h) - 1, (1 << h) - 1
    lpats, rpats = _node_patterns(kind, n)
    every = (1 << len(lpats)) - 1
    llacks, rlacks = ([every ^ nodes for nodes in _cols(pats)[: 2 * h]] for pats in (lpats, rpats))
    # a mask holds a pattern iff each half holds that half of it
    tables = lhi, llo, rhi, rlo = _half_tables(llacks, h, every) + _half_tables(rlacks, h, every)
    # grow[x] has y iff some vertex holds right node x's and left node y's
    # patterns: iff their union is not the full mask, as every other mask
    # lies under a co-atom, a vertex; iff some slot lacks both their zeros
    grow = [_row_union(full ^ p, llacks) for p in rpats]
    # a vertex holds an off-diagonal pattern of list 0, of the last left term
    vert = sum(1 << len(lpats) - n * n + s for s in range(n * n) if s % (n + 1))

    def ends(m: int) -> tuple[int, int]:
        left = lhi[m >> h] & llo[m & low]
        if m == full or not left & vert:  # the all-zero matrix, or no vertex
            return 0, 0
        return left, rhi[m >> h] & rlo[m & low]

    return OrthoGraph(kind, n, ends, grow, lambda: _pattern_partition(kind, n, tables, grow))


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


def _half_classes(held: Sequence[int], weights: np.ndarray):
    """Half masks grouped by their left nodes, held[x] for half mask x
    (`_half_tables`): each one's class, the class sizes, each class's
    least mask and its flags, column l*n^2 + s set iff its half masks hold
    that half of pattern s of list l, left node (lists-1-l)*n^2 + s.  The
    classes are numbered in the order of their keys, the sums of their
    flags' weights (`_key_weights`)."""
    import numpy as np
    # the distinct left nodes, each half class's, keyed in the order of
    # their least half masks
    index = dict.fromkeys(held)
    k, (lists, width) = len(index), weights.shape
    size = (lists * width + 7) // 8
    raw = b"".join(nodes.to_bytes(size, "little") for nodes in index)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(k, size), axis=1,
                         count=lists * width, bitorder="little").view(bool)
    flags = bits.reshape(k, lists, width)[:, ::-1].reshape(k, -1)
    order = np.argsort(flags @ weights.ravel())
    rank = np.empty_like(order)
    rank[order] = np.arange(k)
    index.update(zip(index, rank.tolist()))
    ids = np.fromiter(map(index.__getitem__, held), np.intp, len(held))
    _, first, counts = np.unique(ids, return_index=True, return_counts=True)
    return ids, counts, first, flags[order]


def _pattern_partition(kind: str, n: int, tables: list[list[int]], grow: list[int]) -> tuple:
    """The class partition of a VNL or WNL graph (module docstring), from
    the build's tables: the left nodes of the high and of the low half
    masks, then their right nodes; and grow."""
    import numpy as np
    h, width = (n * n - n) // 2, n * n
    lists = 1 if kind == VNL else 3
    weights = _key_weights(n, lists)
    (hi, hi_count, hi_first, hi_has), (lo, lo_count, lo_first, lo_has) = (
        _half_classes(held, weights) for held in tables[:2])
    shape = len(hi_count), len(lo_count)
    pairs = shape[0] * shape[1]
    assert pairs <= 1 << _PAIR_BITS, "pair indices would overflow the sort word"
    # per list the signature of a pair of half classes is the AND of
    # theirs, and its key sums them, above the pair's index
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
    # each class's last pair gives its key and its member, and the nodes
    # both halves of the member hold are the class's: its right nodes are
    # listed, its left nodes read on demand, as `stats` reads few
    last = np.append(np.flatnonzero(start[1:]), len(start) - 1)
    keys = packed[last]
    hi_at, lo_at = np.divmod(pair[last], shape[1])
    member = hi_first[hi_at] << h | lo_first[lo_at]
    del buf, packed, pair  # the arrays over pairs go before the node sets
    mhi, mlo = (member >> h).tolist(), (member & (1 << h) - 1).tolist()
    lhi, llo, rhi, rlo = tables
    right = [rhi[x] & rlo[y] for x, y in zip(mhi, mlo)]
    # a class holds pattern s of list l iff its key's field s is at least
    # the weights of lists 0..l there; right node t*n^2 + s is pattern s'
    # of list t, for s' the transpose of s (one term at a time, as the
    # masked keys are int64)
    perm = [q * n + p for p in range(n) for q in range(n)]
    rhas = [r for floor in floors
            for r in _pack_rows((keys & floors[-1, perm, None]) >= floor[perm, None])]
    return (hi, lo, table.reshape(shape), member, sizes.tolist(),
            _Nodes(lambda c: lhi[mhi[c]] & llo[mlo[c]], right, rhas, grow))


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
    (x, _), (_, target) = g._vertex_nodes(u), g._vertex_nodes(v)
    return 0 if u == v else _ball_dist(x, target, g._grow)


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
