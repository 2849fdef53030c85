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

A graph is made in two stages, both with plain ints.  `build` makes what
`dist` reads: the left and right nodes of every mask, and grow.  A mask
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
pattern of the left nodes without a zero there.  The class partition,
the class lookup, sizes, lnode, rnode, rhas and the orbits, is made on
the first read of any of its fields (`stats`, `vertices`, `num_vertices`
or `_class`), and `dist` never makes it.

`dist` and `stats` build no adjacency rows of a pattern graph.  The left
nodes X of the ball of radius d around a vertex give those of radius
d + 1 as X with grow[x] ORed in for every x in X, so `dist` grows X from
the left nodes of one end until X meets the right nodes of the other
(in a pattern graph each step is at most 3n^2 ORs of 3n^2-bit ints,
whatever the number of classes), between two members of one class too.
Class c has a loop iff lnode(c) & rnode[c].  All metrics are computed on
the class graph; the blow-up only needs class sizes.

The partition names each class by its left nodes, so a mask's class is
one dict read of the left nodes its half tables give.  ORTHO's class of
mask m is m - 1.  A VNL class holds exactly the masks whose all-zero
rows are R and all-zero columns C, for some R and C with p in R and q in
C where p != q, R not every row (that is the all-zero matrix): its left
nodes are the (p, q) of R x C, C * rep(R) for rep(R) the sum of 2^(pn)
over p in R, and its right nodes R * rep(C).  The masks with rows R and
columns C zero, and maybe more, number 2^f for the f off-diagonal cells
outside them, (n - |R|)(n - |C|) - |[n] - (R | C)|; Möbius inversion
over the supersets of (R, C) turns those counts into the class sizes
(Stanley, Enumerative Combinatorics I, 2.1 and 3.7), and the classes
with size 0 are the (R, C) no mask has.  A WNL class's left nodes are
the AND of those of its masks' two halves, so the pairs of half classes,
the half masks grouped by their left nodes (472 a side at n=5), are
grouped by that AND (`_wnl_classes`); a class's size sums its pairs'
products of half counts, and its first pair gives a member, whose right
nodes are the class's.  (The pair of the two full half masks, the last,
holds only the all-zero matrix and is left out.)  rhas is the transpose
of the bit matrix of right nodes by class.  grow is the build's.

Conjugation by permutation matrices and the transpose are automorphisms
of all three graphs: they keep a class's size, loop and eccentricity and
its neighbours' sizes.  So `stats` takes one class per orbit, weighted
by the orbit's class count in the edge and loop sums, and starts every
girth test there, the last a search of the class graph one bitset layer
at a time (`_simple_girth`).  A VNL orbit is the classes of one
({|R|, |C|}, |R & C|).  ORTHO and WNL label their orbits in one sweep:
the least class without a label labels its orbit, the classes of its
member's images under every element of the group, read from
`core._slot_images` as the search's closure reads it (ORTHO n=4: 142
orbits of 4,094 classes; VNL n=5: 18 of 750; WNL n=5: 107 of 11,479).

The edge rules are monotone in the zeros, every vertex lies under a
co-atom, a vertex with one -1 cell, and above a minimal vertex: a
one-zero matrix in ORTHO, the mask of an off-diagonal pattern of list 0
(V or W) in VNL and WNL.  So past radius 0 the ball around a, less a, is
an up-set, and its neighbours are those of its co-atom classes.
`_eccentricity` follows the ball on the co-atom and the minimal classes
alone: each step adds the neighbours of a and of the co-atom classes
reached, and the ball holds every class once it holds every minimal
class.  Only when a's own minimal class is the one missing can it not
tell, and `_ecc` then grows the whole ball, keeping the left nodes of a
and of the co-atom classes in it.

Vertices are keyed by their off-diagonal mask (`core.to_offdiag_mask`).
`vertices` lists the vertex masks on first use and decodes a matrix on
demand.  The V/W/Z patterns are the off-diagonal masks of the rows a
`families.Atom` forces, so neither the slot order nor the patterns are
written here.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from collections.abc import Callable, Sequence
from functools import cached_property, lru_cache

from .core import (
    GRAPH_KINDS,
    NormalMatrix,
    _bits,
    _cols,
    _partners,
    _row_union,
    _slot_images,
    _union_table,
    from_offdiag_mask,
    offdiag_mask,
    offdiag_rows,
    to_offdiag_mask,
)
from .families import ATOM_KINDS, Atom
from .ortho import is_orthogonal

ORTHO, VNL, WNL = GRAPH_KINDS

ORTHO_BUILD_GUARD = 4
PATTERN_BUILD_GUARD = 5

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


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """The columns of a bit matrix given by its rows, each below 2^width:
    bit c of column x is bit x of rows[c].  The rows, packed w >= width
    bits apart in one int and written in binary, put column x in every
    w-th digit."""
    size = (width + 7) // 8
    packed = int.from_bytes(b"".join([r.to_bytes(size, "little") for r in rows]), "little")
    w = 8 * size
    digits = format(packed, f"0{w * len(rows)}b")
    return [int(digits[w - 1 - x :: w] or "0", 2) for x in range(width)]


class _Lazy(dict):
    """A dict that makes a missing entry x as make(x) and keeps it."""

    def __init__(self, make: Callable[[int], int]):
        super().__init__()
        self.make = make

    def __missing__(self, x: int) -> int:
        self[x] = value = self.make(x)
        return value


# -- graph value ----------------------------------------------------------


class Vertices(Sequence):
    """The vertices of a graph, decoded on demand from the sorted sequence
    of their off-diagonal masks."""

    def __init__(self, n: int, masks: Sequence[int]):
        self.n = n
        self.masks = masks

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [from_offdiag_mask(self.n, m) for m in self.masks[i]]
        return from_offdiag_mask(self.n, self.masks[i])


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

    # the partition's fields: mask -> class, -1 off the graph; the class
    # sizes; the relation over nodes; () -> the least class of each
    # class's orbit
    _PARTITION = ("_class", "_class_sizes", "_nodes", "_orbits")

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

    def _mask(self, a: NormalMatrix) -> int:
        if a.n != self.n:
            raise ValueError(f"order {a.n} vertex in an order {self.n} graph")
        return to_offdiag_mask(a)

    def _vertex_class(self, a: NormalMatrix) -> int:
        c = self._class(self._mask(a))
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
        masks = range(1 << self.n * self.n - self.n)
        return Vertices(self.n, [m for m in masks if self._class(m) >= 0])

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

    def lookup(m: int) -> int:
        return m - 1 if 0 < m <= k else -1

    def partition() -> tuple:
        return (lookup, [1] * k, _Nodes((1).__lshift__, rows, rows, rows),
                lambda: _orbit_sweep(n, k, (1).__add__, lambda ms: [m - 1 for m in ms]))

    return OrthoGraph(ORTHO, n, ends, rows, partition)


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

    def partition() -> tuple:
        if kind == VNL:
            lnodes, rnodes, sizes, keys = _vnl_classes(n)
        else:
            lnodes, rnodes, sizes, members = _wnl_classes(n, tables, vert)
        index = {x: c for c, x in enumerate(lnodes)}

        def lookup(m: int) -> int:
            return index.get(ends(m)[0], -1)

        def orbits() -> list[int]:
            if kind == VNL:  # the least class of each key
                least: dict[tuple, int] = {}
                return [least.setdefault(key, c) for c, key in enumerate(keys)]
            # the images of members are vertices: their left nodes name their classes
            return _orbit_sweep(n, len(sizes), members.__getitem__,
                                lambda ms: [index[lhi[m >> h] & llo[m & low]] for m in ms])

        return (lookup, sizes, _Nodes(lnodes.__getitem__, rnodes, _transpose(rnodes, len(grow)), grow),
                orbits)

    return OrthoGraph(kind, n, ends, grow, partition)


def _vnl_classes(n: int) -> tuple[list[int], list[int], list[int], list[tuple]]:
    """The VNL classes by (R, C), their all-zero rows and columns (module
    docstring): the left nodes, the right nodes and the size of each, and
    its orbit key ({|R|, |C|}, |R & C|)."""
    full = (1 << n) - 1
    ones = [x.bit_count() for x in range(full + 1)]
    # table[R][C]: the masks with rows R and columns C zero, and maybe more;
    # then, by Möbius inversion over the supersets, with exactly those
    table = [[1 << (n - ones[r]) * (n - ones[c]) - (n - ones[r | c]) for c in range(full + 1)]
             for r in range(full + 1)]
    for _ in range(2):  # over R, then, transposed, over C
        for bit in range(n):
            step = 1 << bit
            table = [row if r & step else [x - y for x, y in zip(row, table[r | step])]
                     for r, row in enumerate(table)]
        table = [list(col) for col in zip(*table)]
    rep = _union_table([1 << p * n for p in range(n)])  # rep[R]: bit pn for each p in R
    lnodes, rnodes, sizes, keys = [], [], [], []
    for r in range(1, full):  # R = every row is only the all-zero matrix
        row, nr = table[r], ones[r]
        for c in range(1, full):
            # some p in R and q in C with p != q, unless R = C = {p}
            if row[c] and (r != c or r & r - 1):
                lnodes.append(c * rep[r])
                rnodes.append(r * rep[c])
                sizes.append(row[c])
                nc = ones[c]
                keys.append((nr, nc, ones[r & c]) if nr <= nc else (nc, nr, ones[r & c]))
    return lnodes, rnodes, sizes, keys


def _wnl_classes(n: int, tables: list[list[int]], vert: int) -> tuple[list[int], ...]:
    """The WNL classes from the build's tables, the left nodes of the high
    and of the low half masks, then their right nodes (module docstring):
    the left nodes, the right nodes, the size and a member mask of each.
    Per high half class, left nodes a, the low half masks are counted by
    a & b, b their left nodes, each count kept with one of its masks.  A
    high half class a' above a has a & a' = a, so the counts of a are
    those of a' merged by & a: each high half class takes them from its
    least mask with one slot more, the full half mask from the low half
    masks one by one."""
    h = (n * n - n) // 2
    lhi, llo, rhi, rlo = tables
    top = (1 << h) - 1
    merged: dict[int, list[tuple[int, int, int]]] = {}  # a -> (a & b, count, mask)
    for x in reversed(range(top + 1)):
        a = lhi[x]
        if a in merged:
            continue
        counts: dict[int, list[int]] = {}
        above = merged[lhi[x | x + 1]] if x < top else [(b, 1, y) for y, b in enumerate(llo)]
        for b, w, y in above:
            got = counts.get(a & b)
            if got is None:
                counts[a & b] = [w, y]
            else:
                got[0] += w
        merged[a] = [(key, w, y) for key, (w, y) in counts.items()]
    index: dict[int, int] = {}
    sizes, pairs = [], []
    weight = Counter(lhi)
    for x in range(top + 1):  # the high half classes by their least masks
        a = lhi[x]
        for key, w, y in merged.pop(a, ()):
            if key & vert:
                c = index.get(key)
                if c is None:
                    index[key] = len(sizes)
                    sizes.append(weight[a] * w)
                    pairs.append((x, y))
                else:
                    sizes[c] += weight[a] * w
    # the last pair, of the two full half masks, each alone in its half
    # class, is the all-zero matrix alone
    index.popitem()
    sizes.pop()
    pairs.pop()
    return (list(index), [rhi[x] & rlo[y] for x, y in pairs], sizes,
            [x << h | y for x, y in pairs])


def _orbit_sweep(n: int, k: int, member: Callable[[int], int],
                 classes: Callable[[array], list[int]]) -> list[int]:
    """The least class of the orbit of each of k classes under conjugation
    by permutation matrices and the transpose, given a member mask of each
    class and the classes of an array of vertex masks.  The least class
    without a label labels its orbit, the classes of its member's images
    under every element of the group.  Those images are one OR of 64-bit
    words: per slot, its images under every element (its column of
    `core._slot_images`) packed 64 bits apart, ORed over the member's
    slots."""
    images = _slot_images(n)
    column = [int.from_bytes(array("Q", col).tobytes(), sys.byteorder) for col in images]
    size = 8 * len(images[0])
    label = [-1] * k
    for c in range(k):
        if label[c] < 0:
            for y in classes(array("Q", _row_union(member(c), column).to_bytes(size, sys.byteorder))):
                label[y] = c
    return label


# -- metrics ----------------------------------------------------------------


def _floor_masks(kind: str, n: int) -> list[int]:
    """Masks of vertices that every vertex lies above: ORTHO's one-zero
    matrices, else the off-diagonal patterns of list 0 (V or W)."""
    if kind == ORTHO:
        return [1 << s for s in range(n * n - n)]
    pats = _vnl_patterns(n) if kind == VNL else _wnl_patterns(n)[0]
    return [pat for s, pat in enumerate(pats) if s % (n + 1)]


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


def _eccentricity(g: OrthoGraph) -> Callable[[int], int | float]:
    """The eccentricity of a class of g, INFINITY when some class is
    unreachable, read off the co-atom and the minimal classes alone
    (module docstring): `near` gives each node's rhas on them, so the
    neighbours of class c among them are the OR of near over lnode(c).
    From radius 0, each step adds those of a and of each co-atom class the
    ball has reached; the ball is whole once it holds every minimal class,
    and it stops growing once the co-atom and minimal classes do.  When
    only a's own minimal class is missing, the vertices above a's minimal
    members may lie beyond the ball, and `_ecc` decides."""
    nodes, n, k = g._nodes, g.n, len(g._class_sizes)
    full = (1 << n * n - n) - 1
    hub_set = {g._class(full ^ 1 << s) for s in range(n * n - n)}
    floor_set = {g._class(m) for m in _floor_masks(g.kind, n)}
    assert min(hub_set | floor_set) >= 0, "a co-atom or a minimal mask is not a vertex"
    hubs, floors = (sum(1 << c for c in cs) for cs in (hub_set, floor_set))
    kept = hubs | floors
    near = _Lazy(lambda x: nodes.rhas[x] & kept)
    hub_near = _Lazy(lambda c: _row_union(nodes.lnode(c), near))

    def ecc(a: int) -> int | float:
        own, reached, d = floors & 1 << a, 0, 0
        step = _row_union(nodes.lnode(a), near)
        while (missing := floors & ~reached) not in (0, own):
            grown = reached | step | _row_union(reached & hubs, hub_near)
            if grown == reached:
                return INFINITY
            reached, d = grown, d + 1
        return _ecc(nodes, k, a, nodes.reach(a) & ~(1 << a), hubs) if missing else d

    return ecc


def dist(g: OrthoGraph, u: NormalMatrix, v: NormalMatrix):
    (x, _), (_, target) = g._vertex_nodes(u), g._vertex_nodes(v)
    return 0 if u == v else _ball_dist(x, target, g._grow)


def stats(g: OrthoGraph) -> dict:
    if g._stats is not None:
        return g._stats
    nodes, sizes = g._nodes, g._class_sizes
    # classes per orbit, keyed by the orbit's least class
    orbits = Counter(_class_orbits(g))
    roots = sorted(orbits)

    @lru_cache(maxsize=None)
    def others(c: int) -> int:  # the classes adjacent to c, less c
        return nodes.reach(c) & ~(1 << c)

    # planes[p] holds the classes whose size has bit p set, so the total
    # size of a set of classes is a sum of shifted popcounts
    planes = _transpose(sizes, max(sizes, default=0).bit_length())

    def size(f: int) -> int:  # the number of vertices in the classes of f
        return sum((f & m).bit_count() << p for p, m in enumerate(planes))

    edges = loops = 0
    ends = 0  # edges between two classes, counted from both ends
    for a, weight in orbits.items():
        if nodes.loop(a):
            loops += weight * sizes[a]
            edges += weight * (sizes[a] * (sizes[a] - 1) // 2)
        ends += weight * sizes[a] * size(others(a))
    edges += ends // 2

    ecc = _eccentricity(g)
    diam = 0
    for a in roots:
        if sizes[a] >= 2:  # two members of a: adjacent, a common neighbour, or neither
            diam = max(diam, 1 if nodes.loop(a) else 2 if others(a) else INFINITY)
        diam = max(diam, ecc(a))
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
    permutation matrices and the transpose (module docstring)."""
    return g._orbits()


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
