import copy
import functools
import itertools
import math
import operator
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

from conftest import atom_zeros, rand_normal, slot_generators
import fixtures
import graph_oracle
from tropnorm import graphs
from tropnorm.core import (
    NormalMatrix,
    all_normal_matrices,
    _cols,
    _row_union,
    all_zero,
    from_offdiag_mask,
    identity,
    make_elementary,
    naive_odot,
    offdiag_rows,
    to_offdiag_mask,
    transpose,
)
from tropnorm.graphs import (
    ORTHO,
    VNL,
    WNL,
    adjacent,
    build,
    dist,
    stats,
)
from tropnorm.ortho import is_orthogonal

# graphs shared by several tests; no test changes a graph
_built = functools.lru_cache(maxsize=None)(build)


@functools.lru_cache(maxsize=None)
def _rows(g):
    """Adjacency row of every class of a shared graph, with the self bit:
    the OR of rhas over the class's left nodes, read from the node tables
    (`test_node_meet_matches_rows` checks `reach` against the meet)."""
    nodes = g._nodes
    return [_row_union(nodes.lnode(c), nodes.rhas) for c in range(len(g._class_sizes))]


def _class_of(g, a):
    """Class of the vertex a, through the graph's class lookup."""
    return g._class(to_offdiag_mask(a))


def _has_loop(g, a):
    """Whether the vertex a has a loop: its class meets itself
    (`_Nodes.loop`), the class found by `_vertex_class`, which refuses a
    non-vertex."""
    return g._nodes.loop(g._vertex_class(a))


def _vertex_classes(g):
    """Class of every vertex, in vertex order, through the class lookup."""
    return [g._class(m) for m in g.vertices.masks]


@functools.lru_cache(maxsize=None)
def _renumber(kind, n):
    """The class of the shared graph that each class of the numpy oracle
    (`graph_oracle.partition`) is, through the oracle's member of it,
    checked to be a permutation of the classes.  With the class of every
    mask matching up to it (`test_class_lookup_matches_sweep`), the two
    partitions agree up to numbering."""
    g = _built(kind, n)
    perm = [g._class(m) for m in graph_oracle.partition(kind, n).member.tolist()]
    assert sorted(perm) == list(range(len(g._class_sizes))), (kind, n)
    return perm

ORTHO3_STATS = {"vertices": 62, "edges": 385, "loops": 17, "girth": 3, "diameter": 3}
VNL3_STATS = {"vertices": 24, "edges": 120, "loops": 6, "girth": 3, "diameter": 2}
WNL3_STATS = {"vertices": 47, "edges": 193, "loops": 9, "diameter": 3}


def test_ortho3_stats():
    g = build(ORTHO, 3)
    s = stats(g)
    for key, val in ORTHO3_STATS.items():
        assert s[key] == val, (key, s[key], val)
    assert s["connected"]


def test_vnl3_stats():
    s = stats(build(VNL, 3))
    for key, val in VNL3_STATS.items():
        assert s[key] == val
    assert s["connected"]


def test_wnl3_stats():
    s = stats(build(WNL, 3))
    for key, val in WNL3_STATS.items():
        assert s[key] == val
    assert s["connected"]


def test_ortho_adjacency_is_orthogonality():
    g = build(ORTHO, 3)
    verts = g.vertices
    assert identity(3) not in set(verts)
    assert all_zero(3) not in set(verts)
    rng = random.Random(40)
    for _ in range(2000):
        a, b = rng.choice(verts), rng.choice(verts)
        assert adjacent(ORTHO, a, b) == is_orthogonal(a, b)
    for a in verts:
        assert _has_loop(g, a) == is_orthogonal(a, a)


def test_u_pair_not_adjacent_at_3():
    u12 = make_elementary("U", 3, 1, 2)
    u21 = make_elementary("U", 3, 2, 1)
    assert not adjacent(ORTHO, u12, u21)


def test_pattern_graphs_subsets_of_ortho():
    # every VNL or WNL edge joins orthogonal matrices; the row/column
    # vertex sets are nested
    gv = build(VNL, 3)
    gw = build(WNL, 3)
    assert set(gv.vertices) <= set(gw.vertices)
    for a, b in itertools.combinations_with_replacement(gw.vertices, 2):
        if adjacent(WNL, a, b):
            assert is_orthogonal(a, b)
    for a, b in itertools.combinations_with_replacement(gv.vertices, 2):
        if adjacent(VNL, a, b):
            assert is_orthogonal(a, b)


def _brute_force(kind, verts):
    """Stats, all-pairs distances and loops of a graph straight from the
    pairwise adjacency predicate."""
    k = len(verts)
    nbrs = [set() for _ in range(k)]
    loops = [adjacent(kind, a, a) for a in verts]
    for i, j in itertools.combinations(range(k), 2):
        if adjacent(kind, verts[i], verts[j]):
            nbrs[i].add(j)
            nbrs[j].add(i)
    dists = []
    girth = math.inf
    for root in range(k):
        d = {root: 0}
        parent = {root: None}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if v not in d:
                        d[v] = d[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    elif v != parent[u]:
                        # a non-tree edge closes a cycle through the root's tree
                        girth = min(girth, d[u] + d[v] + 1)
            frontier = nxt
        dists.append([d.get(j, math.inf) for j in range(k)])
    diam = max(max(row) for row in dists)
    return {
        "vertices": k,
        "edges": sum(len(s) for s in nbrs) // 2,
        "loops": sum(loops),
        "girth": girth,
        "diameter": diam,
        "connected": diam < math.inf,
    }, dists, loops


def test_class_graph_matches_brute_force():
    # every stats field, every distance and every loop of the class graph
    # against the pairwise adjacency predicate; WNL n=2 is disconnected
    # and the n=2 graphs have no cycle
    for kind, n in itertools.product((ORTHO, VNL, WNL), (2, 3)):
        g = build(kind, n)
        want, dists, loops = _brute_force(kind, g.vertices)
        s = stats(g)
        assert (s["kind"], s["n"]) == (kind, n)
        for key, val in want.items():
            assert s[key] == val, (kind, n, key, s[key], val)
        for i, a in enumerate(g.vertices):
            assert _has_loop(g, a) == loops[i]
            for j, b in enumerate(g.vertices):
                assert dist(g, a, b) == dists[i][j], (kind, n, i, j)
        if n == 2:
            assert s["girth"] == math.inf
            assert s["connected"] == (kind != WNL)
    # classes of several mutually adjacent members first occur at VNL n=4,
    # too large for the full brute force: pair each member with the first
    # of its class (the graph is connected, so non-adjacent members are at 2)
    g = build(VNL, 4)
    first = {}
    for i, c in enumerate(_vertex_classes(g)):
        if c in first:
            a, b = g.vertices[first[c]], g.vertices[i]
            assert dist(g, a, b) == (1 if adjacent(VNL, a, b) else 2)
        else:
            first[c] = i


def test_wnl3_closing_distance():
    g = build(WNL, 3)
    a, b = fixtures.wnl3_distance_example()
    assert dist(g, a, b) == 3
    path = fixtures.wnl3_distance_path()
    assert path[0] == a and path[-1] == b
    for u, v in zip(path, path[1:]):
        assert adjacent(WNL, u, v)


def test_dist_trivia():
    g = build(ORTHO, 3)
    u12 = make_elementary("U", 3, 1, 2)
    assert dist(g, u12, u12) == 0
    with pytest.raises(ValueError):
        dist(g, identity(3), u12)


def _conjugate(a, perm):
    """PaP^-1 for the permutation i -> perm[i - 1] of 1..n."""
    return NormalMatrix.from_zeros(a.n, [(perm[i - 1], perm[j - 1]) for i, j in a.zeros])


def test_transpose_symmetry():
    # transposing both endpoints, and conjugating both by any permutation,
    # preserves adjacency in all three graphs
    rng = random.Random(42)
    for kind in (ORTHO, VNL, WNL):
        g = build(kind, 3)
        verts = g.vertices
        for _ in range(500):
            a, b = rng.choice(verts), rng.choice(verts)
            assert adjacent(kind, a, b) == adjacent(kind, transpose(b), transpose(a))
        for perm in itertools.permutations(range(1, 4)):
            conj = [_conjugate(a, perm) for a in verts]
            for (a, pa), (b, pb) in itertools.product(zip(verts, conj), repeat=2):
                assert adjacent(kind, a, b) == adjacent(kind, pa, pb), (kind, perm)


def test_vnl4_wnl4_diameter_two():
    sv = stats(build(VNL, 4))
    assert sv["vertices"] == 920
    assert sv["diameter"] == 2
    sw = stats(build(WNL, 4))
    assert sw["vertices"] == 1741
    assert sw["diameter"] == 2


def test_build_guards():
    with pytest.raises(ValueError):
        build(ORTHO, 5)
    with pytest.raises(ValueError):
        build(VNL, 6)
    with pytest.raises(ValueError):
        build("nonsense", 3)
    for kind, n in ((VNL, 0), (WNL, 1), (ORTHO, -1), (ORTHO, 1)):
        with pytest.raises(ValueError, match=f"n={n}"):
            build(kind, n)


def _edge_pair(rng, kind, n):
    """Random vertices A, B that the edge rule joins: A carries V(k;m) and
    B V(m;k), or for WNL A carries W(k;m), B W(m;k) and one of the three
    corner conditions holds.  Other cells are zero with probability 1/4."""
    k, m = rng.sample(range(1, n + 1), 2)
    atom = "V" if kind == VNL else "W"
    za = atom_zeros(atom, k, m, n)
    zb = atom_zeros(atom, m, k, n)
    if kind == WNL:  # corner zeros of A and of B, one pair per rule
        corners = {(k, m), (m, k)}
        ca, cb = rng.choice([(corners, set()), ({(m, k)}, {(k, m)}), (set(), corners)])
        za |= ca
        zb |= cb
    cells = list(itertools.product(range(1, n + 1), repeat=2))
    za |= {c for c in cells if rng.random() < 0.25}
    zb |= {c for c in cells if rng.random() < 0.25}
    return NormalMatrix.from_zeros(n, za), NormalMatrix.from_zeros(n, zb)


def test_class_adjacency_matches_adjacent_n4_n5():
    """The class-adjacency bit of two vertices is the edge predicate, on
    seeded random pairs and on pairs built to be edges."""
    rng = random.Random(43)
    for kind, n in itertools.product((VNL, WNL), (4, 5)):
        g = _built(kind, n)
        verts = g.vertices
        pairs = [(rng.choice(verts), rng.choice(verts)) for _ in range(500)]
        edges = [_edge_pair(rng, kind, n) for _ in range(300)]
        edges = [(a, b) for a, b in edges if n * n not in (len(a.zeros), len(b.zeros))]
        assert len(edges) > 250
        assert all(adjacent(kind, a, b) for a, b in edges)
        for a, b in pairs + edges:
            ca, cb = _class_of(g, a), _class_of(g, b)
            got = adjacent(kind, a, b)
            assert bool(_rows(g)[ca] >> cb & 1) == got, (kind, n, a, b)
            assert adjacent(kind, b, a) == got, (kind, n, a, b)
            if got:
                assert is_orthogonal(a, b)


def _is_symmetric(rows):
    """Whether the bit matrix whose row a is the int rows[a] equals its
    transpose, compared 1,024 rows against 1,024 columns at a time."""
    import numpy as np
    k = len(rows)
    width = (k + 7) // 8
    packed = b"".join(r.to_bytes(width, "little") for r in rows)
    packed = np.frombuffer(packed, np.uint8).reshape(k, width)
    for at in range(0, width, 128):
        block = np.unpackbits(packed[8 * at : 8 * (at + 128)], axis=1, count=k, bitorder="little")
        cols = np.unpackbits(packed[:, at : at + 128], axis=1, bitorder="little")
        if not np.array_equal(block, cols[:, : len(block)].T):
            return False
    return True


@pytest.mark.parametrize("kind", (VNL, WNL))
def test_pattern_class_adjacency_symmetric(kind):
    """Row a holds the classes b with lnode(a) & rnode[b]: the relation is
    read from the left nodes only.  It must be symmetric for the rows to be
    the columns as well, and for the balls that `dist` grows in node space
    to be the balls of the undirected graph."""
    for n in range(2, 6):
        assert _is_symmetric(_rows(_built(kind, n))), (kind, n)
    assert not _is_symmetric([0b10, 0b00])


def test_ortho4_stats():
    s = stats(_built(ORTHO, 4))
    assert s["vertices"] == 4094
    assert s["edges"] == 1111070
    assert s["loops"] == 711
    assert s["girth"] == 3
    assert s["diameter"] == 3
    assert s["connected"]


def test_vnl5_wnl5_diameter_two():
    for kind, want, classes in (
        (VNL, {"vertices": 113590, "edges": 650473265, "loops": 11380}, 750),
        (WNL, {"vertices": 231759, "edges": 1325938647, "loops": 13405}, 11479),
    ):
        g = _built(kind, 5)
        want |= {"kind": kind, "n": 5, "girth": 3, "diameter": 2, "connected": True}
        assert stats(g) == want
        assert len(g._class_sizes) == classes


@pytest.mark.parametrize("n", (2, 3, 4))
def test_signatures_match_per_mask_containment(n):
    """The build's per-half tables of left and right nodes
    (`graph_oracle.node_tables`, made as `build` makes them): a high (low)
    half mask holds a node iff it contains the high (low) half of the
    node's pattern, and the AND of a mask's two halves holds exactly the
    patterns the mask contains.  WNL's pattern lists are nested, W(p;q) ⊆
    W(p;q)&Z(q;p) ⊆ W(p;q)&Z(p;q)&Z(q;p), and equal on the diagonal,
    where a Z atom forces no off-diagonal zero."""
    import numpy as np
    h = (n * n - n) // 2
    masks = np.arange(1 << 2 * h)
    for kind in (VNL, WNL):
        lpats, rpats = graphs._node_patterns(kind, n)
        lhi, llo, rhi, rlo = graph_oracle.node_tables(kind, n)
        for pats, hi, lo in ((lpats, lhi, llo), (rpats, rhi, rlo)):
            pats = np.array(pats)
            for held, shift in ((hi, h), (lo, 0)):
                part = pats & ((1 << h) - 1) << shift
                halves = np.arange(1 << h)[:, None] << shift
                assert held == graph_oracle.pack_rows((halves & part) == part), (kind, n, shift)
            holds = graph_oracle.pack_rows((masks[:, None] & pats) == pats)
            assert [hi[m >> h] & lo[m & ((1 << h) - 1)] for m in masks.tolist()] == holds
    w, wzo, wzz = graphs._wnl_patterns(n)
    for lo, hi in ((w, wzo), (wzo, wzz)):
        assert all(h & l == l for l, h in zip(lo, hi))
    assert all(w[s] == wzz[s] for s in range(0, n * n, n + 1))


def _bool_words(flags):
    """The rows of a boolean matrix in little-endian 64-bit words."""
    import numpy as np
    k, width = flags.shape
    padded = np.zeros((k, -(-width // 64) * 64), dtype=bool)
    padded[:, :width] = flags
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _bool_pack_rows(flags):
    """Bitset of each row of a boolean matrix, word by word."""
    rows, *high = _bool_words(flags).T.tolist()
    for w, word in enumerate(high, 1):
        rows = [r | x << 64 * w for r, x in zip(rows, word)]
    return rows


def _bool_node_tables(g):
    """The node tables by boolean matrices of classes by nodes, from each
    class member's signature per pattern list (the members of the numpy
    oracle, renumbered): lnode of every class, rnode, rhas and grow."""
    import numpy as np
    n = g.n
    lists = [graphs._vnl_patterns(n)] if g.kind == VNL else graphs._wnl_patterns(n)
    members = [0] * len(g._class_sizes)
    for m, c in zip(graph_oracle.partition(g.kind, n).member.tolist(), _renumber(g.kind, n)):
        members[c] = m
    rows = [np.array([[m & p == p for p in pats] for m in members]) for pats in lists]
    perm = np.array([q * n + p for p in range(n) for q in range(n)])
    left = np.hstack(rows[::-1])
    right = np.hstack([r[:, perm] for r in rows])
    has = np.ascontiguousarray(right.T)
    lsets = _bool_words(left.T)
    grow = np.array([(lsets & h).any(axis=1) for h in _bool_words(has)])
    return (_bool_pack_rows(left), _bool_pack_rows(right), [graph_oracle.to_bits(h) for h in has],
            _bool_pack_rows(grow))


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in (VNL, WNL) for n in (2, 3, 4, 5)])
def test_node_tables_match_boolean_matrices(kind, n):
    """lnode and rnode, the AND of the half classes' node sets, rhas, read
    off the class keys, and grow, from the pattern unions, against the
    tables built from boolean matrices of classes by nodes."""
    nodes = _built(kind, n)._nodes
    lnode, rnode, rhas, grow = _bool_node_tables(_built(kind, n))
    assert [nodes.lnode(c) for c in range(len(lnode))] == lnode
    assert list(nodes.rnode) == rnode
    assert (nodes.rhas, nodes.grow) == (rhas, grow)


# -- the full sweep, the oracle of the class lookup ------------------------------


@functools.lru_cache(maxsize=None)
def _sweep(kind, n):
    """Class of every off-diagonal mask, -1 for a non-vertex, by a sweep
    over all 2^(n^2-n) masks.  ORTHO's classes are its masks minus 1,
    without the two ends.  A VNL or WNL mask's key has, per pattern list,
    bit 2s set iff the mask contains pattern s, summed over the lists; the
    vertices are the masks with some off-diagonal (p, q) level but the
    all-zero matrix, and their classes the keys in increasing order."""
    import numpy as np
    masks = np.arange(1 << (n * n - n), dtype=np.int64)
    if kind == ORTHO:
        classes = masks - 1
    else:
        lists = [graphs._vnl_patterns(n)] if kind == VNL else graphs._wnl_patterns(n)
        key = sum(((masks & pat) == pat).astype(np.int64) << 2 * s
                  for pats in lists for s, pat in enumerate(pats))
        offdiag = sum(3 << 2 * (p * n + q) for p in range(n) for q in range(n) if p != q)
        is_vert = (key & offdiag) != 0
        is_vert[-1] = False  # the all-zero matrix
        classes = np.full(len(masks), -1)
        classes[is_vert] = np.unique(key[is_vert], return_inverse=True)[1]
    classes[-1] = -1  # the all-zero matrix
    return classes


SWEEP_GRAPHS = [(ORTHO, n) for n in (2, 3, 4)] + [
    (kind, n) for kind in (VNL, WNL) for n in (2, 3, 4, 5)
]


def _same_partition(got, want):
    """Whether two arrays of the class of each mask, -1 off the graph, make
    the same partition up to the numbering of the classes."""
    import numpy as np
    on = want >= 0
    if not np.array_equal(got >= 0, on):
        return False
    to = np.full(want.max() + 1, -1)
    to[want[on]] = got[on]
    return np.array_equal(to[want[on]], got[on]) and len(set(to.tolist())) == len(to)


@pytest.mark.parametrize("kind,n", SWEEP_GRAPHS)
def test_class_lookup_matches_sweep(kind, n):
    """The class of every mask by the int lookup against the sweep and the
    numpy oracle, up to numbering (the sweep numbers the classes by their
    keys, the oracle by its compact keys, `graphs` in the order it lists
    them), and against the oracle renumbered by `_renumber`; the class
    sizes, by the lookup and the oracle's, the vertex sequence and the
    vertex count; each matrix at n <= 4,
    and 20,000 seeded ones at n = 5, through `_vertex_class`, which
    refuses exactly the sweep's non-vertices."""
    import numpy as np
    g, oracle = _built(kind, n), graph_oracle.partition(kind, n)
    want = _sweep(kind, n)
    masks = np.arange(len(want))
    got = np.array([g._class(m) for m in range(len(want))])
    assert _same_partition(got, want) and _same_partition(got, oracle.classes(masks))
    assert not _same_partition(got, np.where(want == 0, 1, want))  # classes 0 and 1 merged
    perm = np.append(_renumber(kind, n), -1)  # oracle class -1 is -1
    assert np.array_equal(got, perm[oracle.classes(masks)])
    assert g._class_sizes == np.bincount(got[got >= 0]).tolist()
    assert [g._class_sizes[c] for c in perm[:-1]] == oracle.sizes
    assert g.vertices.masks == np.flatnonzero(want >= 0).tolist()
    assert g.num_vertices == len(g.vertices)
    picks = range(len(want)) if n <= 4 else random.Random(53).sample(range(len(want)), 20000)
    for m in picks:
        a = from_offdiag_mask(n, m)
        if want[m] < 0:
            with pytest.raises(ValueError, match="not a vertex"):
                g._vertex_class(a)
            with pytest.raises(ValueError, match="not a vertex"):
                _has_loop(g, a)
        else:
            assert g._vertex_class(a) == _class_of(g, a) == got[m]


def _orbit_sets(labels, rename=lambda c: c):
    """The orbits that a labelling of the classes makes, as sets of
    classes renamed by `rename`."""
    orbits = {}
    for c, label in enumerate(labels):
        orbits.setdefault(label, set()).add(rename(c))
    return {frozenset(orbit) for orbit in orbits.values()}


@pytest.mark.parametrize("kind,n", SWEEP_GRAPHS)
def test_node_sets_match_partition(kind, n):
    """The two stages agree: every mask's left and right nodes from the
    build's tables (`_ends`) are its class's lnode and rnode in the
    partition, and they are (0, 0), which `_vertex_nodes` refuses, exactly
    where `_class` gives -1; every mask at n <= 4, 2,000 seeded ones at
    n = 5.  The partition's lnode, rnode and rhas, its class bits
    renumbered, equal the numpy oracle's, whose class c is class perm[c]
    here (`_renumber`).  (ORTHO's rnode and rhas are its rows, checked
    against `naive_odot` and numpy meet sets elsewhere.)"""
    g, oracle, perm = _built(kind, n), graph_oracle.partition(kind, n), _renumber(kind, n)
    nodes, size = g._nodes, 1 << (n * n - n)
    assert [nodes.lnode(c) for c in perm] == oracle.lnode
    if kind != ORTHO:
        assert [nodes.rnode[c] for c in perm] == oracle.rnode
        assert nodes.rhas == [sum(1 << perm[c] for c in _set_bits(x)) for x in oracle.rhas]
    picks = range(size) if n <= 4 else random.Random(58).sample(range(size), 2000)
    for m in picks:
        c = g._class(m)
        if c >= 0:
            assert g._ends(m) == (nodes.lnode(c), nodes.rnode[c]), (kind, n, m)
        else:
            assert g._ends(m) == (0, 0), (kind, n, m)
            with pytest.raises(ValueError, match="not a vertex"):
                g._vertex_nodes(from_offdiag_mask(n, m))


@pytest.mark.parametrize("kind,n", [(ORTHO, 4), (VNL, 5), (WNL, 5)])
def test_dist_leaves_partition_unmade(kind, n):
    """`dist` reads only the build's tables: after queries between seeded
    vertices, within one vertex and refused at the all-zero matrix, none
    of the partition's fields is made.  `stats` then makes them all and
    equals `stats` of a fresh build."""
    g, fields = build(kind, n), set(graphs.OrthoGraph._PARTITION)
    verts = _built(kind, n).vertices
    rng = random.Random(59)
    for _ in range(40):
        a, b = verts[rng.randrange(len(verts))], verts[rng.randrange(len(verts))]
        assert dist(g, a, b) == dist(g, b, a) >= (a != b)
        assert dist(g, a, a) == 0
    with pytest.raises(ValueError, match="not a vertex"):
        dist(g, all_zero(n), a)
    assert not fields & vars(g).keys()
    assert stats(g) == stats(build(kind, n))
    assert fields <= vars(g).keys()


@pytest.mark.parametrize("kind,n", SWEEP_GRAPHS)
def test_all_zero_matrix_refused(kind, n):
    """The all-zero matrix is no vertex, at either end of `dist`; another
    mask of its pair of half classes (the numpy oracle's) is a vertex
    whenever the sweep says so.  Every off-diagonal slot lies in some
    pattern, so at these orders each full half mask is alone in its half
    class and the all-zero matrix alone in its pair, the pair that
    `graphs._wnl_classes` leaves out."""
    import numpy as np
    g, oracle = _built(kind, n), graph_oracle.partition(kind, n)
    z, v = all_zero(n), g.vertices[0]
    for call in (g._vertex_class, lambda a: _has_loop(g, a),
                 lambda a: dist(g, a, v), lambda a: dist(g, v, a)):
        with pytest.raises(ValueError, match="not a vertex"):
            call(z)
    h = (n * n - n) // 2
    full, low = to_offdiag_mask(z), (1 << h) - 1
    assert (oracle.hi == oracle.hi[-1]).sum() == (oracle.lo == oracle.lo[-1]).sum() == 1
    masks = np.arange(full)
    pair = masks[(oracle.hi[masks >> h] == oracle.hi[full >> h])
                 & (oracle.lo[masks & low] == oracle.lo[full & low])]
    assert [g._class(m) >= 0 for m in pair.tolist()] == (_sweep(kind, n)[pair] >= 0).tolist()


def _filling_count(n, rows, cols):
    """The masks whose all-zero rows are exactly `rows` and all-zero
    columns exactly `cols` (bitsets over 0..n-1), counted over every
    filling of the other off-diagonal cells."""
    free = [(p, q) for p in range(n) for q in range(n)
            if p != q and not rows >> p & 1 and not cols >> q & 1]
    lines = [sum(1 << i for i, (p, q) in enumerate(free) if (p, q)[axis] == x)
             for axis, line_set in ((0, rows), (1, cols)) for x in range(n) if not line_set >> x & 1]
    # a filling's set bits are its zeros: no free line may be all zero
    return sum(all(z & line != line for line in lines) for z in range(1 << len(free)))


@pytest.mark.parametrize("n,classes", [(2, 2), (3, 18), (4, 140), (5, 750),
                                       (6, 3472), (7, 14994), (8, 62484)])
def test_vnl_classes_by_zero_rows_and_columns(n, classes):
    """The VNL classes listed by (R, C), their all-zero rows and columns
    (`graphs._vnl_classes`): 2, 18, 140 and 750 at n = 2..5, the classes of
    the built graphs, whose sizes equal the numpy oracle's
    (`test_partition_matches_numpy_oracle`); 3,472, 14,994 and 62,484 at
    n = 6..8, past the build guard, which stays at 5.  Each class's left
    nodes are R x C and its right nodes C x R, with some p in R and q in
    C where p != q, R not every row; its orbit key is ({|R|, |C|},
    |R & C|); and its size, by Möbius inversion, equals a count over the
    fillings of its free cells where there are at most 8 of them."""
    assert graphs.PATTERN_BUILD_GUARD == 5
    lnodes, rnodes, sizes, keys = graphs._vnl_classes(n)
    assert len(lnodes) == len(set(lnodes)) == len(rnodes) == len(sizes) == len(keys) == classes
    full, small = (1 << n) - 1, []
    for left, right, size, key in zip(lnodes, rnodes, sizes, keys):
        fields = [left >> p * n & full for p in range(n)]
        rows = sum(1 << p for p, f in enumerate(fields) if f)
        cols = max(fields)
        assert all(f in (0, cols) for f in fields) and rows != full
        assert right == sum(rows << q * n for q in range(n) if cols >> q & 1)
        assert any(p != q for p in _set_bits(rows) for q in _set_bits(cols))
        ones = sorted((rows.bit_count(), cols.bit_count()))
        assert key == (*ones, (rows & cols).bit_count())
        assert size > 0
        free = (n - rows.bit_count()) * (n - cols.bit_count()) - (n - (rows | cols).bit_count())
        if free <= 8:
            small.append((rows, cols, size))
    # every such class at n <= 6, 300 seeded ones at n = 7, 8
    picked = small if len(small) <= 300 else random.Random(61).sample(small, 300)
    assert len(picked) >= min(classes, 100), len(picked)
    for rows, cols, size in picked:
        assert size == _filling_count(n, rows, cols), (n, rows, cols)


def test_vnl5_build_memory():
    """A VNL n=5 build peaks below the size of one int64 array over its
    2^20 masks (8 MiB): it builds no array over the masks."""
    import tracemalloc
    tracemalloc.start()
    try:
        build(VNL, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_wnl5_build_memory():
    """A WNL n=5 build peaks below 10 MiB, six int64 arrays over its
    222,784 pairs of half classes: one key array and one buffer over the
    pairs, and the sort's arrays over the vertex pairs only."""
    import tracemalloc
    tracemalloc.start()
    try:
        build(WNL, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


# -- orbit-reduced stats ------------------------------------------------------


def _set_bits(x):
    """Indices of the set bits of x, read off its binary digits."""
    return [i for i, digit in enumerate(reversed(bin(x))) if digit == "1"]


def _class_dists(adj, start):
    """Distance from class `start` to every class by a plain top-down BFS,
    each layer the OR of the rows of the one before: the reference for
    the layer step and for `dist`."""
    dists = [math.inf] * len(adj)
    dists[start] = 0
    seen, frontier, layer = 1 << start, [start], 0
    while frontier:
        layer += 1
        reach = 0
        for c in frontier:
            reach |= adj[c]
        frontier = _set_bits(reach & ~seen)
        seen |= reach
        for c in frontier:
            dists[c] = layer
    return dists


def _same_class_dist(row, c):
    """Distance between two members of class c, whose adjacency row is
    row: 1 on its self bit, 2 through another neighbour, else unreachable."""
    if row >> c & 1:
        return 1
    return 2 if row & ~(1 << c) else math.inf


@functools.lru_cache(maxsize=None)
def _class_eccentricities(kind, n):
    """The farthest class from every class, by a plain BFS out of each."""
    adj = _rows(_built(kind, n))
    return [max(_class_dists(adj, c)) for c in range(len(adj))]


@functools.lru_cache(maxsize=None)
def _all_sources_eccentricities(kind, n):
    """Eccentricity of every class, from a BFS out of every class: the
    unreduced loop that `stats` runs once per orbit."""
    g = _built(kind, n)
    adj = _rows(g)
    return [
        max(ecc, _same_class_dist(adj[c], c) if size >= 2 else 0)
        for c, (ecc, size) in enumerate(zip(_class_eccentricities(kind, n), g._class_sizes))
    ]


SMALL_GRAPHS = [(kind, n) for kind in (ORTHO, VNL, WNL) for n in (2, 3, 4)]


@pytest.mark.parametrize("kind,n", SMALL_GRAPHS)
def test_stats_matches_all_sources_eccentricity(kind, n):
    s = stats(_built(kind, n))
    diam = max(_all_sources_eccentricities(kind, n))
    assert (s["diameter"], s["connected"]) == (diam, diam < math.inf)


def _coatom_masks(n):
    """The n(n-1) masks with exactly one -1 off-diagonal cell."""
    full = (1 << n * n - n) - 1
    return [full ^ 1 << s for s in range(n * n - n)]


def _hubs(g):
    """Bitset of the classes of the co-atoms, one mask at a time."""
    return sum({1 << g._class(m) for m in _coatom_masks(g.n)})


# the eccentricities the classes of each graph reach
ECC_REACHED = {
    (ORTHO, 2): {1}, (ORTHO, 3): {2, 3}, (ORTHO, 4): {2, 3},
    (VNL, 2): {1}, (VNL, 3): {2}, (VNL, 4): {2}, (VNL, 5): {2},
    (WNL, 2): {math.inf}, (WNL, 3): {2, 3}, (WNL, 4): {2}, (WNL, 5): {2},
}


# the classes whose eccentricity `_eccentricity` leaves to `_ecc`, of every
# class at n <= 4 and of the seeded ones at n = 5
ECC_FALLBACKS = {(ORTHO, 2): 2, (VNL, 2): 2, (WNL, 2): 1}


@pytest.mark.parametrize("kind,n", ECC_REACHED)
def test_ecc_matches_class_dists(kind, n, monkeypatch):
    """The eccentricity read off the co-atom and minimal classes
    (`_eccentricity`) and the co-atom ball's (`_ecc`, which grows the
    whole ball) against the plain BFS: every class at n <= 4, seeded
    classes at n = 5; the classes reach every eccentricity in
    ECC_REACHED.  Only at n = 2 is a class's own minimal class the one
    missing from the ball, so that `_eccentricity` falls back to `_ecc`;
    ORTHO and VNL n = 2 are two adjacent classes, each minimal, of
    diameter 1, which the ball less the root would read as 2."""
    g = _built(kind, n)
    adj, hubs = _rows(g), _hubs(g)
    k = len(adj)
    ecc, fell, plain = graphs._eccentricity(g), [], graphs._ecc
    monkeypatch.setattr(graphs, "_ecc", lambda nodes, k, a, *rest: fell.append(a) or plain(nodes, k, a, *rest))
    got = set()
    for a in range(k) if n <= 4 else random.Random(53).sample(range(k), 12):
        want = _class_eccentricities(kind, n)[a] if n <= 4 else max(_class_dists(adj, a))
        assert ecc(a) == plain(g._nodes, k, a, adj[a] & ~(1 << a), hubs) == want, (kind, n, a)
        got.add(want)
    assert got == ECC_REACHED[kind, n]
    assert len(fell) == ECC_FALLBACKS.get((kind, n), 0), (kind, n, fell)
    if (kind, n) in ((ORTHO, 2), (VNL, 2)):
        monkeypatch.setattr(graphs, "_ecc", lambda *args: "fallback")
        assert [ecc(a) for a in range(k)] == ["fallback"] * k
        monkeypatch.setattr(graphs, "_ecc", plain)
        assert stats(build(kind, n))["diameter"] == 1


@pytest.mark.parametrize("kind,n", [(VNL, 3), (VNL, 4), (WNL, 4)])
def test_stats_diameter_takes_self_distance(kind, n, monkeypatch):
    """With every class eccentricity read as 0, the diameter `stats`
    reports is the greatest distance between two members of one class:
    the ball distance from a class to itself over the classes of two or
    more members (2 at these orders; the graph is built afresh, as `stats`
    caches)."""
    g = build(kind, n)
    nodes, sizes = g._nodes, g._class_sizes
    want = max(graphs._ball_dist(nodes.lnode(a), nodes.rnode[a], nodes.grow)
               for a in range(len(sizes)) if sizes[a] >= 2)
    monkeypatch.setattr(graphs, "_eccentricity", lambda g: lambda a: 0)
    assert stats(g)["diameter"] == want == 2
    # the other two values of the same-class term, on fresh graphs: every
    # class self-adjacent gives 1, no class adjacent to any gives INFINITY
    monkeypatch.setattr(graphs._Nodes, "loop", lambda self, c: True)
    assert stats(build(kind, n))["diameter"] == 1
    monkeypatch.setattr(graphs._Nodes, "loop", lambda self, c: False)
    monkeypatch.setattr(graphs._Nodes, "reach", lambda self, c: 1 << c)
    assert stats(build(kind, n))["diameter"] == math.inf


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_coatoms_are_vertices(n):
    for kind in (ORTHO, VNL, WNL):
        for m in _coatom_masks(n):
            assert graphs._is_vertex(kind, from_offdiag_mask(n, m)), (kind, n, m)


@pytest.mark.parametrize("kind,n", SMALL_GRAPHS + [(VNL, 5), (WNL, 5)])
def test_rows_below_coatom_rows(kind, n):
    """Adjacency is monotone in the zeros: each class's row lies inside the
    row of the co-atom class above each of its members, for every class
    at n <= 4 and seeded classes at n = 5, 40 members each."""
    g = _built(kind, n)
    adj, coatoms = _rows(g), _coatom_masks(n)
    masks, classes = g.vertices.masks, _vertex_classes(g)
    members = {}
    for m, c in zip(masks, classes):
        members.setdefault(c, []).append(m)
    picked = range(len(adj)) if n <= 4 else random.Random(54).sample(range(len(adj)), 30)
    rng = random.Random(55)
    for c in picked:
        for m in members[c] if n <= 4 else rng.sample(members[c], min(40, len(members[c]))):
            for up in coatoms:
                if up | m == up:
                    assert adj[c] & ~adj[int(g._class(up))] == 0, (kind, n, c, m, up)


@pytest.mark.parametrize("kind", (ORTHO, VNL, WNL))
def test_adjacent_monotone_in_zeros(kind):
    """The lemma on the edge predicate itself: when a is adjacent to b, so
    is every vertex with the zeros of a and one more, on seeded pairs at
    n = 4."""
    n, rng = 4, random.Random(56)
    verts = _built(kind, n).vertices
    edges = 0
    for _ in range(300):
        a, b = verts[rng.randrange(len(verts))], verts[rng.randrange(len(verts))]
        if adjacent(kind, a, b):
            edges += 1
            m = to_offdiag_mask(a)
            for s in range(n * n - n):
                up = from_offdiag_mask(n, m | 1 << s)
                if graphs._is_vertex(kind, up):
                    assert adjacent(kind, up, b), (kind, a, b, s)
    assert edges >= 20, edges


@pytest.mark.parametrize("kind,n,reached", [
    (WNL, 2, {1, math.inf}), (ORTHO, 4, {1, 2, 3}), (VNL, 5, {1, 2}),
    (WNL, 4, {1, 2}), (WNL, 5, {1, 2}), (VNL, 3, {1, 2}), (VNL, 4, {1, 2}),
    (WNL, 3, {1, 2, 3}), (ORTHO, 2, {1}), (ORTHO, 3, {1, 2, 3}),
])
def test_dist_matches_top_down_bfs(kind, n, reached):
    """`dist` in both orders against the plain BFS, on every pair of
    vertices in different classes at n <= 3, else on seeded sources with
    seeded targets each; the pairs reach every distance in `reached`."""
    g = _built(kind, n)
    verts, class_of = g.vertices, _vertex_classes(g)
    rng = random.Random(46)
    k = g.num_vertices
    got = set()
    for i in range(k) if n <= 3 else rng.sample(range(k), 6):
        dists = _class_dists(_rows(g), class_of[i])
        for j in range(k) if n <= 3 else rng.sample(range(k), 60):
            if class_of[i] != class_of[j]:
                want = dists[class_of[j]]
                assert dist(g, verts[i], verts[j]) == want, (kind, n, i, j)
                assert dist(g, verts[j], verts[i]) == want, (kind, n, j, i)
                got.add(want)
    assert got == reached


@pytest.mark.parametrize("kind", (VNL, WNL, ORTHO))
def test_node_meet_matches_rows(kind):
    """`reach(a)` holds the classes b with lnode(a) & rnode[b], the
    definition of class adjacency: every class below the largest order
    and seeded classes at it (n = 5, or 4 for ORTHO)."""
    top = 4 if kind == ORTHO else 5
    rng = random.Random(49)
    for n in range(2, top + 1):
        nodes = _built(kind, n)._nodes
        k = len(nodes.rnode)
        for a in range(k) if n < top else rng.sample(range(k), 40):
            row = sum(1 << b for b, rb in enumerate(nodes.rnode) if nodes.lnode(a) & rb)
            assert nodes.reach(a) == row, (kind, n, a)


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in (VNL, WNL) for n in (3, 4)] + [
    (ORTHO, n) for n in (2, 3, 4)
])
def test_node_step_grows_ball(kind, n):
    """d steps from lnode(a), each ORing in grow[x] for every x, give the
    left nodes of the ball of radius d around a, by the plain BFS over the
    rows, up to one step past the ball's last growth."""
    g = _built(kind, n)
    nodes, rows = g._nodes, _rows(g)
    rng = random.Random(50)
    for a in rng.sample(range(len(rows)), min(20, len(rows))):
        dists = _class_dists(rows, a)
        x = nodes.lnode(a)
        for d in range(max(v for v in dists if v < math.inf) + 2):
            want = 0
            for c, dc in enumerate(dists):
                if dc <= d:
                    want |= nodes.lnode(c)
            assert x == want, (kind, n, a, d)
            x |= _row_union(x, nodes.grow)


def _spy(g):
    """A copy of a shared graph, without its stats, whose `lnode` records
    each class it is passed in the returned set."""
    nodes, seen = g._nodes, set()

    def lnode(c):
        seen.add(c)
        return nodes.lnode(c)

    spy = copy.copy(g)
    spy._nodes = graphs._Nodes(lnode, nodes.rnode, nodes.rhas, nodes.grow)
    spy._stats = None
    return spy, seen


@pytest.mark.parametrize("kind", (VNL, WNL))
def test_dist_builds_no_rows(kind):
    """`dist` and the loop test on a pattern graph work in node space: no
    query, in different classes or in one, passes `lnode` any class, as
    `dist` reads its node sets from the half tables, and the loop test
    passes it only the vertex's class."""
    g, seen = _spy(_built(kind, 5))
    verts, class_of = g.vertices, _vertex_classes(g)
    rng = random.Random(51)
    first = {}
    for i, c in enumerate(class_of):
        first.setdefault(c, i)
    got = set()
    for _ in range(100):
        i, j = rng.randrange(len(verts)), rng.randrange(len(verts))
        for b in (j, first[class_of[i]]):
            seen.clear()
            got.add(dist(g, verts[i], verts[b]))
            assert not seen, (kind, i, b, seen)
        seen.clear()
        _has_loop(g, verts[i])
        assert seen == {class_of[i]}
    assert {1, 2} <= got


@pytest.mark.parametrize("kind,n,touched,extra", [
    (ORTHO, 4, 154, 1), (VNL, 3, 10, 2), (VNL, 5, 37, 0), (WNL, 4, 41, 1), (WNL, 5, 126, 0),
])
def test_stats_reads_orbit_representatives_and_hubs(kind, n, touched, extra):
    """`stats` passes `lnode` only orbit representatives, co-atom classes
    and the neighbours of representatives that the three-class triangle
    search visits before its first hit: `touched` classes in all, `extra`
    of the last kind."""
    g, seen = _spy(_built(kind, n))
    assert stats(g) == stats(_built(kind, n))
    reps = set(graphs._class_orbits(g))
    others = seen - reps - set(_set_bits(_hubs(g)))
    assert (len(seen), len(others)) == (touched, extra), (kind, n, len(seen), others)
    assert all(any(_rows(g)[a] >> c & 1 for a in reps) for c in others), others


@pytest.mark.parametrize("kind,n,reached", [
    pytest.param(WNL, 4, {2}, id="4-reached0"), pytest.param(WNL, 5, {1, 2}, id="5-reached1"),
    (VNL, 4, {1, 2}), (VNL, 5, {1, 2}),
])
def test_same_class_dist_matches_adjacent(kind, n, reached):
    """Two members of one VNL or WNL class are at distance 1 when the edge
    predicate joins them and else 2 (the graph is connected): each member,
    seeded ones at n = 5, against the first member of its class.  No WNL
    class of several members has a loop at n = 4."""
    g = _built(kind, n)
    verts, class_of = g.vertices, _vertex_classes(g)
    first = {}
    for i, c in enumerate(class_of):
        first.setdefault(c, i)
    members = range(len(verts)) if n == 4 else random.Random(52).sample(range(len(verts)), 3000)
    got = set()
    for i in members:
        j = first[class_of[i]]
        if i != j:
            a, b = verts[i], verts[j]
            want = 1 if adjacent(kind, a, b) else 2
            assert dist(g, a, b) == dist(g, b, a) == want, (kind, n, i, j)
            got.add(want)
    assert got == reached


@pytest.mark.parametrize("kind,n,orbits", [
    (ORTHO, 4, 142), (VNL, 5, 18), (WNL, 4, 29), (WNL, 5, 107),
])
def test_orbit_counts(kind, n, orbits):
    assert len(set(graphs._class_orbits(_built(kind, n)))) == orbits


@pytest.mark.parametrize("kind,n", SMALL_GRAPHS)
def test_orbit_classes_alike(kind, n):
    # conjugation and the transpose are automorphisms: the classes of one
    # orbit have one size, one eccentricity, one loop flag and one
    # size-weighted degree
    g = _built(kind, n)
    adj, sizes = _rows(g), g._class_sizes
    ecc = _all_sources_eccentricities(kind, n)
    degree = [sum(sizes[b] for b in _set_bits(row)) for row in adj]
    for c, root in enumerate(graphs._class_orbits(g)):
        assert root <= c
        assert sizes[c] == sizes[root], (kind, n, c)
        assert ecc[c] == ecc[root], (kind, n, c)
        assert adj[c] >> c & 1 == adj[root] >> root & 1, (kind, n, c)
        assert degree[c] == degree[root], (kind, n, c)


def _bfs_girth(others, roots):
    """Girth of a simple graph given as bitset rows without self bits, by
    a breadth-first search from each root with no early stop: the girth
    when the roots are every vertex."""
    best = math.inf
    for root in roots:
        dist, parent, frontier = {root: 0}, {root: -1}, [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in _set_bits(others[x]):
                    if y not in dist:
                        dist[y], parent[y] = dist[x] + 1, x
                        nxt.append(y)
                    elif y != parent[x]:
                        best = min(best, dist[x] + dist[y] + 1)
            frontier = nxt
    return best


def _all_class_girth(g):
    """Girth by the tests `stats` ran over every class before it ran them
    from the orbit representatives only."""
    adj, sizes = _rows(g), g._class_sizes
    k = len(sizes)
    others = [adj[c] & ~(1 << c) for c in range(k)]
    # a triangle inside a class, or through two members and another class
    for a in range(k):
        if adj[a] >> a & 1 and (sizes[a] >= 3 or (sizes[a] >= 2 and others[a])):
            return 3
    # a triangle through three classes
    for a in range(k):
        if any(b > a and others[a] & others[b] for b in _set_bits(others[a])):
            return 3
    # a 4-cycle through two members of a class and two neighbouring vertices
    for a in range(k):
        deg = others[a].bit_count()
        if sizes[a] >= 2 and (deg >= 2 or (deg == 1 and sizes[others[a].bit_length() - 1] >= 2)):
            return 4
    return _bfs_girth(others, range(k))


@pytest.mark.parametrize("kind,n", SMALL_GRAPHS + [(VNL, 5), (WNL, 5)])
def test_stats_girth_matches_all_classes(kind, n):
    assert stats(_built(kind, n))["girth"] == _all_class_girth(_built(kind, n))


def _graph_rows(k, edges):
    """Bitset rows of the simple graph on 0..k-1 with the given edges."""
    rows = [0] * k
    for x, y in edges:
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    return rows


SIMPLE_GRAPHS = {
    "petersen": (10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)], 5),
    "c7": (7, [(i, (i + 1) % 7) for i in range(7)], 7),
    "k33": (6, [(i, j) for i in range(3) for j in range(3, 6)], 4),
    "tree": (7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)], math.inf),
}


@pytest.mark.parametrize("name", SIMPLE_GRAPHS)
def test_simple_girth_from_one_root(name):
    """On a vertex-transitive graph every vertex lies on a shortest cycle,
    so the search from root 0 alone gives the girth of the search from
    every root; a tree has none from any root."""
    k, edges, want = SIMPLE_GRAPHS[name]
    rows = _graph_rows(k, edges)
    assert _bfs_girth(rows, range(k)) == want
    assert graphs._simple_girth(rows.__getitem__, [0]) == want
    assert graphs._simple_girth(rows.__getitem__, range(k)) == want


def test_simple_girth_matches_bfs_on_random_graphs():
    """The layered search against the per-vertex BFS on seeded random
    graphs of up to 14 vertices, sparse to dense, from every root and
    from one random root."""
    rng = random.Random(57)
    seen = set()
    for _ in range(400):
        k = rng.randint(1, 14)
        density = rng.choice((0.1, 0.2, 0.35, 0.6))
        rows = _graph_rows(k, [e for e in itertools.combinations(range(k), 2)
                               if rng.random() < density])
        want = _bfs_girth(rows, range(k))
        assert graphs._simple_girth(rows.__getitem__, range(k)) == want, rows
        root = rng.randrange(k)
        assert graphs._simple_girth(rows.__getitem__, [root]) == _bfs_girth(rows, [root]), rows
        seen.add(want)
    assert seen >= {3, 4, 5, 6, math.inf}, seen


def _blow_up(rows, sizes):
    """Bitset rows, without self bits, of the vertex graph a class graph
    stands for: class c holds sizes[c] vertices, and two vertices are
    adjacent iff their classes' row has the other's bit (within one
    class, its self bit)."""
    first = list(itertools.accumulate(sizes, initial=0))
    members = [sum(1 << v for v in range(first[c], first[c + 1])) for c in range(len(sizes))]
    return [sum(members[b] for b in _set_bits(rows[c])) & ~(1 << v)
            for c in range(len(sizes)) for v in range(first[c], first[c + 1])]


# class graphs built by hand as (edges, self-adjacent classes, sizes), by
# the girth and the test of `stats` that decides it
HAND_CLASS_GRAPHS = {
    "3-inside-a-class": ([], [0], [3], 3),
    "3-two-members-and-a-neighbour": ([(0, 1)], [0], [2, 1], 3),
    "3-three-classes": ([(0, 1), (1, 2), (0, 2)], [], [1, 1, 1], 3),
    "4-two-members-one-class-of-two": ([(0, 1)], [], [2, 2], 4),
    "4-two-members-two-classes": ([(0, 1), (0, 2), (2, 3)], [3], [2, 1, 1, 1], 4),
    "4-cycle-of-singletons": ([(i, (i + 1) % 4) for i in range(4)], [], [1] * 4, 4),
    "5-cycle": ([(i, (i + 1) % 5) for i in range(5)], [1], [1] * 5, 5),
    # a neighbour of a self-adjacent pair would close a triangle with it, so
    # the pair is a path on its own, beside a path forking into a pair
    "inf-forest-with-a-self-adjacent-pair": ([(0, 1), (1, 2)], [0, 3], [1, 1, 2, 2], math.inf),
}


@pytest.mark.parametrize("name", HAND_CLASS_GRAPHS)
def test_stats_girth_matches_blown_up_graph(name, monkeypatch):
    """`stats`' girth of a class graph built by hand, a `_Nodes` over
    explicit rows as ORTHO's is, against the BFS girth of the vertex graph
    it blows up to.  Every class is its own orbit and a co-atom class."""
    edges, loops, sizes, want = HAND_CLASS_GRAPHS[name]
    k = len(sizes)
    rows = _graph_rows(k, edges)
    for c in loops:
        rows[c] |= 1 << c
    vertex_rows = _blow_up(rows, sizes)
    assert _bfs_girth(vertex_rows, range(len(vertex_rows))) == want
    monkeypatch.setattr(graphs, "_class_orbits", lambda g: list(range(k)))
    g = types.SimpleNamespace(
        kind="hand", n=4, num_vertices=sum(sizes), _class_sizes=sizes, _stats=None,
        _nodes=graphs._Nodes((1).__lshift__, rows, rows, rows),
        # the co-atoms of n = 4, one per slot s, onto class (s + 1) % k, so every class at k <= 12
        _class=lambda m: (m ^ 4095).bit_length() % k,
    )
    assert stats(g)["girth"] == want


def _slot_orbits(kind, n):
    """Reference for `graphs._class_orbits` on the sweep's classes: one
    member of every class is mapped through the generators as
    permutations of the off-diagonal slots, bit by bit, and a union-find
    joins the classes."""
    import numpy as np
    classes = _sweep(kind, n)
    masks = np.flatnonzero(classes >= 0)
    _, first = np.unique(classes[masks], return_index=True)
    members = masks[first]
    parent = list(range(len(first)))

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for perm in slot_generators(n):
        img = np.zeros_like(members)
        for s, t in enumerate(perm):
            img |= ((members >> s) & 1) << t
        assert (classes[img] >= 0).all()
        for a, b in enumerate(classes[img].tolist()):
            a, b = root(a), root(b)
            parent[max(a, b)] = min(a, b)
    return [root(c) for c in range(len(parent))]


@pytest.mark.parametrize("kind,n", [(ORTHO, n) for n in (2, 3, 4)] + [
    (kind, n) for kind in (VNL, WNL) for n in (2, 3, 4, 5)
])
def test_class_orbits_match_slot_permutations(kind, n):
    """The orbits of `graphs._class_orbits`, as sets of classes, against
    the union-find's over the sweep's classes, each sweep class renamed as
    the class of its least member, and against the numpy oracle's
    (`_renumber`); each orbit is labelled by its least class."""
    import numpy as np
    g, classes = _built(kind, n), _sweep(kind, n)
    masks = np.flatnonzero(classes >= 0)
    _, first = np.unique(classes[masks], return_index=True)
    rename = [g._class(m) for m in masks[first].tolist()]
    label = graphs._class_orbits(g)
    orbits = _orbit_sets(label)
    assert orbits == _orbit_sets(_slot_orbits(kind, n), rename.__getitem__)
    assert orbits == _orbit_sets(graph_oracle.partition(kind, n).orbits, _renumber(kind, n).__getitem__)
    assert all(label[c] == min(orbit) for orbit in orbits for c in orbit)


# -- vertices decoded on demand ------------------------------------------------


@pytest.mark.parametrize("kind", (ORTHO, VNL, WNL))
def test_vertex_sequence(kind):
    n = 3
    g = _built(kind, n)
    want = [a for a in all_normal_matrices(n) if graphs._is_vertex(kind, a)]
    verts = g.vertices
    assert len(verts) == g.num_vertices == len(want)
    assert list(verts) == want
    assert [verts[i] for i in range(len(want))] == want
    assert verts[-1] == want[-1] and verts[-len(want)] == want[0]
    assert verts[3:11:2] == want[3:11:2] and verts[::-1] == want[::-1]
    with pytest.raises(IndexError):
        verts[len(want)]


def test_non_vertex_rejected():
    for n in (3, 4):
        g = _built(ORTHO, n)
        for a in (identity(n), all_zero(n)):
            with pytest.raises(ValueError, match="not a vertex"):
                g._vertex_class(a)
    for kind, n in ((VNL, 3), (VNL, 5), (WNL, 3), (WNL, 5)):
        g = _built(kind, n)
        # the identity and U(1,2) carry no pattern; the all-zero matrix is excluded
        for a in (identity(n), make_elementary("U", n, 1, 2), all_zero(n)):
            with pytest.raises(ValueError, match="not a vertex"):
                g._vertex_class(a)
    with pytest.raises(ValueError, match="order"):
        _built(VNL, 3)._vertex_class(identity(4))


def test_ortho4_adjacency_matches_naive_odot():
    g = _built(ORTHO, 4)
    z = all_zero(4)
    rng = random.Random(45)
    for _ in range(5000):
        i, j = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
        a, b = g.vertices[i], g.vertices[j]
        want = naive_odot(a, b) == z and naive_odot(b, a) == z
        assert bool(_rows(g)[i] >> j & 1) == want, (i, j)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_ortho_rows_built_on_read(n):
    """ORTHO's rows are one sequence of the class count, none built by the
    build; a read builds one row, a negative index reads from the end, and
    past the last class raises IndexError, which ends an enumeration."""
    g = build(ORTHO, n)
    rows, k = g._nodes.rhas, len(g._class_sizes)
    assert g._nodes.rnode is rows is g._nodes.grow
    assert len(rows) == k == 2 ** (n * n - n) - 2
    assert rows.built == [None] * k
    with pytest.raises(IndexError):
        rows[k]
    assert rows[-1] == rows[k - 1] == _rows(_built(ORTHO, n))[k - 1]
    assert sum(r is not None for r in rows.built) == 1
    assert len(list(rows)) == k


@pytest.mark.parametrize("n,read", [(2, 2), (3, 17), (4, 154)])
def test_ortho_stats_builds_rows_it_reads(n, read):
    """`stats` builds only the rows it reads: the orbit representatives,
    the co-atom classes and the first neighbour the girth tests visit
    (`test_stats_reads_orbit_representatives_and_hubs`)."""
    g = build(ORTHO, n)
    assert stats(g) == stats(_built(ORTHO, n))
    assert sum(r is not None for r in g._nodes.rhas.built) == read


@pytest.mark.parametrize("n", (2, 3, 4))
def test_ortho_rows_match_numpy_meet_sets(n):
    """Every row, enumerated, is the AND of the meet sets defined here over
    its vertex's rows and columns: bit c of cols_meet[r] (rows_meet[r])
    says every column (row) of class c's vertex meets r."""
    import numpy as np
    vrows = np.array([offdiag_rows(n, m) for m in range(1, 2 ** (n * n - n) - 1)])
    vcols = np.array([_cols(r) for r in vrows.tolist()])
    cols_meet = [graph_oracle.to_bits(((vcols & r) != 0).all(axis=1)) for r in range(1 << n)]
    rows_meet = [graph_oracle.to_bits(((vrows & r) != 0).all(axis=1)) for r in range(1 << n)]
    rows = build(ORTHO, n)._nodes.rhas
    want = [functools.reduce(operator.and_, [cols_meet[r] for r in vr] + [rows_meet[c] for c in vc])
            for vr, vc in zip(vrows.tolist(), vcols.tolist())]
    assert list(rows) == want


def test_graphs_import_leaves_numpy_unloaded():
    # no graph loads numpy: not the import, the builds, the stats with
    # their class partitions, nor a dist
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys; from tropnorm.graphs import build, dist, stats\n"
             "for kind, n in (('ortho', 3), ('vnl', 4), ('wnl', 4)):\n"
             "    g = build(kind, n); stats(g); dist(g, g.vertices[0], g.vertices[-1])\n"
             "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr
