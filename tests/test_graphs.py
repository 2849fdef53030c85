import functools
import itertools
import math
import random

import pytest

from conftest import atom_zeros, rand_normal, slot_generators
from tropnorm import fixtures, graphs
from tropnorm.core import (
    NormalMatrix,
    all_normal_matrices,
    all_zero,
    from_offdiag_mask,
    identity,
    make_elementary,
    naive_odot,
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
    has_loop,
    stats,
)
from tropnorm.ortho import is_orthogonal

# graphs shared by several tests; no test changes a graph
_built = functools.lru_cache(maxsize=None)(build)


def _class_of(g, a):
    """Class of the vertex a, through the graph's class lookup."""
    return int(g._class(to_offdiag_mask(a)))


def _vertex_classes(g):
    """Class of every vertex, in vertex order, through the class lookup."""
    return g._class(g.vertices.masks).tolist()

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
        assert has_loop(g, a) == is_orthogonal(a, a)


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
            assert has_loop(g, a) == loops[i]
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
            assert bool(g._rows()[ca] >> cb & 1) == got, (kind, n, a, b)
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
        assert _is_symmetric(_built(kind, n)._rows()), (kind, n)
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
    """The half tables: per pattern list, a half class has bit 2s set iff
    its half masks contain that half of pattern s; the half classes are
    the half masks of equal signatures, their sizes count them, and each
    has its least half mask.  For every mask, the AND of its two halves'
    signatures is its own."""
    h = (n * n - n) // 2
    vnl = graphs._vnl_patterns(n)
    w, wzo, wzz = graphs._wnl_patterns(n)
    for lists in ([vnl], [w, wzo, wzz]):
        halves = []
        for shift in (h, 0):
            ids, counts, first, sigs = graphs._half_classes(n, lists, shift)
            ids = ids.tolist()
            assert len(ids) == 1 << h
            assert counts.tolist() == [ids.count(c) for c in range(len(counts))]
            assert first.tolist() == [ids.index(c) for c in range(len(counts))]
            sel = ((1 << h) - 1) << shift
            by_sig = {}
            for x, c in enumerate(ids):
                m = x << shift
                want = tuple(sum((m & p & sel == p & sel) << 2 * s for s, p in enumerate(pats))
                             for pats in lists)
                assert tuple(sig[c] for sig in sigs) == want, (n, shift, x)
                assert by_sig.setdefault(want, c) == c
            assert len(by_sig) == len(counts)
            halves.append([[sig[c] for c in ids] for sig in sigs])
        for m in range(1 << 2 * h):
            for pats, hi, lo in zip(lists, *halves):
                want = sum(((m & p) == p) << 2 * s for s, p in enumerate(pats))
                assert hi[m >> h] & lo[m & ((1 << h) - 1)] == want, (n, m)
    # the 2-bit WNL class key needs wzz => wzo => w for every (p, q)
    for lo, hi in ((w, wzo), (wzo, wzz)):
        assert all(h & l == l for l, h in zip(lo, hi))


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


@pytest.mark.parametrize("kind,n", SWEEP_GRAPHS)
def test_class_lookup_matches_sweep(kind, n):
    """The class of every mask by the table lookup, the class sizes, the
    vertex sequence and the member kept for each class against the sweep;
    each matrix at n <= 4, and 20,000 seeded ones at n = 5, through
    `vertex_index` and `has_loop`, which refuse exactly the sweep's
    non-vertices."""
    import numpy as np
    g = _built(kind, n)
    want = _sweep(kind, n)
    assert np.array_equal(g._class(np.arange(len(want))), want)
    assert g._class_sizes == np.bincount(want[want >= 0]).tolist()
    assert np.array_equal(g.vertices.masks, np.flatnonzero(want >= 0))
    assert g.num_vertices == len(g.vertices)
    assert np.array_equal(want[g._member], np.arange(len(g._class_sizes)))
    picks = range(len(want)) if n <= 4 else random.Random(53).sample(range(len(want)), 20000)
    for m in picks:
        a = from_offdiag_mask(n, m)
        if want[m] < 0:
            with pytest.raises(ValueError, match="not a vertex"):
                g.vertex_index(a)
            with pytest.raises(ValueError, match="not a vertex"):
                has_loop(g, a)
        else:
            assert g.vertices.masks[g.vertex_index(a)] == m
            assert _class_of(g, a) == want[m]


@pytest.mark.parametrize("kind,n", SWEEP_GRAPHS)
def test_all_zero_matrix_refused(kind, n):
    """The all-zero matrix is no vertex, at either end of `dist`; another
    mask of its pair of half classes is a vertex whenever the sweep says
    so.  (Every off-diagonal slot lies in some pattern, so at these
    orders the all-zero matrix is alone in its pair.)"""
    import numpy as np
    g = _built(kind, n)
    z, v = all_zero(n), g.vertices[0]
    for call in (g.vertex_index, lambda a: has_loop(g, a),
                 lambda a: dist(g, a, v), lambda a: dist(g, v, a)):
        with pytest.raises(ValueError, match="not a vertex"):
            call(z)
    h = (n * n - n) // 2
    full, low = to_offdiag_mask(z), (1 << h) - 1
    masks = np.arange(full)
    pair = masks[(g._hi[masks >> h] == g._hi[full >> h]) & (g._lo[masks & low] == g._lo[full & low])]
    assert np.array_equal(g._class(pair) >= 0, _sweep(kind, n)[pair] >= 0)


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
def _all_sources_eccentricities(kind, n):
    """Eccentricity of every class, from a BFS out of every class: the
    unreduced loop that `stats` runs once per orbit."""
    g = _built(kind, n)
    adj = g._rows()
    return [
        max(max(_class_dists(adj, c)), _same_class_dist(adj[c], c) if size >= 2 else 0)
        for c, size in enumerate(g._class_sizes)
    ]


SMALL_GRAPHS = [(kind, n) for kind in (ORTHO, VNL, WNL) for n in (2, 3, 4)]


@pytest.mark.parametrize("kind,n", SMALL_GRAPHS)
def test_stats_matches_all_sources_eccentricity(kind, n):
    s = stats(_built(kind, n))
    diam = max(_all_sources_eccentricities(kind, n))
    assert (s["diameter"], s["connected"]) == (diam, diam < math.inf)


@pytest.mark.parametrize("kind,n", [(ORTHO, 4), (WNL, 4)])
def test_layer_matches_or_of_rows(kind, n):
    """One layer step against the OR of the frontier's rows restricted to
    the unseen classes, on seeded disjoint frontier and unseen sets from
    sparse to dense frontiers, so that both directions run."""
    adj = _built(kind, n)._rows()
    k = len(adj)
    rng = random.Random(47)
    top_down = set()
    for p in (0.01, 0.1, 0.5, 0.9):
        for _ in range(5):
            frontier = unseen = 0
            for c in range(k):
                if rng.random() < p:
                    frontier |= 1 << c
                elif rng.random() < 0.5:
                    unseen |= 1 << c
            reach = 0
            for c in _set_bits(frontier):
                reach |= adj[c]
            assert graphs._layer(adj, frontier, unseen, k) == reach & unseen, (kind, n, p)
            top_down.add(frontier.bit_count() <= unseen.bit_count())
    assert top_down == {True, False}


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
        dists = _class_dists(g._rows(), class_of[i])
        for j in range(k) if n <= 3 else rng.sample(range(k), 60):
            if class_of[i] != class_of[j]:
                want = dists[class_of[j]]
                assert dist(g, verts[i], verts[j]) == want, (kind, n, i, j)
                assert dist(g, verts[j], verts[i]) == want, (kind, n, j, i)
                got.add(want)
    assert got == reached


@pytest.mark.parametrize("kind", (VNL, WNL, ORTHO))
def test_node_meet_matches_rows(kind):
    """Class a meets class b iff lnode(a) & rnode[b]: every class pair up
    to the largest order, and seeded pairs at it (n = 5, or 4 for ORTHO),
    against the adjacency rows."""
    top = 4 if kind == ORTHO else 5
    for n in range(2, top):
        g = _built(kind, n)
        nodes = g._nodes
        for a in range(len(g._class_sizes)):
            row = sum(1 << b for b, rb in enumerate(nodes.rnode) if nodes.lnode(a) & rb)
            assert row == g._rows()[a], (kind, n, a)
    g = _built(kind, top)
    nodes, rows = g._nodes, g._rows()
    rng = random.Random(49)
    k = len(rows)
    for _ in range(2000):
        a, b = rng.randrange(k), rng.randrange(k)
        assert bool(nodes.lnode(a) & nodes.rnode[b]) == bool(rows[a] >> b & 1), (kind, a, b)


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in (VNL, WNL) for n in (3, 4)] + [
    (ORTHO, n) for n in (2, 3, 4)
])
def test_node_step_grows_ball(kind, n):
    """d steps from lnode(a) give the left nodes of the ball of radius d
    around a, by the plain BFS over the rows, up to one step past the
    ball's last growth."""
    g = _built(kind, n)
    nodes, rows = g._nodes, g._rows()
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
            x = nodes.step(x)


@pytest.mark.parametrize("kind", (VNL, WNL))
def test_dist_builds_no_rows(kind):
    """`dist` and `has_loop` on a pattern graph work in node space: after a
    batch of queries, in different classes and in one, no adjacency row
    has been built."""
    g = build(kind, 5)
    verts, class_of = g.vertices, _vertex_classes(g)
    rng = random.Random(51)
    first = {}
    for i, c in enumerate(class_of):
        first.setdefault(c, i)
    got = set()
    for _ in range(100):
        i, j = rng.randrange(len(verts)), rng.randrange(len(verts))
        got.add(dist(g, verts[i], verts[j]))
        got.add(dist(g, verts[i], verts[first[class_of[i]]]))
        has_loop(g, verts[i])
    assert {1, 2} <= got
    assert g._class_adj is None


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
    # orbit have one size and one eccentricity
    g = _built(kind, n)
    ecc = _all_sources_eccentricities(kind, n)
    for c, root in enumerate(graphs._class_orbits(g)):
        assert root <= c
        assert g._class_sizes[c] == g._class_sizes[root], (kind, n, c)
        assert ecc[c] == ecc[root], (kind, n, c)


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
    assert graphs._class_orbits(_built(kind, n)) == _slot_orbits(kind, n)


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
    for i, a in enumerate(verts):
        assert g.vertex_index(a) == i


@pytest.mark.parametrize("kind", (VNL, WNL))
def test_vertex_index_round_trip_n5(kind):
    g = _built(kind, 5)
    rng = random.Random(44)
    for i in rng.sample(range(g.num_vertices), 500) + [0, g.num_vertices - 1]:
        assert g.vertex_index(g.vertices[i]) == i


def test_non_vertex_rejected():
    for n in (3, 4):
        g = _built(ORTHO, n)
        for a in (identity(n), all_zero(n)):
            with pytest.raises(ValueError, match="not a vertex"):
                g.vertex_index(a)
    for kind, n in ((VNL, 3), (VNL, 5), (WNL, 3), (WNL, 5)):
        g = _built(kind, n)
        # the identity and U(1,2) carry no pattern; the all-zero matrix is excluded
        for a in (identity(n), make_elementary("U", n, 1, 2), all_zero(n)):
            with pytest.raises(ValueError, match="not a vertex"):
                g.vertex_index(a)
    with pytest.raises(ValueError, match="order"):
        _built(VNL, 3).vertex_index(identity(4))


def test_ortho4_adjacency_matches_naive_odot():
    g = _built(ORTHO, 4)
    z = all_zero(4)
    rng = random.Random(45)
    for _ in range(5000):
        i, j = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
        a, b = g.vertices[i], g.vertices[j]
        want = naive_odot(a, b) == z and naive_odot(b, a) == z
        assert bool(g._rows()[i] >> j & 1) == want, (i, j)
