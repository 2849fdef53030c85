import itertools
import math
import random

import pytest

from conftest import rand_normal
from tropnorm import fixtures
from tropnorm.core import NormalMatrix, all_zero, identity, make_elementary, transpose
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
    for i, c in enumerate(g._class_of.tolist()):
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


@pytest.mark.slow
def test_quotient_matches_explicit_brute_force_n4_sampled():
    rng = random.Random(43)
    for kind in (VNL, WNL):
        g = build(kind, 4)
        verts = g.vertices
        for _ in range(3000):
            a, b = rng.choice(verts), rng.choice(verts)
            got = adjacent(kind, a, b)
            if got:
                assert is_orthogonal(a, b)


@pytest.mark.slow
def test_ortho4_stats():
    s = stats(build(ORTHO, 4))
    assert s["vertices"] == 4094
    assert s["edges"] == 1111070
    assert s["loops"] == 711
    assert s["girth"] == 3
    assert s["diameter"] == 3
    assert s["connected"]


@pytest.mark.slow
def test_vnl5_wnl5_diameter_two():
    sv = stats(build(VNL, 5))
    assert sv["vertices"] == 113590
    assert sv["diameter"] == 2
    sw = stats(build(WNL, 5))
    assert sw["vertices"] == 231759
    assert sw["diameter"] == 2
