"""The class partition of a graph made with numpy: the oracle of the int
partition in `tropnorm.graphs` at n <= 5 (ORTHO n <= 4).

This is the partition as `graphs` made it before it went to plain ints,
from the same per-half tables of left and right nodes (`graphs._half_tables`
over `graphs._node_patterns`).  The half masks of each side are grouped by
their left nodes into half classes, numbered in the order of a compact
key: a field per (p, q) that counts the pattern lists whose (p, q)
pattern the half masks hold (1 bit for VNL; 2 bits for WNL, the level of
the nested patterns W ⊆ W&Z(q;p) ⊆ W&Z(p;q)&Z(q;p), but 1 bit on the
diagonal, where the three are equal).  Per list, the signature of a pair of
half classes is the AND of theirs, and the pair's key sums them.  One sort
of the vertex pairs' (key, pair index) words in int64 groups them into
classes in key order; a class's size sums its pairs' products of half
counts, and its last pair gives a member, whose nodes are the class's.
rhas is read off the class keys.  The orbits take, for every class, the
least label of its member's images under the three generators until the
labels settle.

ORTHO's half classes are its half masks and its class of mask m is m - 1;
its node sets are the graph's rows, which `test_ortho_rows_match_numpy_meet_sets`
checks on their own.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import permutations
from types import SimpleNamespace

import numpy as np

from tropnorm import graphs
from tropnorm.core import _cols, _slot_images

# a pair of half classes is numbered in PAIR_BITS bits: WNL n = 5 has
# 472 x 472 pairs, the most under the guard
PAIR_BITS = 18


def to_bits(flags) -> int:
    """Bitset of the set flags: bit c is flags[c]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def pack_rows(flags) -> list[int]:
    """Bitset of each row of a boolean matrix: bit j of row i is flags[i, j]."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    raw, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]


def key_weights(n: int, lists: int) -> np.ndarray:
    """Weight in the class key of each flag (l, s), a mask holding pattern
    s of list l, as [l, s]: per pattern s = (p, q) a field of 2 bits (WNL,
    p != q) or 1 bit, each field above the one before, counts the lists
    that hold it.  The three WNL patterns of a diagonal (p, p) are equal,
    so only the first list counts there."""
    diagonal = np.arange(n * n) % (n + 1) == 0
    width = np.where(diagonal | (lists == 1), 1, 2)
    weights = np.tile(1 << np.cumsum(width) - width, (lists, 1))
    weights[1:, diagonal] = 0
    return weights


def half_classes(held, weights: np.ndarray):
    """Half masks grouped by their left nodes held[x]: each one's class,
    the class sizes, each class's least mask and its flags, column
    l*n^2 + s set iff its half masks hold that half of pattern s of list l,
    left node (lists-1-l)*n^2 + s, with the classes numbered in the order of
    their keys, the sums of their flags' weights."""
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


def node_tables(kind: str, n: int) -> list[list[int]]:
    """The build's four per-half tables: the left nodes of the high and of
    the low half masks, then their right nodes."""
    h = (n * n - n) // 2
    lpats, rpats = graphs._node_patterns(kind, n)
    every = (1 << len(lpats)) - 1
    return [table for pats in (lpats, rpats)
            for table in graphs._half_tables([every ^ x for x in _cols(pats)[: 2 * h]], h, every)]


@lru_cache(maxsize=None)
def partition(kind: str, n: int) -> SimpleNamespace:
    """The partition of the graph (module docstring): `hi` and `lo`, the
    half class of each half mask; `table`, the class of each pair of half
    classes, -1 for none; `member`, `sizes`, `lnode`, `rnode` and `rhas`
    per class (ORTHO: `lnode` only); `classes(masks)`, the class of each
    mask of an array; `orbits`, the least class of each class's orbit."""
    h = (n * n - n) // 2
    if kind == graphs.ORTHO:
        k = (1 << 2 * h) - 2
        table = np.append(np.arange(-1, k, dtype=np.int32), -1).reshape(1 << h, 1 << h)
        p = SimpleNamespace(hi=np.arange(1 << h), lo=np.arange(1 << h), table=table,
                            member=np.arange(1, k + 1, dtype=np.int64), sizes=[1] * k,
                            lnode=[1 << c for c in range(k)], rnode=None, rhas=None)
    else:
        p = _pattern_partition(kind, n, node_tables(kind, n))
    p.classes = lambda m: p.table[p.hi[m >> h], p.lo[m & ((1 << h) - 1)]]
    p.orbits = _orbits(n, p)
    return p


def _pattern_partition(kind: str, n: int, tables: list[list[int]]) -> SimpleNamespace:
    h, width = (n * n - n) // 2, n * n
    lists = 1 if kind == graphs.VNL else 3
    weights = key_weights(n, lists)
    (hi, hi_count, hi_first, hi_has), (lo, lo_count, lo_first, lo_has) = (
        half_classes(held, weights) for held in tables[:2])
    shape = len(hi_count), len(lo_count)
    pairs = shape[0] * shape[1]
    assert pairs <= 1 << PAIR_BITS, "pair indices would overflow the sort word"
    assert int(weights.sum()).bit_length() + PAIR_BITS <= 63, "keys would overflow int64"
    # per list the signature of a pair of half classes is the AND of
    # theirs, and its key sums them, above the pair's index
    hi_sig, lo_sig = ((has.reshape(-1, lists, width) * weights).sum(axis=2).T << PAIR_BITS
                      for has in (hi_has, lo_has))
    key = np.arange(pairs).reshape(shape)
    for a, b in zip(hi_sig, lo_sig):
        key += a[:, None] & b
    # the vertex pairs have some off-diagonal field set; the last pair, of
    # the two full half masks, holds only the all-zero matrix
    floors = weights.cumsum(axis=0)  # the last row masks each field's bits
    offdiag = int(floors[-1][np.arange(width) % (n + 1) != 0].sum()) << PAIR_BITS
    key = key.ravel()[:-1]
    packed = np.sort(key[(key & offdiag) != 0])
    pair = packed & ((1 << PAIR_BITS) - 1)
    packed >>= PAIR_BITS
    start = np.append(True, packed[1:] != packed[:-1])
    table = np.full(pairs, -1, dtype=np.int32)
    table[pair] = np.cumsum(start, dtype=np.int32) - 1
    sizes = np.add.reduceat(np.multiply.outer(hi_count, lo_count).ravel()[pair],
                            np.flatnonzero(start))
    # each class's last pair gives its key and its member, and the nodes
    # both halves of the member hold are the class's
    last = np.append(np.flatnonzero(start[1:]), len(start) - 1)
    keys = packed[last]
    hi_at, lo_at = np.divmod(pair[last], shape[1])
    member = hi_first[hi_at] << h | lo_first[lo_at]
    mhi, mlo = (member >> h).tolist(), (member & (1 << h) - 1).tolist()
    lhi, llo, rhi, rlo = tables
    # a class holds pattern s of list l iff its key's field s is at least
    # the weights of lists 0..l there; right node t*n^2 + s is pattern s'
    # of list t, for s' the transpose of s
    perm = [q * n + p for p in range(n) for q in range(n)]
    rhas = [r for floor in floors
            for r in pack_rows((keys & floors[-1, perm, None]) >= floor[perm, None])]
    return SimpleNamespace(hi=hi, lo=lo, table=table.reshape(shape), member=member,
                           sizes=sizes.tolist(), lnode=[lhi[x] & llo[y] for x, y in zip(mhi, mlo)],
                           rnode=[rhi[x] & rlo[y] for x, y in zip(mhi, mlo)], rhas=rhas)


def _orbits(n: int, p: SimpleNamespace) -> list[int]:
    """The least class of each class's orbit: each generator, the
    transposition (1 2), the n-cycle i -> i+1 (mod n) and the transpose,
    maps one member of every class to a vertex through its column of
    `core._slot_images`, and every class takes the least label of its
    images until the labels settle."""
    m = p.member
    images = _slot_images(n)
    perms = list(permutations(range(n)))
    swap = (1, 0, *range(2, n))
    cycle = tuple((i + 1) % n for i in range(n))
    maps = [p.classes(sum((m >> s & 1) * img[e] for s, img in enumerate(images)))
            for e in (perms.index(swap), perms.index(cycle), len(perms))]
    assert min(c.min() for c in maps) >= 0, "a generator maps a vertex off the graph"
    label = np.arange(len(m))
    while not np.array_equal(label, new := reduce(np.minimum, [label[c] for c in maps], label)):
        label = new[new]
    return label.tolist()
