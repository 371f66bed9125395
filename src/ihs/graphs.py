"""Vertex-indexed graph containers and acyclicity primitives.

Vertices are dense integers ``0..n-1``. Both containers are immutable after
construction and store a canonical lexicographically sorted edge/arc list
plus CSRs with ascending rows, so every traversal in the package is
reproducible. A Graph keeps the CSR of its edge list (row u: the upper
neighbors of u), whose indices are a view of the edge list's second column;
a Digraph keeps its out-CSR and the in-CSR of its transpose, which it sorts
when built, with one m-length int64 sort key. A reader that needs a Graph's
lower neighbors as rows sorts the transpose itself with ``_transposed``;
growth and the acyclicity check never do, they count lower neighbors from
the edge list. Ids are int32 and every array is read-only. Construction
works slice by slice over the pair list, gathers block by block. Acyclicity
checks are iterative; nothing here recurses on the graph size.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class GraphError(ValueError):
    """Malformed graph input: bad vertex ids, self-loops, or duplicates."""


_CHUNK = 1 << 16  # rows per slice of the construction passes: their temporaries stay in cache
_BLOCK = 1 << 20  # neighbors per block of a gather


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _pack(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.multiply(a, n, dtype=np.int64)
    np.add(out, b, out=out, dtype=np.int64)
    return out


def _unpack(n: int, keys: np.ndarray) -> np.ndarray:
    """Keys ``u * n + v`` back to an int32 (m, 2) array of pairs, in place:
    each key's 8 bytes become its pair's two int32 ids."""
    out = keys.view(np.int32).reshape(-1, 2)
    for s in range(0, keys.size, _CHUNK):
        k = keys[s:s + _CHUNK]
        rows = k // n
        values = k - rows * n  # both read before the slice is overwritten
        out[s:s + k.size, 0] = rows
        out[s:s + k.size, 1] = values
    return out


def _pair_array(n: int, pairs) -> np.ndarray:
    """``pairs`` as an (m, 2) array of integers; integer arrays are not copied."""
    arr = pairs if isinstance(pairs, np.ndarray) else np.asarray(list(pairs))
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int32)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError("edge list must be a sequence of (u, v) pairs")
    if arr.dtype.kind == "f":
        if not (np.isfinite(arr) & (arr == np.trunc(arr))).all():
            raise GraphError("vertex ids must be integers")
        return np.clip(arr, -1, n).astype(np.int64)  # clipped ids stay out of range
    if arr.dtype.kind not in "biu":
        raise GraphError(f"vertex ids must be integers in [0, {n})")
    return arr


def _slice_keys(n: int, rows: np.ndarray, directed: bool) -> tuple[np.ndarray, bool]:
    """Validated keys ``u * n + v`` of a slice of pairs, with ``u < v`` swapped
    into place for undirected input, and whether every pair was in that order."""
    if rows.min() < 0 or rows.max() >= n:
        raise GraphError(f"vertex id out of range [0, {n})")
    u, v = rows[:, 0], rows[:, 1]
    if (u == v).any():
        raise GraphError("self-loops are not allowed")
    ordered = directed or bool((u < v).all())
    if not ordered:
        u, v = np.minimum(u, v), np.maximum(u, v)
    return _pack(n, u, v), ordered


def _normalize_pairs(n: int, pairs, directed: bool) -> np.ndarray:
    """Validate and canonicalize an edge/arc list to a lex-sorted, read-only
    int32 (m, 2) array.

    The generators emit pairs in canonical order. Such input is checked slice
    by slice and copied to int32 once, or not at all if it already is a
    read-only int32 array that owns its data. Any other input is sorted.
    """
    arr = _pair_array(n, pairs)
    m = arr.shape[0]
    last = -1
    for s in range(0, m, _CHUNK):
        keys, ordered = _slice_keys(n, arr[s:s + _CHUNK], directed)
        if not (ordered and keys[0] > last and (keys[1:] > keys[:-1]).all()):
            return _sorted_pairs(n, arr, directed)
        last = keys[-1]
    if arr.dtype == np.int32 and arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable:
        return arr
    return _frozen(arr.astype(np.int32, order="C"))


def _sorted_pairs(n: int, arr: np.ndarray, directed: bool) -> np.ndarray:
    """Pairs in any order: one sort of m int64 keys, then the duplicate check."""
    keys = np.empty(arr.shape[0], dtype=np.int64)
    for s in range(0, keys.size, _CHUNK):
        keys[s:s + _CHUNK] = _slice_keys(n, arr[s:s + _CHUNK], directed)[0]
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise GraphError("duplicate edges are not allowed")
    return _frozen(_unpack(n, keys))


def _transposed(n: int, pairs: np.ndarray) -> np.ndarray:
    """A pair list reversed to (v, u) and lex-sorted: one sort of m int64 keys."""
    keys = np.empty(pairs.shape[0], dtype=np.int64)
    for s in range(0, keys.size, _CHUNK):
        part = pairs[s:s + _CHUNK]
        keys[s:s + part.shape[0]] = _pack(n, part[:, 1], part[:, 0])
    keys.sort()
    return _unpack(n, keys)


def _row_starts(n: int, heads: np.ndarray) -> np.ndarray:
    """CSR row pointer of a sorted column of row ids, one search per slice."""
    starts = np.full(n + 1, heads.size, dtype=np.int64)
    for s in range(0, heads.size, _CHUNK):
        part = heads[s:s + _CHUNK]
        lo, hi = int(heads[s - 1]) + 1 if s else 0, int(part[-1]) + 1
        starts[lo:hi] = s + np.searchsorted(part, np.arange(lo, hi, dtype=part.dtype))
    return starts


def _rows(n: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of a lex-sorted pair list as it stands: row u lists the v of its pairs (u, v)."""
    return _frozen(_row_starts(n, pairs[:, 0])), _frozen(np.ascontiguousarray(pairs[:, 1]))


def _gather_blocks(indptr: np.ndarray, indices: np.ndarray, verts):
    """The gather of ``verts`` in blocks of whole rows of about ``_BLOCK`` neighbors, so one block's
    int64 positions exist at a time: returns its length and each block's (offset, neighbors, sources)."""
    verts = np.asarray(verts, dtype=np.int64)
    starts = indptr[verts]
    lens = indptr[verts + 1] - starts
    ends = lens.cumsum()  # array methods: no dispatch overhead on the many tiny gathers of cycle walks
    starts -= ends - lens  # the j-th neighbor of the gather, in the row of verts[i], is at starts[i] + j
    total = int(ends[-1]) if verts.size else 0
    cuts = np.unique(np.searchsorted(ends, np.arange(_BLOCK, total, _BLOCK)) + 1).tolist() if total > _BLOCK else []
    def blocks():
        for a, b in zip([0, *cuts], [*cuts, verts.size]):
            first = int(ends[a - 1]) if a else 0
            pos = starts[a:b].repeat(lens[a:b])
            pos += np.arange(first, first + pos.size)
            yield first, indices[pos], np.arange(a, b, dtype=np.int32).repeat(lens[a:b])
    return total, blocks()


def _gather(indptr: np.ndarray, indices: np.ndarray, verts) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbor lists of ``verts``; returns (neighbors, source positions)."""
    total, blocks = _gather_blocks(indptr, indices, verts)
    if total <= _BLOCK:
        return next(blocks)[1:]
    nbrs, rep = np.empty(total, dtype=indices.dtype), np.empty(total, dtype=np.int32)
    for first, part, src in blocks:
        nbrs[first:first + part.size], rep[first:first + part.size] = part, src
    return nbrs, rep


def _induced_edges(g: Graph, verts: np.ndarray, inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges (u, v), u < v, in lex order, from the ascending ``verts`` to
    upper neighbors where the mask ``inside`` holds, as two int32 arrays, cut block by block."""
    verts = np.asarray(verts, dtype=np.int32)
    tails, heads = [], []
    for _, nbrs, rep in _gather_blocks(g.up_indptr, g.up_indices, verts)[1]:
        pick = inside[nbrs]
        tails.append(verts[rep[pick]])
        heads.append(nbrs[pick])
    return np.concatenate(tails), np.concatenate(heads)


class Graph:
    """Undirected simple graph: canonical edge list with u < v and the sorted
    CSR of its rows (row u: the upper neighbors of u), whose ``up_indices`` is
    the read-only view ``edge_list[:, 1]``. It stores no transpose;
    ``prune_fvs`` and ``successor_lists`` sort one when they need lower
    neighbors as rows.
    """

    __slots__ = ("n", "edge_list", "up_indptr", "up_indices")

    def __init__(self, n: int, edges: Iterable = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = int(n)
        self.edge_list = _normalize_pairs(self.n, edges, directed=False)
        self.up_indptr, self.up_indices = _frozen(_row_starts(self.n, self.edge_list[:, 0])), self.edge_list[:, 1]

    @property
    def num_edges(self) -> int:
        return self.edge_list.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.edge_list, other.edge_list)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


class Digraph:
    """Directed simple graph: canonical arc list, sorted out- and in-adjacency.

    Antiparallel arc pairs (u, v) and (v, u) are permitted at this level; the
    random models never generate them, but arbitrary file input may.
    """

    __slots__ = ("n", "arc_list", "out_indptr", "out_indices", "in_indptr", "in_indices")

    def __init__(self, n: int, arcs: Iterable = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = int(n)
        self.arc_list = _normalize_pairs(self.n, arcs, directed=True)
        # the transpose first: its m-length sort keys are freed before the out-indices exist
        self.in_indptr, self.in_indices = _rows(self.n, _transposed(self.n, self.arc_list))
        self.out_indptr, self.out_indices = _rows(self.n, self.arc_list)

    @property
    def num_arcs(self) -> int:
        return self.arc_list.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and np.array_equal(self.arc_list, other.arc_list)
        )

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.num_arcs})"


def _removed_mask(n: int, removed) -> np.ndarray:
    """Bool mask over ``0..n-1`` of ``removed``, an int array or any iterable of ints."""
    ids = removed.tolist() if isinstance(removed, np.ndarray) else list(removed)
    if ids and (min(ids) < 0 or max(ids) >= n):
        raise GraphError(f"vertex id out of range [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def is_acyclic_undirected(g: Graph, removed=()) -> bool:
    """True iff the subgraph induced on V minus ``removed`` is a forest."""
    gone = _removed_mask(g.n, removed)
    alive = np.flatnonzero(~gone)
    if alive.size == 0:
        return True
    eu, ev = _induced_edges(g, alive, ~gone)
    if eu.size >= alive.size:
        return False
    # at most |alive| - 1 unions can succeed, so this loop is short
    return union_edges(np.arange(g.n, dtype=np.int64), zip(eu.tolist(), ev.tolist()))


def find(parent, x: int) -> int:
    """Root of ``x`` in the union-find forest ``parent`` (any int-indexed
    mutable sequence or mapping), compressing the path walked."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def union_edges(parent, edges) -> bool:
    """Join the endpoints of each edge in ``parent``; False at the first edge
    whose endpoints are already joined, that is, that closes a cycle."""
    for a, b in edges:
        ra, rb = find(parent, a), find(parent, b)
        if ra == rb:
            return False
        parent[rb] = ra
    return True


def is_acyclic_directed(d: Digraph, removed=()) -> bool:
    """True iff the sub-digraph induced on V minus ``removed`` has a topological order.

    One ``_gather`` of the alive rows gives the alive arcs; ``drain_sources``
    then pops sources off one stack over their CSR, visiting each arc once.
    """
    gone = _removed_mask(d.n, removed)
    alive = np.flatnonzero(~gone)
    if alive.size == 0:
        return True
    nbrs, rep = _gather(d.out_indptr, d.out_indices, alive)
    keep = ~gone[nbrs]
    heads = nbrs[keep]
    indeg = np.bincount(heads, minlength=d.n)
    # the sub-CSR of the alive arcs: row v is heads[ptr[v]:ptr[v + 1]]; memoryviews
    # read both as Python ints without a list of them
    ptr = np.zeros(d.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(alive[rep[keep]], minlength=d.n), out=ptr[1:])
    heads, ptr = memoryview(heads), memoryview(ptr)
    stack = alive[indeg[alive] == 0].tolist()
    return drain_sources(lambda v: heads[ptr[v]:ptr[v + 1]], indeg.tolist(), stack) == alive.size


def drain_sources(successors, indeg: list, stack: list) -> int:
    """Kahn's algorithm: pop sources off ``stack`` and count them, pushing each
    successor whose in-degree ``indeg`` (consumed) falls to zero.

    ``successors(v)`` iterates the arcs out of ``v``; ``stack`` holds the
    alive vertices of in-degree zero. A successor that is not alive must start
    at an in-degree of at most zero, so it is never pushed. The alive vertices
    have a topological order iff all of them are popped.
    """
    popped = 0
    while stack:
        v = stack.pop()
        popped += 1
        for w in successors(v):
            indeg[w] -= 1
            if not indeg[w]:
                stack.append(w)
    return popped


def shadow_undirected(d: Digraph) -> Graph:
    """Undirected graph with {u, v} whenever (u, v) or (v, u) is an arc.

    Removing a feedback vertex set of the shadow also breaks every directed
    cycle of ``d``.
    """
    u = np.minimum(d.arc_list[:, 0], d.arc_list[:, 1])
    v = np.maximum(d.arc_list[:, 0], d.arc_list[:, 1])
    return Graph(d.n, _unpack(d.n, np.unique(_pack(d.n, u, v))))
