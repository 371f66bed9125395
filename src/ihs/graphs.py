"""Vertex-indexed graph containers and acyclicity primitives.

Vertices are dense integers ``0..n-1``. Both containers are immutable after
construction and store a canonical lexicographically sorted edge/arc list plus
CSR adjacency with ascending neighbor order, so every traversal in the package
is reproducible. Acyclicity checks are iterative; nothing here recurses on the
graph size.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class GraphError(ValueError):
    """Malformed graph input: bad vertex ids, self-loops, or duplicates."""


def _pack(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.multiply(a, n, dtype=np.int64)
    np.add(out, b, out=out)
    return out


def _normalize_pairs(n: int, pairs, directed: bool) -> np.ndarray:
    """Validate and canonicalize an edge/arc list to a lex-sorted (m, 2) array."""
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int32)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError("edge list must be a sequence of (u, v) pairs")
    u, v = arr[:, 0], arr[:, 1]
    if (u < 0).any() or (v < 0).any() or (u >= n).any() or (v >= n).any():
        raise GraphError(f"vertex id out of range [0, {n})")
    if (u == v).any():
        raise GraphError("self-loops are not allowed")
    if not directed:
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        u, v = lo, hi
    keys = _pack(n, u, v)
    if keys.size > 1:
        deltas = np.diff(keys)
        if (deltas <= 0).any():  # generator output is already canonical
            keys.sort()
            deltas = np.diff(keys)
        if (deltas == 0).any():
            raise GraphError("duplicate edges are not allowed")
    out = np.empty((keys.size, 2), dtype=np.int32)
    np.floor_divide(keys, n, out=out[:, 0], casting="unsafe")
    np.remainder(keys, n, out=out[:, 1], casting="unsafe")
    out.setflags(write=False)
    return out


def _csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR with neighbors sorted ascending per vertex."""
    keys = _pack(n, src, dst)
    keys.sort()
    indices = np.remainder(keys, n).astype(np.int32, copy=False)
    np.floor_divide(keys, n, out=keys)
    counts = np.bincount(keys, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices.setflags(write=False)
    indptr.setflags(write=False)
    return indptr, indices


def _gather(indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbor lists of ``verts``; returns (neighbors, source positions)."""
    verts = np.asarray(verts, dtype=np.int64)
    lens = indptr[verts + 1] - indptr[verts]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64)
    rep = np.repeat(np.arange(verts.size), lens)
    within = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
    pos = indptr[verts][rep] + within
    return indices[pos], rep


class Graph:
    """Undirected simple graph: canonical edge list with u < v, sorted CSR adjacency."""

    __slots__ = ("n", "edge_list", "indptr", "indices")

    def __init__(self, n: int, edges: Iterable = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = int(n)
        self.edge_list = _normalize_pairs(self.n, edges, directed=False)
        src = np.concatenate([self.edge_list[:, 0], self.edge_list[:, 1]])
        dst = np.concatenate([self.edge_list[:, 1], self.edge_list[:, 0]])
        self.indptr, self.indices = _csr(self.n, src, dst)

    @property
    def num_edges(self) -> int:
        return self.edge_list.shape[0]

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return i < nb.size and nb[i] == v

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
        u, v = self.arc_list[:, 0], self.arc_list[:, 1]
        self.out_indptr, self.out_indices = _csr(self.n, u, v)
        self.in_indptr, self.in_indices = _csr(self.n, v, u)

    @property
    def num_arcs(self) -> int:
        return self.arc_list.shape[0]

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[v]:self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[v]:self.in_indptr[v + 1]]

    def has_arc(self, u: int, v: int) -> bool:
        nb = self.out_neighbors(u)
        i = np.searchsorted(nb, v)
        return i < nb.size and nb[i] == v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and np.array_equal(self.arc_list, other.arc_list)
        )

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.num_arcs})"


def _removed_mask(n: int, removed) -> np.ndarray:
    ids = np.asarray(sorted(removed), dtype=np.int64)
    if ids.size and (ids[0] < 0 or ids[-1] >= n):
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
    nbrs, rep = _gather(g.indptr, g.indices, alive)
    src = alive[rep]
    keep = (~gone[nbrs]) & (nbrs > src)
    eu = src[keep]
    ev = nbrs[keep]
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
    """True iff the sub-digraph induced on V minus ``removed`` has a topological order."""
    gone = _removed_mask(d.n, removed)
    alive = np.flatnonzero(~gone)
    if alive.size == 0:
        return True
    nbrs, rep = _gather(d.out_indptr, d.out_indices, alive)
    src = alive[rep]
    keep = ~gone[nbrs]
    au = src[keep]
    av = nbrs[keep]
    indeg = np.bincount(av, minlength=d.n)
    remaining = int(alive.size)
    frontier = alive[indeg[alive] == 0]
    while frontier.size:
        remaining -= int(frontier.size)
        gone[frontier] = True
        out, rep2 = _gather(d.out_indptr, d.out_indices, frontier)
        out = out[~gone[out]]
        if out.size == 0:
            break
        dec = np.bincount(out, minlength=d.n)
        indeg -= dec
        cand = np.unique(out)
        frontier = cand[indeg[cand] == 0]
    return remaining == 0


def induced_subgraph(g: Graph, keep) -> tuple[Graph, np.ndarray]:
    """Subgraph induced on ``keep``, relabeled to 0..|keep|-1.

    Returns the new graph and the relabeling map: position i holds the old id
    of new vertex i (old ids in ascending order).
    """
    keep_ids = np.asarray(sorted(set(keep)), dtype=np.int64)
    if keep_ids.size and (keep_ids[0] < 0 or keep_ids[-1] >= g.n):
        raise GraphError(f"vertex id out of range [0, {g.n})")
    mask = np.zeros(g.n, dtype=bool)
    mask[keep_ids] = True
    new_id = np.full(g.n, -1, dtype=np.int64)
    new_id[keep_ids] = np.arange(keep_ids.size)
    eu, ev = g.edge_list[:, 0], g.edge_list[:, 1]
    sel = mask[eu] & mask[ev]
    edges = np.stack([new_id[eu[sel]], new_id[ev[sel]]], axis=1)
    return Graph(keep_ids.size, edges), keep_ids


def shadow_undirected(d: Digraph) -> Graph:
    """Undirected graph with {u, v} whenever (u, v) or (v, u) is an arc.

    Removing a feedback vertex set of the shadow also breaks every directed
    cycle of ``d``.
    """
    if d.num_arcs == 0:
        return Graph(d.n)
    u = np.minimum(d.arc_list[:, 0], d.arc_list[:, 1])
    v = np.maximum(d.arc_list[:, 0], d.arc_list[:, 1])
    keys = np.unique(_pack(d.n, u, v))
    edges = np.stack([keys // d.n, keys % d.n], axis=1)
    return Graph(d.n, edges)
