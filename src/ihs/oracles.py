"""Feasibility oracles: given a candidate set, certify it hits every target
subset or return one subset it misses.

Cycle oracles treat a (di)graph as an implicit family whose subsets are the
vertex sets of simple cycles; a verdict of feasible means the candidate is a
feedback vertex set. Traversal orders are pinned (components by smallest
surviving id, neighbors ascending) so repeated runs return identical cycles.

The shortest-cycle oracle decides feasibility by union-find or Kahn's
algorithm, then tries the lengths ascending with ``walk_cycles``, the one
cycle walker: every path shorter than the girth is walked once per length.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .graphs import Digraph, Graph, GraphError, _gather, _removed_mask, is_acyclic_directed, union_edges
from .hitting import SubsetFamily


class OracleProtocolError(RuntimeError):
    """An oracle returned a verdict violating its contract."""


@dataclass(frozen=True)
class OracleVerdict:
    """Either feasible, or one missed subset disjoint from the query."""

    missed: tuple[int, ...] | None = None

    @property
    def feasible(self) -> bool:
        return self.missed is None

    @staticmethod
    def ok() -> "OracleVerdict":
        return OracleVerdict(None)

    @staticmethod
    def miss(subset: Iterable[int]) -> "OracleVerdict":
        return OracleVerdict(tuple(sorted(set(map(operator.index, subset)))))


@dataclass(frozen=True)
class OracleContract:
    """A feasibility oracle over the universe ``0..universe_size-1``."""

    check: Callable[[Iterable[int]], OracleVerdict]
    universe_size: int


def explicit_family_oracle(fam: SubsetFamily) -> OracleContract:
    """Wrap an explicit family: returns the first unhit subset in insertion order."""

    def check(h: Iterable[int]) -> OracleVerdict:
        hs = set(h)
        for s in fam.subsets:
            if hs.isdisjoint(s):
                return OracleVerdict.miss(s)
        return OracleVerdict.ok()

    return OracleContract(check=check, universe_size=fam.universe_size)


def successor_lists(g: Graph | Digraph) -> tuple[list[list[int]], list[set[int]]]:
    """Ascending successor list and successor set of every vertex (neighbors
    of a Graph, out-neighbors of a Digraph), built once for many walks."""
    if isinstance(g, Digraph):
        lists = _row_lists(g.out_indptr, g.out_indices)
    else:  # lower neighbors, then upper ones: still ascending
        low, up = _row_lists(g.low_indptr, g.low_indices), _row_lists(g.up_indptr, g.up_indices)
        lists = [a + b for a, b in zip(low, up)]
    return lists, [set(nb) for nb in lists]


def _row_lists(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    flat, bounds = indices.tolist(), indptr.tolist()
    return [flat[bounds[v]:bounds[v + 1]] for v in range(len(bounds) - 1)]


def walk_cycles(adj, succ, start: int, length: int, min_id: int = 0, allowed=None):
    """Yield every simple path of ``length`` vertices from ``start`` whose last
    vertex has an arc back to ``start``, in lexicographic path order.

    ``adj``/``succ`` come from ``successor_lists``. Vertices after ``start``
    have ids of at least ``min_id`` and are set in the bool mask ``allowed``
    (None allows all). Callers that want the first hit take ``next(...)``;
    ``start = a, min_id = a + 1`` over ascending ``a`` lists each cycle once,
    anchored at its minimum vertex. The yielded list is the walk's own path:
    copy it to keep it. Iterative, with one successor iterator per path vertex
    and the closing step done inline.
    """
    if length < 2:
        raise ValueError("cycle length must be at least 2")
    # free[v]: v may still join the path
    if allowed is None:
        free = bytearray(b"\x01") * len(adj)
    else:
        free = bytearray(np.asarray(allowed, dtype=bool))
    free[:min_id] = bytes(min_id)
    free[start] = 0
    path = [start]
    stack = [iter(adj[start])]
    while stack:
        if len(path) == length - 1:
            for v in stack.pop():
                if free[v] and start in succ[v]:
                    path.append(v)
                    yield path
                    path.pop()
            free[path.pop()] = 1
            continue
        for v in stack[-1]:
            if free[v]:
                free[v] = 0
                path.append(v)
                stack.append(iter(adj[v]))
                break
        else:
            stack.pop()
            free[path.pop()] = 1


def bfs_cycle_oracle(g: Graph, root: int = 0) -> OracleContract:
    """Cycle oracle in breadth-first order.

    ``check(h)`` runs BFS on the graph minus ``h``, starting from ``root``
    (or the smallest surviving id when the root is removed) and then from the
    remaining components in ascending id order. The first non-tree edge met
    closes a cycle through the BFS tree; its vertex set is returned. Feasible
    iff the surviving graph is a forest.
    """
    if not 0 <= root < g.n:
        raise GraphError(f"root {root} out of range [0, {g.n})")
    adj = successor_lists(g)[0]

    def check(h: Iterable[int]) -> OracleVerdict:
        blocked = _removed_mask(g.n, h).tolist()
        parent = [-1] * g.n
        depth = [0] * g.n
        visited = blocked.copy()
        starts = [root] + list(range(g.n))
        for s in starts:
            if visited[s]:
                continue
            visited[s] = True
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if blocked[v]:
                        continue
                    if not visited[v]:
                        visited[v] = True
                        parent[v] = u
                        depth[v] = depth[u] + 1
                        queue.append(v)
                    elif v != parent[u]:
                        return OracleVerdict.miss(_tree_cycle(parent, depth, u, v))
        return OracleVerdict.ok()

    return OracleContract(check=check, universe_size=g.n)


def _tree_cycle(parent: list[int], depth: list[int], u: int, v: int) -> list[int]:
    """Vertices of the cycle formed by tree paths from u and v to their lowest common ancestor."""
    path_u = [u]
    path_v = [v]
    while depth[path_u[-1]] > depth[path_v[-1]]:
        path_u.append(parent[path_u[-1]])
    while depth[path_v[-1]] > depth[path_u[-1]]:
        path_v.append(parent[path_v[-1]])
    while path_u[-1] != path_v[-1]:
        path_u.append(parent[path_u[-1]])
        path_v.append(parent[path_v[-1]])
    return path_u + path_v[:-1]


def shortest_cycle_oracle(g_or_d: Graph | Digraph) -> OracleContract:
    """Cycle oracle in increasing length order.

    ``check(h)`` is feasible iff the surviving (di)graph is acyclic, by
    ``union_edges`` on a Graph or ``is_acyclic_directed`` on a Digraph. Else it
    returns the first path ``walk_cycles`` yields over the lengths from 3 (2 on
    a Digraph) up, then the surviving anchors ascending: a minimum-length
    cycle, ties broken by smallest minimum vertex, then lexicographically first
    path. Every path shorter than the girth is walked once per length.
    """
    directed = isinstance(g_or_d, Digraph)
    adj, succ = successor_lists(g_or_d)

    def check(h: Iterable[int]) -> OracleVerdict:
        blocked = _removed_mask(g_or_d.n, h)
        allowed = ~blocked
        alive = np.flatnonzero(allowed).tolist()
        if directed:
            acyclic = is_acyclic_directed(g_or_d, np.flatnonzero(blocked))
        else:
            gone = blocked.tolist()
            edges = ((u, v) for u in alive for v in adj[u] if v > u and not gone[v])
            acyclic = union_edges(list(range(g_or_d.n)), edges)
        if acyclic:
            return OracleVerdict.ok()
        for length in range(2 if directed else 3, len(alive) + 1):
            for a in alive:
                # an undirected path's reverse has its other end second: the first runs the smaller way
                path = next(walk_cycles(adj, succ, a, length, a + 1, allowed), None)
                if path is not None:
                    return OracleVerdict.miss(path)
        # acyclicity check and enumeration disagree: internal bug
        raise OracleProtocolError("cyclic remainder but no cycle found")

    return OracleContract(check=check, universe_size=g_or_d.n)


def cycles_of_length(d: Digraph, k: int, limit: int | None = None) -> np.ndarray:
    """Every simple directed cycle on exactly ``k`` vertices, as the rows of
    an int32 ``(C, k)`` array, each row the cycle's vertex ids sorted; with
    ``limit``, only the first ``limit`` of them.

    Each cycle is found once, anchored at its minimum vertex. Row order:
    anchor ascending, then path lexicographic, the order of ``walk_cycles``.
    Per anchor ``a`` the paths grow one level at a time over the out-CSR, in
    lexicographic order, keeping successors above ``a`` and off the path; the
    last level keeps only successors with an arc back to ``a``. Cost grows
    with out-degree**(k-1) per anchor; intended for small constant k.
    """
    if k < 2:
        raise ValueError("cycle length must be at least 2")
    indptr, indices = d.out_indptr, d.out_indices
    closes = np.zeros(d.n, dtype=bool)  # arc back to the anchor
    blocks: list[list[np.ndarray]] = []  # per anchor, its paths column by column
    found = 0
    for a in range(d.n):
        if limit is not None and found >= limit:
            break
        into = d.in_neighbors(a)
        into = into[into > a]
        if into.size == 0:
            continue
        closes[into] = True
        path = [np.full(1, a, dtype=np.int32)]
        for level in range(1, k):
            nbrs, rep = _gather(indptr, indices, path[-1])
            keep = closes[nbrs] if level == k - 1 else nbrs > a
            for col in path[1:-1]:  # the last vertex is no successor of itself
                keep &= nbrs != col[rep]
            rep = rep[keep]
            path = [col[rep] for col in path] + [nbrs[keep]]
        closes[into] = False
        if path[0].size:
            blocks.append(path)
            found += path[0].size
    if not blocks:
        return np.empty((0, k), dtype=np.int32)
    cols = [np.concatenate([b[j] for b in blocks])[:limit] for j in range(k)]
    # the anchor is the row minimum: sort the rest with a compare-exchange network
    for i in range(k - 1, 1, -1):
        for j in range(1, i):
            lo, hi = cols[j], cols[j + 1]
            cols[j], cols[j + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    return np.stack(cols, axis=1)
