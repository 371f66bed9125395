"""Feasibility oracles: given a candidate set, certify it hits every target
subset or return one subset it misses.

Cycle oracles treat a (di)graph as an implicit family whose subsets are the
vertex sets of simple cycles; a verdict of feasible means the candidate is a
feedback vertex set. Traversal orders are pinned (components by smallest
surviving id, neighbors ascending) so repeated runs return identical cycles.

The shortest-cycle oracle decides feasibility with one ``drain_sources`` peel
over its own successor rows (a Digraph's CSR rows, a Graph's Python lists),
then tries the lengths ascending with ``walk_cycles``, the one cycle walker,
over the vertices the peel leaves: every path there shorter than the girth is
walked once per length. A pass of walks shares one mask, which each restores.

``cycles_of_length`` lists the cycles of one length with the same walker,
from each cycle's minimum vertex, one of the anchors of ``_cycle_anchors``.

Both cycle oracles keep each verdict by query in a ``functools.cache``, so a
query asked again (the generic solver asks a kept swap's query again at each
set it reaches again) costs a lookup.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .graphs import Digraph, Graph, GraphError, _CsrRows, _cycle_anchors, _removed_mask, _transposed_rows, drain_sources
from .hitting import SubsetFamily, _mask, _unmask


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
        ids = list(map(operator.index, h))
        if ids and not 0 <= min(ids) <= max(ids) < fam.universe_size:
            raise ValueError(f"element id out of range [0, {fam.universe_size})")
        hm = _mask(ids)
        for m in fam.masks:
            if not hm & m:
                return OracleVerdict(_unmask(m))
        return OracleVerdict.ok()

    return OracleContract(check=check, universe_size=fam.universe_size)


def _memoized(check: Callable[[frozenset[int]], OracleVerdict]) -> Callable[[Iterable[int]], OracleVerdict]:
    """``check`` behind a ``functools.cache`` keyed by the query as a frozenset
    (other input is normalised with ``operator.index``). Exceptions are not kept."""
    cached = functools.cache(check)
    return lambda h: cached(h if isinstance(h, frozenset) else frozenset(map(operator.index, h)))


def successor_lists(g: Graph | Digraph) -> tuple[list[list[int]] | _CsrRows, _SuccessorSets]:
    """Ascending successor row and successor set of every vertex (neighbors of a Graph,
    out-neighbors of a Digraph). A Digraph's rows are its out-CSR's (``_CsrRows``), a Graph's
    Python lists, which the undirected oracles reuse over many queries. Each set is built
    when first read: a walk that closes few paths reads few of them."""
    if isinstance(g, Digraph):
        lists = _CsrRows(g.out_indptr, g.out_indices)
    else:  # lower neighbors, rows of the sorted transpose, then upper ones: still ascending
        low = _row_lists(*_transposed_rows(g.n, g.edge_list))
        lists = [a + b for a, b in zip(low, _row_lists(g.up_indptr, g.up_indices))]
    return lists, _SuccessorSets(lists)


class _SuccessorSets(dict):
    """``set(lists[v])`` by vertex ``v``, built and kept on its first lookup."""

    def __init__(self, lists):
        super().__init__()
        self.lists = lists

    def __missing__(self, v: int) -> set[int]:
        nb = self[v] = set(self.lists[v])
        return nb


def _row_lists(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    flat, bounds = indices.tolist(), indptr.tolist()
    return [flat[bounds[v]:bounds[v + 1]] for v in range(len(bounds) - 1)]


def walk_cycles(adj, succ, start: int, length: int, min_id: int = 0, allowed=None):
    """Yield every simple path of ``length`` vertices from ``start`` whose last
    vertex has an arc back to ``start``, in lexicographic path order.

    ``adj``/``succ`` come from ``successor_lists``. Vertices after ``start``
    have ids of at least ``min_id`` and are set in ``allowed``, a mutable mask
    (bytearray, list or bool array; None allows all, with an n-byte mask per
    call). The walk clears its path in ``allowed`` and sets it again as it
    unwinds or is closed, so a pass of walks, each run out or dropped before
    the next starts, shares one mask. Callers that want the first hit take
    ``next(...)``; ``start = a, min_id = a + 1`` over ascending ``a`` lists
    each cycle once, anchored at its minimum vertex. The yielded list is the
    walk's own path: copy it to keep it. Iterative, with one successor
    iterator per path vertex and the closing step done inline.
    """
    if length < 2:
        raise ValueError("cycle length must be at least 2")
    free = bytearray(b"\x01") * len(adj) if allowed is None else allowed  # free[v]: v may still join the path
    was, free[start] = free[start], 0
    path = [start]
    stack = [iter(adj[start])]
    try:
        while stack:
            if len(path) == length - 1:
                for v in stack.pop():
                    if v >= min_id and free[v] and start in succ[v]:
                        path.append(v)
                        yield path
                        path.pop()
                free[path.pop()] = 1
                continue
            for v in stack[-1]:
                if v >= min_id and free[v]:
                    free[v] = 0
                    path.append(v)
                    stack.append(iter(adj[v]))
                    break
            else:
                stack.pop()
                free[path.pop()] = 1
    finally:
        for v in path[1:]:  # left marked by an early close
            free[v] = 1
        free[start] = was


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

    return OracleContract(check=_memoized(check), universe_size=g.n)


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

    ``check(h)`` peels the surviving (di)graph with ``drain_sources`` over the
    successor lists the oracle holds: a vertex's count is its alive in-degree,
    less one on a Graph, so the peel drops sources from a Digraph and vertices
    of degree at most one from a Graph while there are any; a blocked vertex
    starts at -n and is never pushed. It is feasible iff the peel takes every
    surviving vertex. Else the vertices left hold every cycle, and it returns
    the first path ``walk_cycles`` yields among them over the lengths from 3
    (2 on a Digraph) up, then the anchors ascending: a minimum-length cycle,
    ties broken by smallest minimum vertex, then lexicographically first path.
    Every path there shorter than the girth is walked once per length.
    """
    n = g_or_d.n
    directed = isinstance(g_or_d, Digraph)
    adj, succ = successor_lists(g_or_d)
    start = 0 if directed else -1

    def check(h: Iterable[int]) -> OracleVerdict:
        blocked = _removed_mask(n, h).tolist()
        count = [-n if b else start for b in blocked]
        alive = [v for v in range(n) if not blocked[v]]
        for u in alive:
            for v in adj[u]:
                count[v] += 1
        if drain_sources(adj.__getitem__, count, [v for v in alive if count[v] <= 0]) == len(alive):
            return OracleVerdict.ok()
        allowed = [c > 0 for c in count]  # the vertices left unpeeled hold every cycle
        left = [v for v in alive if allowed[v]]
        for length in range(2 if directed else 3, len(left) + 1):
            for a in left:
                # an undirected path's reverse has its other end second: the first runs the smaller way
                path = next(walk_cycles(adj, succ, a, length, a + 1, allowed), None)
                if path is not None:
                    return OracleVerdict.miss(path)
        # acyclicity check and enumeration disagree: internal bug
        raise OracleProtocolError("cyclic remainder but no cycle found")

    return OracleContract(check=_memoized(check), universe_size=n)


def cycles_of_length(d: Digraph, k: int, limit: int | None = None, allowed=None, *, back=None) -> np.ndarray:
    """Every simple directed cycle on exactly ``k`` vertices, as the rows of
    an int32 ``(C, k)`` array, each row the cycle's vertex ids sorted; with
    ``limit``, only the first ``limit`` of them; with the bool array
    ``allowed``, only those of the subgraph it induces. ``back`` is
    ``graphs._back_arcs(d)``, listed here when omitted.

    Row order: anchor ascending, then path lexicographic, the order of
    ``walk_cycles``; a row is a walked path with the ids after its anchor
    sorted. Successor lists are built only if some anchor exists: with no arc
    from a higher to a lower id, the call costs one arc mask. Cost grows with
    out-degree**(k-1) per anchor; intended for small constant k.
    """
    if k < 2:
        raise ValueError("cycle length must be at least 2")
    allowed = None if allowed is None else np.asarray(allowed, dtype=bool)
    anchors = _cycle_anchors(d, allowed, back)
    adj, succ = successor_lists(d) if anchors else (None, None)
    free = bytearray(b"\x01") * d.n if allowed is None else bytearray(allowed)  # one mask for every walk
    rows = ([a, *sorted(path[1:])] for a in anchors for path in walk_cycles(adj, succ, a, k, a + 1, free))
    return np.array(list(itertools.islice(rows, limit)), dtype=np.int32).reshape(-1, k)
