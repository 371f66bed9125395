"""Vertex-indexed graph containers and acyclicity primitives.

Vertices are dense integers ``0..n-1``. Both containers are immutable after
construction and store the same four things: ``n``, a canonical
lexicographically sorted edge/arc list, and the CSR of its rows (row u: the
upper neighbors of u in a Graph, the out-neighbors of u in a Digraph), whose
indices are a view of the list's second column. Neither stores a transpose:
a reader that needs one as rows sorts it with ``_transposed_rows``; growth
and the acyclicity checks never do. Ids are int32 and every array is
read-only. Construction works slice by slice over the pair list, gathers
block by block, and every m-length sort key lives in an int64 view of the
int32 pair array it unpacks into. Acyclicity checks are iterative, and the
directed one first tries the id order as its witness; nothing recurses.

Scans that need no order run in two halves with ``_in_halves``: the lower
half on the caller, the upper one on a short-lived thread, as numpy releases
the GIL inside its passes. That covers the canonical check of a pair list
and growth's lower-neighbor scan, from two ``_CHUNK`` slices up; smaller
inputs never start a thread. No thread outlives the call that starts it,
so a process forked afterwards inherits none.
"""

from __future__ import annotations

import threading
from typing import Iterable

import numpy as np


class GraphError(ValueError):
    """Malformed graph input: bad vertex ids, self-loops, or duplicates."""


_CHUNK = 1 << 16  # rows per slice of the construction passes: their temporaries stay in cache
_BLOCK = 1 << 20  # neighbors per block of a gather


def _start(fn, *args):
    """Start ``fn(*args)`` on a short-lived thread. The returned ``join(reraise=True)`` waits for it,
    then raises what it raised, unless ``reraise`` is False, or returns what it returned."""
    box = []

    def run():
        try:
            box.append((fn(*args), None))
        except BaseException as exc:
            box.append((None, exc))

    thread = threading.Thread(target=run)
    thread.start()

    def join(reraise=True):
        thread.join()
        value, error = box[0]
        if error is not None and reraise:
            raise error
        return value

    return join


def _in_halves(scan, total: int) -> list:
    """``[scan(0, total)]`` below two ``_CHUNK`` slices, else ``[scan(0, mid), scan(mid, total)]`` with
    ``mid`` a whole number of slices: the lower half on the caller, the upper one on a short-lived
    thread. numpy releases the GIL inside its passes. The lower half's exception is raised first."""
    if total < 2 * _CHUNK:
        return [scan(0, total)]
    mid = total // (2 * _CHUNK) * _CHUNK
    upper = _start(scan, mid, total)
    try:
        lower = scan(0, mid)
    except BaseException:
        upper(reraise=False)
        raise
    return [lower, upper()]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _pack(n: int, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.multiply(a, n, dtype=np.int64, out=out)
    np.add(out, b, out=out, dtype=np.int64)
    return out


def _packed(pairs: np.ndarray, pack) -> tuple[np.ndarray, np.ndarray]:
    """A new int32 (m, 2) array and an int64 view of it holding the keys
    ``pack(part)`` of each slice of ``pairs``, sorted; ``_unpack`` turns the
    keys back into pairs in that array, so no second m-length buffer exists."""
    out = np.empty((pairs.shape[0], 2), dtype=np.int32)
    keys = out.view(np.int64).reshape(-1)
    for s in range(0, keys.size, _CHUNK):
        part = pairs[s:s + _CHUNK]
        keys[s:s + part.shape[0]] = pack(part)
    keys.sort()
    return out, keys


def _unpack(n: int, keys: np.ndarray) -> None:
    """Keys ``u * n + v`` back to pairs, in place: each key's 8 bytes become its pair's two int32 ids."""
    out = keys.view(np.int32).reshape(-1, 2)
    for s in range(0, keys.size, _CHUNK):
        k = keys[s:s + _CHUNK]
        out[s:s + k.size, 0], out[s:s + k.size, 1] = np.divmod(k, n)  # both read before the slice is overwritten


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


def _slice_keys(n: int, rows: np.ndarray, directed: bool, out: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Validated keys ``u * n + v`` of a slice of pairs, into ``out`` if given, with ``u < v``
    swapped into place for undirected input, and whether every pair was in that order."""
    if rows.min() < 0 or rows.max() >= n:
        raise GraphError(f"vertex id out of range [0, {n})")
    u, v = rows[:, 0], rows[:, 1]
    if (u == v).any():
        raise GraphError("self-loops are not allowed")
    ordered = directed or bool((u < v).all())
    if not ordered:
        u, v = np.minimum(u, v), np.maximum(u, v)
    return _pack(n, u, v, out), ordered


def _normalize_pairs(n: int, pairs, directed: bool) -> np.ndarray:
    """Validate and canonicalize an edge/arc list to a lex-sorted, read-only
    int32 (m, 2) array.

    ``gen_gnp`` and ``gen_planted`` emit pairs in canonical order; ``gen_dnp``'s
    are sorted here. Canonical input is checked slice by slice and copied to
    int32 once, or not at all if it already is a read-only int32 array that
    owns its data. Any other input is sorted.
    """
    arr = _pair_array(n, pairs)
    if not _is_canonical(n, arr, directed):
        return _sorted_pairs(n, arr, directed)
    if arr.dtype == np.int32 and arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable:
        return arr
    return _frozen(arr.astype(np.int32, order="C"))


def _is_canonical(n: int, arr: np.ndarray, directed: bool) -> bool:
    """Whether the pairs ``arr`` are valid and strictly ascending, checked a slice at a time in
    ``_in_halves``; the upper half starts from the key of the pair before it. The first half that
    fails decides, as the first slice that fails does in one scan: it raises its error, or it
    answers False at an order break, and the sort then meets any later error in slice order.
    Each half's keys go to its own row of one caller array: a helper thread allocates little."""
    rows = np.empty((2, min(arr.shape[0], _CHUNK)), dtype=np.int64)

    def scan(lo, hi):
        out = rows[1 if lo else 0]
        try:
            last = _slice_keys(n, arr[lo - 1:lo], directed)[0][0] if lo else -1
            for s in range(lo, hi, _CHUNK):
                part = arr[s:min(s + _CHUNK, hi)]
                keys, ordered = _slice_keys(n, part, directed, out[:part.shape[0]])
                if not (ordered and keys[0] > last and (keys[1:] > keys[:-1]).all()):
                    return False
                last = keys[-1]
            return True
        except GraphError as exc:
            return exc

    for half in _in_halves(scan, arr.shape[0]):
        if isinstance(half, GraphError):
            raise half
        if not half:
            return False
    return True


def _sorted_pairs(n: int, arr: np.ndarray, directed: bool) -> np.ndarray:
    """Pairs in any order: one sort of m int64 keys, then the duplicate check."""
    out, keys = _packed(arr, lambda part: _slice_keys(n, part, directed)[0])
    if (keys[1:] == keys[:-1]).any():
        raise GraphError("duplicate edges are not allowed")
    _unpack(n, keys)
    return _frozen(out)


def _transposed_rows(n: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of a pair list reversed to (v, u): row v lists the u of its pairs
    (u, v), ascending. One sort of m int64 keys."""
    out, keys = _packed(pairs, lambda part: _pack(n, part[:, 1], part[:, 0]))
    _unpack(n, keys)
    return _rows(n, _frozen(out))


def _row_starts(n: int, heads: np.ndarray) -> np.ndarray:
    """CSR row pointer of a sorted column of row ids, one search per slice."""
    starts = np.full(n + 1, heads.size, dtype=np.int64)
    for s in range(0, heads.size, _CHUNK):
        part = heads[s:s + _CHUNK]
        lo, hi = int(heads[s - 1]) + 1 if s else 0, int(part[-1]) + 1
        starts[lo:hi] = s + np.searchsorted(part, np.arange(lo, hi, dtype=part.dtype))
    return starts


def _rows(n: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of a lex-sorted pair list as it stands: row u lists the v of its
    pairs (u, v). The indices are the view ``pairs[:, 1]``, not a copy."""
    return _frozen(_row_starts(n, pairs[:, 0])), pairs[:, 1]


def _pairs_and_rows(n: int, pairs, directed: bool) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """What a Graph or Digraph stores: ``n``, the canonical pair list and its ``_rows``."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    pairs = _normalize_pairs(int(n), pairs, directed)
    return (int(n), pairs, *_rows(int(n), pairs))


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


def _induced_edges(indptr: np.ndarray, indices: np.ndarray, verts, inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v) of the CSR ``(indptr, indices)`` from the ascending ``verts`` to neighbors
    where the mask ``inside`` holds, as two int32 arrays, cut block by block: in lex order, the
    induced edges of a Graph's upper CSR or the induced arcs of a Digraph's out-CSR."""
    verts = np.asarray(verts, dtype=np.int32)
    tails, heads = [], []
    for _, nbrs, rep in _gather_blocks(indptr, indices, verts)[1]:
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
        self.n, self.edge_list, self.up_indptr, self.up_indices = _pairs_and_rows(n, edges, directed=False)

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
    """Directed simple graph, stored like a Graph: canonical arc list and the
    sorted CSR of its rows (row u: the out-neighbors of u), whose ``out_indices``
    is the read-only view ``arc_list[:, 1]``. It stores no transpose.

    Antiparallel arc pairs (u, v) and (v, u) are permitted at this level; the
    random models never generate them, but arbitrary file input may.
    """

    __slots__ = ("n", "arc_list", "out_indptr", "out_indices")

    def __init__(self, n: int, arcs: Iterable = ()):
        self.n, self.arc_list, self.out_indptr, self.out_indices = _pairs_and_rows(n, arcs, directed=True)

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
    eu, ev = _induced_edges(g.up_indptr, g.up_indices, alive, ~gone)
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

    The id order is one if no alive arc runs from a higher id to a lower one (``_cycle_anchors``
    finds none); ``gen_planted`` numbers V minus P so, and a planted recovery's check ends here. Else
    one ``_induced_edges`` of the alive rows gives the alive arcs, and ``drain_sources`` pops
    sources off one stack over their CSR, visiting each arc once. The witness's O(m) pass then
    adds about 2.5 ms to the 30-40 ms check of the ``solve-fvs`` remainder of D(10^5, 10^-5)
    (62,572 vertices), and 1.2 ms to the 5-8 ms one of D(2*10^4, 2*10^-4) (8,337 vertices).
    """
    alive = ~_removed_mask(d.n, removed)
    if not _cycle_anchors(d, alive):
        return True
    verts = np.flatnonzero(alive)
    tails, heads = _induced_edges(d.out_indptr, d.out_indices, verts, alive)
    indeg = np.bincount(heads, minlength=d.n)
    ptr = np.zeros(d.n + 1, dtype=np.int64)  # the sub-CSR of the alive arcs
    np.cumsum(np.bincount(tails, minlength=d.n), out=ptr[1:])
    stack = verts[indeg[verts] == 0].tolist()
    return drain_sources(_CsrRows(ptr, heads).__getitem__, indeg.tolist(), stack) == verts.size


def _back_arcs(d: Digraph) -> np.ndarray:
    """The back arcs: the rows ``(u, a)``, ``u > a``, of the arc list in order, picked from its int64 view."""
    return d.arc_list.view(np.int64)[:, 0][d.arc_list[:, 0] > d.arc_list[:, 1]].view(np.int32).reshape(-1, 2)


def _cycle_anchors(d: Digraph, allowed: np.ndarray | None = None, back: np.ndarray | None = None) -> list[int]:
    """The heads ``a``, ascending, of the back arcs ``(u, a)`` (``back``, else ``_back_arcs(d)``) with
    both ends set in the bool array ``allowed`` (None allows all): the minimum vertex of each cycle
    inside ``allowed`` is one, closed by such an arc."""
    tails, heads = (_back_arcs(d) if back is None else back).T
    if allowed is not None:
        heads = heads[allowed[tails] & allowed[heads]]
    return np.flatnonzero(np.bincount(heads)).tolist()


class _CsrRows:
    """A CSR's rows by vertex, each a memoryview slice of ``indices``: O(1) per read, nothing built up front."""

    __slots__ = ("ptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.ptr, self.indices = memoryview(indptr), memoryview(indices)

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, v: int) -> memoryview:
        return self.indices[self.ptr[v]:self.ptr[v + 1]]


def drain_sources(successors, indeg: list, stack: list) -> int:
    """Kahn's algorithm: pop sources off ``stack`` and count them, pushing each
    successor whose in-degree ``indeg`` (consumed) falls to zero.

    ``successors(v)`` iterates the arcs out of ``v``; ``stack`` holds the
    alive vertices whose counts are at most zero. A vertex is pushed when its
    count falls to exactly zero, so one that starts at or below zero, alive or
    not, is never pushed again. All alive vertices are popped iff they have a
    topological order (with counts one below the degree, iff a Graph is a forest).
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
    cycle of ``d``. Its edges are the sorted keys ``min(u, v) * n + max(u, v)``
    of the arcs, in the ``_packed`` pair array, each run of equal keys kept once.
    """
    edges, keys = _packed(d.arc_list, lambda part: _pack(d.n, part.min(axis=1), part.max(axis=1)))
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    m = int(first.sum())
    if m < keys.size:
        keys[:m] = keys[first]
    _unpack(d.n, keys[:m])
    del keys, first
    edges.resize((m, 2), refcheck=False)  # no view of edges is left
    return Graph(d.n, _frozen(edges))
