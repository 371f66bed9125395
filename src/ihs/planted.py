"""Exact recovery of a planted feedback vertex set from short directed cycles.

The pipeline counts the simple cycles of length at most k, builds a greedy
hitting set S by absorbing whole unhit cycles (a k-approximation), checks that
S hits them all, and then filters: a vertex of S is kept iff some cycle of
exactly k vertices runs through it inside the graph restricted to (V minus S)
plus that vertex. Where the float32 adjacency A fits the memory charged to the
arcs (``_dense_adjacency``, built once per recovery), lengths 2 to 4 are
counted from traces of powers of A and the filter is a boolean path product
over A; elsewhere, and for the longer lengths, the steps enumerate with
``oracles.walk_cycles``. No step keeps a cycle list, and the greedy skips the
lengths counted empty. On in-regime planted instances the complement of S is
cycle-free precisely for non-planted vertices, so the filter returns the
planted set exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import _BLOCK, Digraph, _cycle_anchors
from .models import _BYTES_PER_PAIR
from .oracles import OracleProtocolError, cycles_of_length, successor_lists, walk_cycles


class CycleBudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured cycle cap; parameters are out of regime."""


@dataclass
class RecoveryReport:
    recovered: list[int]
    greedy_set: list[int]
    cycles_found: int
    exact_match: bool | None  # None when no ground truth was supplied


def _dense_adjacency(d: Digraph) -> np.ndarray | None:
    """The float32 adjacency A of ``d`` where it fits what the memory guard
    charges the arcs, 0 < 4 n^2 <= ``_BYTES_PER_PAIR["planted"]`` m, else None."""
    if not 0 < 4 * d.n**2 <= _BYTES_PER_PAIR["planted"] * d.num_arcs:
        return None
    a = np.zeros((d.n, d.n), dtype=np.float32)
    a[d.arc_list[:, 0], d.arc_list[:, 1]] = 1
    return a


def collect_short_cycles(d: Digraph, k: int, max_cycles: int = 10_000_000, *, a=...) -> list[int]:
    """The number of simple cycles of each length 2..k, shortest first, counted
    without listing them. Raises CycleBudgetExceeded as soon as the running
    total passes ``max_cycles``, with the same decision and message on either
    path below.

    Where ``_dense_adjacency`` gives A, lengths 2 to 4 come from traces of its
    powers (``_trace_counts``). Longer lengths, and every length on sparser
    digraphs, count the paths ``walk_cycles`` yields per anchor, over one
    mask, stopping at the first anchor over the cap. ``a`` is what
    ``_dense_adjacency(d)`` gives, built here unless the caller passes it."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if a is ...:
        a = _dense_adjacency(d)
    lists = None
    counts: list[int] = []
    for length in range(2, k + 1):
        counts.append(0)
        if a is not None and length <= 4:
            rises = _trace_counts(a, d.arc_list, length)
        else:
            anchors = _cycle_anchors(d)
            if anchors and lists is None:
                lists, free = successor_lists(d), bytearray(b"\x01") * d.n
            rises = (sum(1 for _ in walk_cycles(*lists, v, length, v + 1, free)) for v in anchors)
        for rise in rises:
            counts[-1] += rise
            if sum(counts) > max_cycles:
                raise CycleBudgetExceeded(
                    f"more than {max_cycles} cycles of length <= {length}; "
                    "n*p is too large for this cycle length"
                )
    return counts


def _trace_counts(a: np.ndarray, arcs: np.ndarray, length: int):
    """The cycles of ``length`` 2, 3 or 4 in the digraph of adjacency ``a`` and
    arc list ``arcs``, yielded in parts: one for length 2, one per row block R
    of A^2 for the others. The parts sum to the count, and each running sum is
    a lower bound on it.

    The 2-cycles are the arcs with a reverse arc, halved. Each block adds the
    simple closed walks of ``length`` arcs that start in R, and each cycle is
    ``length`` of them, one per vertex. Every closed 3-walk is simple: the
    block adds sum_{i in R} (A^3)_ii. A closed 4-walk from i repeats a vertex
    iff it runs i, u, i, w, i or i, u, w, u, i over 2-cycles: with d2(v) the
    2-cycles through v and S the 2-cycle partner matrix, there are
    d2(i)^2 + (S d2)_i - d2(i) of them, taken off sum_{i in R} (A^4)_ii =
    sum_{i in R, j} (A^2)_ij (A^2)_ji. So 4 C4 = tr(A^4) - 2 sum d2^2 + 2 C2.

    The blocks hold at most ``graphs._BLOCK`` floats. This is exact: an entry
    of A^2 is at most n < 2^24, which float32 holds; the products of two are
    taken in float64, and a block's float64 sum of integers stays below
    |R| n^3 <= 2^20 n^2 < 2^53 for any n whose A fits in memory."""
    if length == 2:
        yield int(np.count_nonzero(a[arcs[:, 1], arcs[:, 0]])) // 2
        return
    n = a.shape[0]
    if length == 4:
        two = arcs[a[arcs[:, 1], arcs[:, 0]] != 0]  # the arcs with a reverse arc
        d2 = np.bincount(two[:, 0], minlength=n)
        repeats = d2 * d2 + np.bincount(two[:, 0], weights=d2[two[:, 1]], minlength=n).astype(np.int64) - d2
    rows = max(1, _BLOCK // n)
    walks = found = 0  # simple closed walks so far: each cycle is ``length`` of them
    for r in range(0, n, rows):
        blk = a[r:r + rows] @ a  # paths of two arcs out of the block's rows
        if length == 3:
            blk *= a.T[r:r + rows]  # ... closed by an arc back
            walks += int(blk.sum(dtype=np.float64))
        else:  # ... closed by a path of two arcs back: rows R of (A^T)^2
            walks += int(np.einsum("ij,ij->", blk, a.T[r:r + rows] @ a.T, dtype=np.float64))
            walks -= int(repeats[r:r + rows].sum())
        # whole cycles: at least ceil(walks / length), and c + bound > cap iff c + walks / length > cap
        bound = -(-walks // length)
        yield bound - found
        found = bound


def greedy_hit_cycles(d: Digraph, k: int, adj, succ, counts: list[int]) -> list[int]:
    """The sorted vertices the greedy takes by absorbing, over the lengths 2..k
    in ``cycles_of_length`` order, each cycle the vertices taken so far miss,
    in one lazy pass over ``adj, succ = successor_lists(d)``: an anchor's
    cycles are contiguous in that order and all hit once it is taken, so per
    length and per untaken anchor (a vertex with an arc from a higher id) the
    cycle absorbed is the first path ``walk_cycles`` yields among untaken ones.
    ``counts`` are the cycles of each length 2..k (``collect_short_cycles``):
    a length counted 0 has nothing to absorb, and its pass is skipped.

    On the planted model, size <= k * |P| holds by construction: V minus P is a
    DAG, so each absorbed cycle holds an untaken planted vertex, and at most |P|
    cycles are absorbed."""
    anchors = _cycle_anchors(d)
    untaken = bytearray(b"\x01") * d.n
    for length in range(2, k + 1):
        if counts[length - 2] == 0:
            continue
        for a in anchors:
            if untaken[a] and (path := next(walk_cycles(adj, succ, a, length, a + 1, untaken), None)):
                for v in path:
                    untaken[v] = 0
    return [v for v in range(d.n) if not untaken[v]]


def _dense_filter(a: np.ndarray, k: int, s: list[int]) -> list[int]:
    """The vertices v of ``s``, in order, that close a cycle of exactly ``k``
    vertices inside R + v, R = V minus ``s``, in the digraph of adjacency ``a``,
    provided R holds no cycle of length 2..k (the greedy's certificate).

    For the rows X = A[s] with the columns outside R zeroed, X = min(X A, 1),
    columns outside R zeroed again, k - 2 times, marks the ends of the walks
    of k - 1 arcs from v whose other vertices lie in R; v is kept iff one has
    an arc back to v. A walk of at most k - 1 vertices inside R that repeated
    a vertex would hold a shorter cycle there, so each is a simple path, and v
    is not in R: the closed walks are exactly the k-cycles through v.
    Entries of X A are at most n < 2^24, which float32 holds exactly. The
    rows of ``s`` go in blocks of at most ``graphs._BLOCK`` floats."""
    n = a.shape[0]
    inside = np.ones(n, dtype=np.float32)
    inside[s] = 0
    rows = max(1, _BLOCK // n)
    kept: list[int] = []
    for r in range(0, len(s), rows):
        blk = s[r:r + rows]
        x = a[blk] * inside
        for _ in range(k - 2):
            x = x @ a
            np.minimum(x, 1, out=x)
            x *= inside
        closes = np.einsum("ij,ji->i", x, a[:, blk])
        kept += [v for v, c in zip(blk, closes.tolist()) if c]
    return kept


def recover_planted_fvs(
    d: Digraph,
    k: int,
    planted: list[int] | None = None,
    max_cycles: int = 10_000_000,
) -> RecoveryReport:
    """Run the count, greedy hitting, its certificate and the through-vertex
    filter: ``_dense_filter`` where ``_dense_adjacency`` gives A, built once
    for the count and the filter, else a walk from each vertex of the greedy
    set.

    ``planted`` is optional ground truth used only to fill ``exact_match``.
    """
    if k < 3:
        raise ValueError("recovery needs k >= 3")
    a = _dense_adjacency(d)
    counts = collect_short_cycles(d, k, max_cycles=max_cycles, a=a)
    adj, succ = successor_lists(d)
    greedy = greedy_hit_cycles(d, k, adj, succ, counts)

    allowed = np.ones(d.n, dtype=bool)
    allowed[greedy] = False
    if any(len(cycles_of_length(d, length, limit=1, allowed=allowed)) for length in range(2, k + 1)):
        raise OracleProtocolError("a short cycle misses the greedy set")  # walk and enumeration disagree: a bug
    if a is None:
        free = bytearray(allowed)
        recovered = [v for v in greedy if any(walk_cycles(adj, succ, v, k, 0, free))]
    else:
        recovered = _dense_filter(a, k, greedy)

    match = None if planted is None else recovered == sorted(planted)
    return RecoveryReport(
        recovered=recovered,
        greedy_set=greedy,
        cycles_found=sum(counts),
        exact_match=match,
    )
