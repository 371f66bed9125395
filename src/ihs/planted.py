"""Exact recovery of a planted feedback vertex set from short directed cycles.

The pipeline counts the simple cycles of length at most k, builds a greedy
hitting set S by absorbing whole unhit cycles (a k-approximation), checks that
S hits them all, and then filters: a vertex of S is kept iff some cycle of
exactly k vertices runs through it inside the graph restricted to (V minus S)
plus that vertex. The greedy and the counts of lengths 2 and 3 take each
cycle once, at its minimum vertex q, the head of a back arc (u -> q, u > q);
recovery lists the back arcs once. With A = U + L, U the forward arcs (u < v)
and L the back arcs, tr(A^2) = 2 tr(U L) and tr(A^3) = 3 tr(U A L): the
2-cycles are the back arcs with a reverse arc, and where the float32 adjacency
A fits the memory charged to the arcs (``_dense_adjacency``, built once per
recovery) the 3-cycles are sum_q (U A L)_qq over the heads q, in blocks of Q's
rows, exact while |Q| n^2 < 2^53; the 4-cycles come from traces of powers of A
and the filter is a boolean path product over A. Elsewhere, and for longer
lengths, the steps walk with ``oracles.walk_cycles``, and none keeps a cycle
list. On in-regime planted instances the complement of S is cycle-free
precisely for non-planted vertices, so the filter returns the planted set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import _BLOCK, Digraph, _back_arcs, _cycle_anchors, _gather, _pack
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
    a = np.zeros(d.n * d.n, dtype=np.float32)
    a[_pack(d.n, d.arc_list[:, 0], d.arc_list[:, 1]).astype(np.intp, copy=False)] = 1
    return a.reshape(d.n, d.n)


def collect_short_cycles(d: Digraph, k: int, max_cycles: int = 10_000_000, *, a=..., back=None) -> list[int]:
    """The number of simple cycles of each length 2..k, shortest first, counted
    without listing them. Raises CycleBudgetExceeded as soon as the running
    total passes ``max_cycles``, with the same decision and message on either
    path below.

    The 2-cycles come from the back arcs (``_two_cycles``), lengths 3 and 4
    from products of A where ``_dense_adjacency`` gives it (``_trace_counts``).
    The rest count the paths ``walk_cycles`` yields per anchor, over one mask,
    stopping at the first anchor over the cap. ``a`` and ``back`` default to
    ``_dense_adjacency(d)`` and ``graphs._back_arcs(d)``."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if a is ...:
        a = _dense_adjacency(d)
    if back is None:
        back = _back_arcs(d)
    anchors = lists = None
    counts: list[int] = []
    for length in range(2, k + 1):
        counts.append(0)
        if length == 2:
            rises = [_two_cycles(d, back, a)]
        elif a is not None and length <= 4:
            rises = _trace_counts(a, back, length)
        else:
            anchors = _cycle_anchors(d, back=back) if anchors is None else anchors
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


def _two_cycles(d: Digraph, back: np.ndarray, a: np.ndarray | None) -> int:
    """The back arcs (t, q) whose reverse q -> t is an arc: read in ``a`` if given,
    else the keys q n + t that ``np.searchsorted`` finds among the heads' rows."""
    if a is not None:
        return int(np.count_nonzero(a[back[:, 1], back[:, 0]]))
    heads = np.flatnonzero(np.bincount(back[:, 1]))
    nbrs, src = _gather(d.out_indptr, d.out_indices, heads)
    keys = np.append(_pack(d.n, heads[src], nbrs), d.n * d.n)  # and a sentinel past every key
    wanted = np.sort(_pack(d.n, back[:, 1], back[:, 0]))
    return int(np.count_nonzero(keys[np.searchsorted(keys, wanted)] == wanted))


def _trace_counts(a: np.ndarray, back: np.ndarray, length: int):
    """The cycles of ``length`` 3 or 4 in the digraph of adjacency ``a`` and
    back arcs ``back``, yielded in parts, one per row block of at most
    ``graphs._BLOCK`` floats. The parts sum to the count; each running sum is
    a lower bound on it.

    Length 3: a 3-cycle q -> y -> z -> q read from its minimum q starts with a
    forward arc and ends with a back arc, and read from any other vertex it
    does not, so tr(A^3) = 3 tr(U A L) (as tr(A^2) = 2 tr(U L)). Each cycle
    is counted once, at its minimum, by sum_q (U[q] A) . L[:, q] over the
    heads q of the back arcs, in blocks Q of them at O(|Q| n^2); a block's
    part is exactly the cycles whose minimum lies in it.

    Length 4: a block R of rows of A adds sum_{i in R} (A^4)_ii, the closed
    4-walks from R, less those that repeat a vertex (i, u, i, w, i or
    i, u, w, u, i over 2-cycles): d2(i)^2 + (S d2)_i - d2(i), with d2(v) the
    2-cycles through v and S the 2-cycle partner matrix. So 4 C4 = tr(A^4) -
    2 sum d2^2 + 2 C2, and a block yields the rise of ceil(walks / 4).

    Exact: an entry of U A or A^2 is at most n < 2^24, which float32 holds,
    and a block's float64 sum of their products stays below |Q| n^2 <= 2^20 n
    or |R| n^3 <= 2^20 n^2, below 2^53 for any n whose A fits in memory."""
    n = a.shape[0]
    rows = max(1, _BLOCK // n)
    if length == 3:
        heads = np.flatnonzero(np.bincount(back[:, 1]))
        for r in range(0, heads.size, rows):
            q = heads[r:r + rows]
            later = np.arange(n) > q[:, None]  # the columns past each row's vertex
            blk = (a[q] * later) @ a  # U[q] A: paths q -> y -> z with y > q ...
            blk *= a.T[q] * later  # ... closed by a back arc z -> q, z > q
            yield int(blk.sum(dtype=np.float64))
        return
    pairs = back[a[back[:, 1], back[:, 0]] != 0]  # the back arcs of the 2-cycles
    two = np.concatenate([pairs, pairs[:, ::-1]])  # the arcs with a reverse arc
    d2 = np.bincount(two[:, 0], minlength=n)
    repeats = d2 * d2 + np.bincount(two[:, 0], weights=d2[two[:, 1]], minlength=n).astype(np.int64) - d2
    walks = found = 0  # simple closed walks so far: each cycle is four of them
    for r in range(0, n, rows):
        blk = a[r:r + rows] @ a  # paths of two arcs out of R, closed by two arcs back: rows R of (A^T)^2
        walks += int(np.einsum("ij,ij->", blk, a.T[r:r + rows] @ a.T, dtype=np.float64))
        walks -= int(repeats[r:r + rows].sum())
        # whole cycles: at least ceil(walks / 4), and c + bound > cap iff c + walks / 4 > cap
        bound = -(-walks // 4)
        yield bound - found
        found = bound


def greedy_hit_cycles(d: Digraph, k: int, adj, succ, counts: list[int], back=None) -> list[int]:
    """The sorted vertices the greedy takes by absorbing, over the lengths 2..k
    in ``cycles_of_length`` order, each cycle the vertices taken so far miss,
    in one lazy pass over ``adj, succ = successor_lists(d)``: an anchor's
    cycles are contiguous in that order and all hit once it is taken, so per
    length and per untaken anchor (a head of ``back``, else of ``_back_arcs(d)``)
    the cycle absorbed is the first path ``walk_cycles`` yields among untaken ones.
    ``counts`` are the cycles of each length 2..k (``collect_short_cycles``):
    a length counted 0 has nothing to absorb, and its pass is skipped.

    On the planted model, size <= k * |P| holds by construction: V minus P is a
    DAG, so each absorbed cycle holds an untaken planted vertex, and at most |P|
    cycles are absorbed."""
    anchors = _cycle_anchors(d, back=back)
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
    set. The count and the greedy share one list of back arcs.

    ``planted`` is optional ground truth used only to fill ``exact_match``.
    """
    if k < 3:
        raise ValueError("recovery needs k >= 3")
    a, back = _dense_adjacency(d), _back_arcs(d)
    counts = collect_short_cycles(d, k, max_cycles=max_cycles, a=a, back=back)
    adj, succ = successor_lists(d)
    greedy = greedy_hit_cycles(d, k, adj, succ, counts, back)

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
