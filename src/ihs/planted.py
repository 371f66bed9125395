"""Exact recovery of a planted feedback vertex set from short directed cycles.

The pipeline counts the simple cycles of length at most k (lengths 2 and 3 by
traces of the dense adjacency where it fits the memory charged to the arcs),
builds a greedy hitting set S by absorbing whole unhit cycles (a
k-approximation), checks that S hits them all, and then filters: a vertex of S
is kept iff some cycle of exactly k vertices runs through it inside the graph
restricted to (V minus S) plus that vertex. The other steps enumerate with
``oracles.walk_cycles`` and keep no cycle list. On in-regime planted
instances the complement of S is cycle-free precisely for non-planted
vertices, so the filter returns the planted set exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import _BLOCK, Digraph
from .models import _BYTES_PER_PAIR
from .oracles import OracleProtocolError, _cycle_anchors, cycles_of_length, successor_lists, walk_cycles


class CycleBudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured cycle cap; parameters are out of regime."""


@dataclass
class RecoveryReport:
    recovered: list[int]
    greedy_set: list[int]
    cycles_found: int
    exact_match: bool | None  # None when no ground truth was supplied


def collect_short_cycles(d: Digraph, k: int, max_cycles: int = 10_000_000) -> list[int]:
    """The number of simple cycles of each length 2..k, shortest first, counted
    without listing them. Raises CycleBudgetExceeded as soon as the running
    total passes ``max_cycles``, with the same decision and message on either
    path below.

    Where the float32 adjacency A fits what the memory guard charges the arcs
    (0 < 4 n^2 <= ``_BYTES_PER_PAIR["planted"]`` m), lengths 2 and 3 come from A:
    the 2-cycles are the arcs with a reverse arc, halved, and the 3-cycles
    tr(A^3) / 3, summed over row blocks of A^2 that hold at most
    ``graphs._BLOCK`` floats. This is exact: an entry of A^2 is at most n < 2^24,
    which float32 holds, and the float64 sum of integers stays exact below
    2^53. Each block's partial trace bounds the 3-cycles from below, so the
    budget stops at the first block over the cap. Longer lengths, and every
    length on sparser digraphs, count the paths ``walk_cycles`` yields per
    anchor, stopping at the first anchor over the cap."""
    if k < 2:
        raise ValueError("k must be at least 2")
    a = lists = None
    if 0 < 4 * d.n**2 <= _BYTES_PER_PAIR["planted"] * d.num_arcs:
        a = np.zeros((d.n, d.n), dtype=np.float32)
        a[d.arc_list[:, 0], d.arc_list[:, 1]] = 1
    counts: list[int] = []
    for length in range(2, k + 1):
        counts.append(0)
        if a is not None and length <= 3:
            rises = _trace_counts(a, d.arc_list, length)
        else:
            anchors = _cycle_anchors(d)
            if anchors and lists is None:
                lists = successor_lists(d)
            rises = (sum(1 for _ in walk_cycles(*lists, v, length, v + 1)) for v in anchors)
        for rise in rises:
            counts[-1] += rise
            if sum(counts) > max_cycles:
                raise CycleBudgetExceeded(
                    f"more than {max_cycles} cycles of length <= {length}; "
                    "n*p is too large for this cycle length"
                )
    return counts


def _trace_counts(a: np.ndarray, arcs: np.ndarray, length: int):
    """The cycles of ``length`` 2 or 3 in the digraph of adjacency ``a`` and
    arc list ``arcs``, yielded in parts: one for length 2, one per row block
    of A^2 for length 3. The parts sum to the count, and each running sum is a
    lower bound on it."""
    if length == 2:
        yield int(np.count_nonzero(a[arcs[:, 1], arcs[:, 0]])) // 2
        return
    rows = max(1, _BLOCK // a.shape[0])
    walks = found = 0  # closed 3-walks so far: each 3-cycle is three of them
    for r in range(0, a.shape[0], rows):
        blk = a[r:r + rows] @ a  # paths of two arcs out of the block's rows
        blk *= a.T[r:r + rows]  # ... closed by an arc back
        walks += int(blk.sum(dtype=np.float64))
        # whole 3-cycles: at least ceil(walks / 3), and c + bound > cap iff c + walks / 3 > cap
        bound = -(-walks // 3)
        yield bound - found
        found = bound


def greedy_hit_cycles(d: Digraph, k: int, adj, succ) -> list[int]:
    """The sorted vertices the greedy takes by absorbing, over the lengths 2..k
    in ``cycles_of_length`` order, each cycle the vertices taken so far miss,
    in one lazy pass over ``adj, succ = successor_lists(d)``: an anchor's
    cycles are contiguous in that order and all hit once it is taken, so per
    length and per untaken anchor (a vertex with an arc from a higher id) the
    cycle absorbed is the first path ``walk_cycles`` yields among untaken ones.

    On the planted model, size <= k * |P| holds by construction: V minus P is a
    DAG, so each absorbed cycle holds an untaken planted vertex, and at most |P|
    cycles are absorbed."""
    anchors = _cycle_anchors(d)
    untaken = bytearray(b"\x01") * d.n
    for length in range(2, k + 1):
        for a in anchors:
            if untaken[a] and (path := next(walk_cycles(adj, succ, a, length, a + 1, untaken), None)):
                for v in path:
                    untaken[v] = 0
    return [v for v in range(d.n) if not untaken[v]]


def recover_planted_fvs(
    d: Digraph,
    k: int,
    planted: list[int] | None = None,
    max_cycles: int = 10_000_000,
) -> RecoveryReport:
    """Run the count, greedy hitting, its certificate and the through-vertex filter.

    ``planted`` is optional ground truth used only to fill ``exact_match``.
    """
    if k < 3:
        raise ValueError("recovery needs k >= 3")
    counts = collect_short_cycles(d, k, max_cycles=max_cycles)
    adj, succ = successor_lists(d)
    greedy = greedy_hit_cycles(d, k, adj, succ)

    allowed = np.ones(d.n, dtype=bool)
    allowed[greedy] = False
    if any(len(cycles_of_length(d, length, limit=1, allowed=allowed)) for length in range(2, k + 1)):
        raise OracleProtocolError("a short cycle misses the greedy set")  # walk and enumeration disagree: a bug
    recovered = [v for v in greedy if any(walk_cycles(adj, succ, v, k, 0, allowed))]

    match = None if planted is None else recovered == sorted(planted)
    return RecoveryReport(
        recovered=recovered,
        greedy_set=greedy,
        cycles_found=sum(counts),
        exact_match=match,
    )
