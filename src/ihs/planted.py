"""Exact recovery of a planted feedback vertex set from short directed cycles.

The pipeline counts the simple cycles of length at most k, builds a greedy
hitting set S by absorbing whole unhit cycles (a k-approximation), each one
walked to on demand instead of listed, checks that S hits them all, and then
filters: a vertex of S is kept iff some cycle of exactly k vertices runs
through it inside the graph restricted to (V minus S) plus that vertex. On
in-regime planted instances the complement of S is cycle-free precisely for
non-planted vertices, so the filter returns the planted set exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Digraph
from .oracles import OracleProtocolError, _closing_levels, cycles_of_length, successor_lists, walk_cycles


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
    by the level expansion of ``cycles_of_length`` without listing them. Raises
    CycleBudgetExceeded as soon as the running total passes ``max_cycles``:
    counting stops at the first anchor over the cap."""
    if k < 2:
        raise ValueError("k must be at least 2")
    counts: list[int] = []
    for length in range(2, k + 1):
        counts.append(0)
        for *_, keep in _closing_levels(d, length):
            counts[-1] += int(np.count_nonzero(keep))
            if sum(counts) > max_cycles:
                raise CycleBudgetExceeded(
                    f"more than {max_cycles} cycles of length <= {length}; "
                    "n*p is too large for this cycle length"
                )
    return counts


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
    arcs = d.arc_list
    anchors = np.flatnonzero(np.bincount(arcs[arcs[:, 0] > arcs[:, 1], 1])).tolist()
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
