"""Exact recovery of a planted feedback vertex set from short directed cycles.

The pipeline enumerates every simple cycle of length at most k, builds a
greedy hitting set S by absorbing whole unhit cycles (a k-approximation), and
then filters: a vertex of S is kept iff some cycle of exactly k vertices runs
through it inside the graph restricted to (V minus S) plus that vertex. On
in-regime planted instances the complement of S is cycle-free precisely for
non-planted vertices, so the filter returns the planted set exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Digraph
from .hitting import absorb_unhit
from .models import PlantedInstance
from .oracles import cycles_of_length, successor_lists, walk_cycles


class CycleBudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured cycle cap; parameters are out of regime."""


@dataclass
class RecoveryReport:
    recovered: list[int]
    greedy_set: list[int]
    cycles_found: int
    exact_match: bool | None  # None when no ground truth was supplied


def collect_short_cycles(d: Digraph, k: int, max_cycles: int = 10_000_000) -> list[np.ndarray]:
    """All simple cycles with at most k vertices: one int32 ``(C, length)``
    array from ``cycles_of_length`` per length 2..k, shortest first.

    Within a length, cycles appear anchored at ascending minimum vertex and in
    path-lexicographic order, which fixes the greedy processing order. Raises
    CycleBudgetExceeded as soon as the running total passes ``max_cycles``:
    enumeration stops at the first cycle over the cap.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    found: list[np.ndarray] = []
    total = 0
    for length in range(2, k + 1):
        found.append(cycles_of_length(d, length, limit=max_cycles + 1 - total))
        total += len(found[-1])
        if total > max_cycles:
            raise CycleBudgetExceeded(
                f"more than {max_cycles} cycles of length <= {length}; "
                "n*p is too large for this cycle length"
            )
    return found


def greedy_hit_cycles(cycles: list[np.ndarray], n: int) -> list[int]:
    """Absorb every cycle that the vertices taken so far miss, over the arrays
    of ``collect_short_cycles`` in order; returns the sorted vertices taken."""
    taken = np.zeros(n, dtype=bool)
    for rows in cycles:
        absorb_unhit(rows, taken)
    return np.flatnonzero(taken).tolist()


def recover_planted_fvs(
    d: Digraph,
    k: int,
    planted: list[int] | None = None,
    max_cycles: int = 10_000_000,
) -> RecoveryReport:
    """Run enumeration, greedy hitting, and the through-vertex filter.

    ``planted`` is optional ground truth used only to fill ``exact_match``.
    """
    if k < 3:
        raise ValueError("recovery needs k >= 3")
    cycles = collect_short_cycles(d, k, max_cycles=max_cycles)
    greedy = greedy_hit_cycles(cycles, d.n)

    adj, succ = successor_lists(d)
    allowed = np.ones(d.n, dtype=bool)
    allowed[greedy] = False
    recovered = [v for v in greedy if any(walk_cycles(adj, succ, v, k, 0, allowed))]

    match = None if planted is None else recovered == sorted(planted)
    return RecoveryReport(
        recovered=recovered,
        greedy_set=greedy,
        cycles_found=sum(map(len, cycles)),
        exact_match=match,
    )


@dataclass
class PlantedDiagnostics:
    """Statistical spot-checks of the structure recovery relies on.

    ``coverage``: per sampled complement subset, how many planted vertices had
    a k-cycle inside the subset plus that vertex. Recovery needs all of them.
    ``greedy_size`` vs ``greedy_bound`` checks the k-approximation bound
    k * |planted|.
    """

    coverage: list[tuple[int, int]]  # (covered planted vertices, planted count) per sample
    all_covered: bool
    hypothesis_note: str | None
    greedy_size: int
    greedy_bound: int
    greedy_ok: bool


def planted_diagnostics(
    inst: PlantedInstance,
    samples: int = 5,
    seed: int | None = None,
    k: int | None = None,
) -> PlantedDiagnostics:
    """Sample subsets of the non-planted part and verify every planted vertex
    closes a k-cycle inside them; also check the greedy hitting set size bound."""
    d = inst.digraph
    planted = inst.planted
    if k is None:
        k = inst.params.k
    if k is None or k < 3:
        raise ValueError("diagnostics need k >= 3")
    if samples < 1:
        raise ValueError("need at least one sample")
    if seed is None:
        seed = (inst.params.seed + 0x9E3779B9) % 2**64
    rng = np.random.Generator(np.random.PCG64(seed))

    others = np.asarray(sorted(set(range(d.n)) - set(planted)), dtype=np.int64)
    take = math.ceil(others.size / 10) if others.size else 0
    adj, succ = successor_lists(d)
    coverage: list[tuple[int, int]] = []
    allowed = np.zeros(d.n, dtype=bool)
    for _ in range(samples):
        subset = rng.choice(others, size=take, replace=False) if take else others
        allowed[:] = False
        allowed[subset] = True
        covered = sum(any(walk_cycles(adj, succ, v, k, 0, allowed)) for v in planted)
        coverage.append((covered, len(planted)))

    all_covered = bool(coverage) and all(c == total for c, total in coverage)
    note = None
    if not all_covered:
        note = (
            "some planted vertices close no short cycle in sampled subsets; "
            "edge probability is likely below the recovery regime for this k"
        )

    greedy_size = len(greedy_hit_cycles(collect_short_cycles(d, k), d.n))
    bound = k * len(planted)
    return PlantedDiagnostics(
        coverage=coverage,
        all_covered=all_covered,
        hypothesis_note=note,
        greedy_size=greedy_size,
        greedy_bound=bound,
        greedy_ok=greedy_size <= bound,
    )
