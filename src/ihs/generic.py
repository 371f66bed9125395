"""Oracle-driven exact solver for implicit hitting set instances, plus the
online augmenting heuristic.

The exact solver takes the oracle as its only input and alternates two
moves. Starting from the full universe it improves the current feasible set
through bounded swaps (remove ``|Y| <= 2`` elements, add ``|X| < |Y|``) that keep
the set feasible for every subset collected so far; one pass over the
collection finds the first such swap. Each oracle rejection adds the missed
subset to the collection, one ``SubsetFamily`` that holds each subset as an
int mask. When no swap applies, it solves the explicit
minimum hitting set over the collection: matching sizes or a feasible
explicit optimum certify global optimality, otherwise the collection grows
and the climb restarts from the universe, reusing the swap found at each set
it reaches again. Every round hands the exact solver the same growing
``SubsetFamily``, so it starts from the last optimum and skips the
reconstruction steps it refuted in earlier rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hitting import HittingSet, SubsetFamily, _unmask, exact_min_hitting_set
from .oracles import OracleContract, OracleProtocolError, OracleVerdict


@dataclass
class SolveCertificate:
    solution: HittingSet
    collected: SubsetFamily
    proof: str  # "size_match" or "feasible_optimum"
    oracle_calls: int


class SolverAbort(RuntimeError):
    """Iteration cap exceeded; carries the partial state for diagnosis."""

    def __init__(self, message: str, best: tuple[int, ...], collected: SubsetFamily):
        super().__init__(message)
        self.best = best
        self.collected = collected


def _validated(
    verdict: OracleVerdict, query: set[int] | frozenset[int], universe_size: int
) -> OracleVerdict:
    if not verdict.feasible:
        if not verdict.missed:
            raise OracleProtocolError("oracle returned an empty missed subset")
        # a verdict built directly need not be sorted
        if min(verdict.missed) < 0 or max(verdict.missed) >= universe_size:
            raise OracleProtocolError(f"oracle returned an element outside [0, {universe_size})")
        if not query.isdisjoint(verdict.missed):
            raise OracleProtocolError("oracle returned a subset intersecting the query")
    return verdict


def _swap_proposal(current: int, outside: int, masks: list[int]) -> int | None:
    """The first set ``(current - Y) | X`` of the swap enumeration, ``|X| < |Y| <= 2``,
    that hits every subset mask in ``masks``, as a mask; None when no swap applies.

    ``current`` and ``outside`` are disjoint element masks. Removing ``Y``
    leaves a mask unhit iff its trace ``mask & current`` lies in ``Y``. A
    first pass ORs the one-element traces and stops at an empty one; if none
    is empty, ``Y = {a}`` works for each ``a`` that no trace names, the lowest
    first. When that finds none, a second pass groups the masks by traces of at
    most two elements: ``Y = {a, b}`` needs ``X = {x}``, the lowest ``x``
    outside in every mask whose trace lies in ``{a, b}``.
    """
    single = 0
    for s in masks:
        t = s & current
        if not t & (t - 1):
            if not t:  # current misses this mask, and so does every removal
                break
            single |= t
    else:
        if free := current & ~single:
            return current ^ (free & -free)
    need: dict[int, int] = {}  # trace -> the AND of the masks with that trace
    for s in masks:
        t = s & current
        if t.bit_count() <= 2:
            need[t] = need.get(t, -1) & s
    inside = [1 << e for e in _unmask(current)]
    base = outside & need.get(0, -1)
    for i, a in enumerate(inside):
        with_a = base & need.get(a, -1)
        if not with_a:
            continue
        for b in inside[i + 1:]:
            if common := with_a & need.get(b, -1) & need.get(a | b, -1):
                return current ^ a ^ b | (common & -common)
    return None


def solve_implicit_hitting_set(oracle: OracleContract, max_iterations: int | None = None) -> SolveCertificate:
    """Run the alternating swap/relaxation loop over ``oracle.universe_size``
    elements to a certified optimum.

    Swaps remove at most two elements, which keeps every swap scan
    polynomial; the certificate does not depend on the neighborhood size.
    ``max_iterations`` is a safety cap on oracle queries,
    ``10 * universe_size + 1000`` by default; past it the solve raises
    ``SolverAbort``.

    Swap enumeration is deterministic: ``|Y|`` ascending, Y over sorted subsets
    of the current set, then X empty or one element of the complement, the
    smallest first; the first feasible candidate is accepted. The current set
    and the collected subsets are kept as int masks.

    The swap found at each set is kept by that set, on any descent of any
    round: it stays the first candidate while it hits the subsets collected
    since it was last checked (each earlier one misses a subset still
    collected), so its query is asked again; only a set never reached, or
    whose swap misses a newer subset, is scanned. "No swap applies" stays true.
    """
    universe_size = oracle.universe_size
    if universe_size <= 0:
        raise ValueError("universe must be nonempty")
    budget = max_iterations if max_iterations is not None else 10 * universe_size + 1000
    collected = SubsetFamily(universe_size)
    oracle_calls = 0
    universe = (1 << universe_size) - 1

    def ask(query: frozenset[int]) -> OracleVerdict:
        nonlocal oracle_calls
        oracle_calls += 1
        if oracle_calls > budget:
            raise SolverAbort(f"iteration cap {budget} exceeded", _unmask(current), collected)
        return _validated(oracle.check(query), query, universe_size)

    def collect(subset: tuple[int, ...]) -> None:
        # every query hits the collected subsets, so a repeat breaks the contract
        if not collected.add(subset):
            raise OracleProtocolError(f"oracle repeated an already collected subset {subset}")

    # per current set: [its swap proposal or None, the proposal's query, family length when last checked]
    steps: dict[int, list] = {}
    while True:
        current = universe
        # bounded-swap descent: keep the collected family hit at every step
        while True:
            step = steps.get(current)
            if step is None or step[0] is not None and any(not step[0] & s for s in collected.masks[step[2]:]):
                proposal = _swap_proposal(current, universe ^ current, collected.masks)
                query = None if proposal is None else frozenset(_unmask(proposal))
                step = steps[current] = [proposal, query, len(collected)]
            if step[0] is None:
                break
            verdict = ask(step[1])
            if verdict.feasible:
                current, step[2] = step[0], len(collected)
            else:
                collect(verdict.missed)
        optimum = exact_min_hitting_set(collected)
        if len(optimum.members) == current.bit_count():
            return SolveCertificate(HittingSet(_unmask(current)), collected, "size_match", oracle_calls)
        verdict = ask(frozenset(optimum.members))
        if verdict.feasible:
            return SolveCertificate(optimum, collected, "feasible_optimum", oracle_calls)
        collect(verdict.missed)


def online_augment(oracle: OracleContract) -> tuple[HittingSet, int]:
    """Online mode: start empty, add the minimum id of each missed subset.

    Elements are never removed. Returns the feasible set and the number of
    oracle misses.
    """
    chosen: set[int] = set()
    misses = 0
    while True:
        verdict = _validated(oracle.check(frozenset(chosen)), chosen, oracle.universe_size)
        if verdict.feasible:
            return HittingSet.of(chosen), misses
        misses += 1
        chosen.add(min(verdict.missed))
