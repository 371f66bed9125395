"""Explicit hitting set machinery: subset families, feasibility, exact and greedy solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class HittingSet:
    """A candidate hitting set as a sorted tuple of element ids."""

    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @staticmethod
    def of(elements: Iterable[int]) -> "HittingSet":
        return HittingSet(tuple(sorted(set(elements))))


class SubsetFamily:
    """A growing, duplicate-free list of nonempty subsets of ``0..universe_size-1``.

    Duplicate insertions are silently ignored; an empty subset is rejected
    because it would make every instance infeasible.
    """

    def __init__(self, universe_size: int, subsets: Iterable[Iterable[int]] = ()):
        if universe_size < 0:
            raise ValueError("universe size must be nonnegative")
        self.universe_size = universe_size
        self.subsets: list[tuple[int, ...]] = []
        self._seen: set[tuple[int, ...]] = set()
        for s in subsets:
            self.add(s)

    def add(self, subset: Iterable[int]) -> bool:
        """Append ``subset``; returns False when it was already present."""
        canon = tuple(sorted(set(subset)))
        if not canon:
            raise ValueError("empty subsets are infeasible and cannot be inserted")
        if canon[0] < 0 or canon[-1] >= self.universe_size:
            raise ValueError(f"element out of range [0, {self.universe_size})")
        if canon in self._seen:
            return False
        self._seen.add(canon)
        self.subsets.append(canon)
        return True

    def __len__(self) -> int:
        return len(self.subsets)

    def __iter__(self):
        return iter(self.subsets)

    def __contains__(self, subset) -> bool:
        return tuple(sorted(set(subset))) in self._seen

    def masks(self) -> list[int]:
        return [_mask(s) for s in self.subsets]


def _mask(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def _unmask(m: int) -> tuple[int, ...]:
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def hits_all(h: Iterable[int], fam: SubsetFamily) -> bool:
    """True iff ``h`` intersects every subset in the family (vacuously true when empty)."""
    hs = set(h)
    return all(not hs.isdisjoint(s) for s in fam.subsets)


_BLOCK = 1 << 12  # rows per block of the greedy scan


def absorb_unhit(rows: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Take, whole and in row order, every row of the int array ``rows`` that
    has no element set in the bool mask ``taken`` yet, setting its elements
    there; returns ``taken``. A row of a set may repeat its elements, so sets
    of mixed sizes fit one array by padding each with its last element.

    Rows are scanned a block at a time: the block's unhit rows are found in
    one pass, and after each take only the rows still unhit are checked again.
    """
    for s in range(0, rows.shape[0], _BLOCK):
        block = rows[s:s + _BLOCK]
        unhit = np.flatnonzero(~_hit(taken, block))
        while unhit.size:
            taken[block[unhit[0]]] = True
            unhit = unhit[1:][~_hit(taken, block[unhit[1:]])]
    return taken


def _hit(taken: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether each row has an element set in ``taken``, a column at a time."""
    hit = taken[rows[:, 0]]
    for j in range(1, rows.shape[1]):
        hit |= taken[rows[:, j]]
    return hit


def greedy_hitting_set(fam: SubsetFamily, order: Sequence[int] | None = None) -> HittingSet:
    """Process subsets in ``order`` (defaults to insertion order); whenever the
    current subset is unhit, take all of its elements.

    The result hits every processed subset, and when every subset has at most
    k elements it is within a factor k of optimal.
    """
    subsets = fam.subsets if order is None else [fam.subsets[i] for i in order]
    width = max(map(len, subsets), default=1)
    rows = np.array([s + s[-1:] * (width - len(s)) for s in subsets], dtype=np.int64)
    taken = absorb_unhit(rows.reshape(-1, width), np.zeros(fam.universe_size, dtype=bool))
    return HittingSet(tuple(np.flatnonzero(taken).tolist()))


def _drop_supersets(masks: list[int]) -> list[int]:
    # hitting a subset also hits its supersets, so only minimal subsets matter
    masks = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _greedy_cover_size(masks: list[int]) -> int:
    remaining = list(masks)
    size = 0
    while remaining:
        counts: dict[int, int] = {}
        for m in remaining:
            for e in _unmask(m):
                counts[e] = counts.get(e, 0) + 1
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        remaining = [m for m in remaining if not (m >> best) & 1]
        size += 1
    return size


def _disjoint_lower_bound(masks: list[int]) -> int:
    used = 0
    lb = 0
    for m in masks:
        if not m & used:
            lb += 1
            used |= m
    return lb


def _cover_exists(masks: list[int], budget: int) -> bool:
    """Whether at most ``budget`` elements hit every mask: a sound and
    complete branch and bound over int bitsets.

    The masks, stably sorted by size, become the bit positions of an int, so
    the subsets a node still has to hit are one int ``alive``. Element ``e``
    is the column ``col[e]`` of the subsets that contain it, and taking it
    leaves ``alive & ~col[e]``. A node branches on its lowest alive bit, a
    smallest unhit subset, over that subset's elements by descending
    ``(col[e] & alive).bit_count()``, ties by id. Its bound counts pairwise
    disjoint alive subsets greedily: take the lowest alive bit ``i`` and clear
    ``kill[i]``, the union of subset ``i``'s columns, until the count exceeds
    the budget.
    """
    if not masks:
        return True
    if budget <= 0 or 0 in masks:
        return False
    masks = sorted(masks, key=int.bit_count)
    elems = [_unmask(m) for m in masks]
    col = [0] * max(masks).bit_length()
    for i, es in enumerate(elems):
        bit = 1 << i
        for e in es:
            col[e] |= bit
    kill = []
    for es in elems:
        k = 0
        for e in es:
            k |= col[e]
        kill.append(k)
    return _search((1 << len(masks)) - 1, budget, col, kill, elems)


def _search(
    alive: int, budget: int, col: list[int], kill: list[int], elems: list[tuple[int, ...]]
) -> bool:
    """One node of ``_cover_exists``: can ``budget`` elements hit every subset in ``alive``?"""
    lb = 0
    rest = alive
    while rest:
        lb += 1
        if lb > budget:
            return False
        rest &= ~kill[(rest & -rest).bit_length() - 1]
    pick = elems[(alive & -alive).bit_length() - 1]
    # stable on ascending ids, so ties keep the smaller element first
    for e in sorted(pick, key=lambda e: -(col[e] & alive).bit_count()):
        rest = alive & ~col[e]
        if not rest or (budget > 1 and _search(rest, budget - 1, col, kill, elems)):
            return True
    return False


def exact_min_hitting_set(fam: SubsetFamily) -> HittingSet:
    """Minimum-cardinality hitting set; among optima, the lexicographically
    smallest sorted member list.

    The optimum size is the smallest budget between the pairwise-disjoint
    lower bound and the greedy upper bound for which ``_cover_exists`` finds
    a cover; a lexicographic reconstruction at that size follows, asking
    ``_cover_exists`` for each candidate element whether the subsets it leaves
    unhit, cut to the elements above it, still have a cover. Each call builds
    its own columns: subsets are bit positions of an int, each element the
    int of the subsets containing it (see ``_cover_exists``).
    """
    masks = _drop_supersets(fam.masks())
    if not masks:
        return HittingSet(())
    ub = _greedy_cover_size(masks)
    lb = _disjoint_lower_bound(masks)
    opt = next((b for b in range(lb, ub) if _cover_exists(masks, b)), ub)

    chosen: list[int] = []
    remaining = masks
    budget = opt
    floor_elem = 0
    while remaining:
        placed = False
        present = 0
        for m in remaining:
            present |= m
        for e in _unmask(present >> floor_elem << floor_elem):
            rest = [m for m in remaining if not (m >> e) & 1]
            low_bits = (1 << (e + 1)) - 1
            if _cover_exists([m & ~low_bits for m in rest], budget - 1):
                chosen.append(e)
                remaining = rest
                budget -= 1
                floor_elem = e + 1
                placed = True
                break
        if not placed:  # cannot happen at the proven optimum
            raise RuntimeError("lexicographic reconstruction failed")
    return HittingSet(tuple(chosen))
