"""Explicit hitting set machinery: subset families and the exact solver.

The exact solver keeps on a ``SubsetFamily`` what it proved about it, so
repeated calls on one growing family do not prove it again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable


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
    because it would make every instance infeasible. ``masks`` holds each
    subset, in insertion order, as an int with bit ``e`` set for element
    ``e``; ``subsets`` derives the same subsets as sorted tuples. ``minimal``
    lists, in no set order, the masks that contain no other one.

    ``add`` is the only mutator, so each later state of a family contains
    each earlier one. ``exact_min_hitting_set`` keeps on the family the last
    optimum ``_bound`` and ``_refuted``, the reconstruction steps that found no
    cover at that optimum; both stay true as the family grows.
    """

    def __init__(self, universe_size: int, subsets: Iterable[Iterable[int]] = ()):
        if universe_size < 0:
            raise ValueError("universe size must be nonnegative")
        self.universe_size = universe_size
        self.masks: list[int] = []
        self.minimal: list[int] = []
        self._seen: set[int] = set()
        self._bound = 0
        self._refuted: set[tuple[tuple[int, ...], int]] = set()
        for s in subsets:
            self.add(s)

    def add(self, subset: Iterable[int]) -> bool:
        """Append ``subset``, its elements as Python ints; returns False when
        it was already present."""
        elements = set(map(operator.index, subset))
        if not elements:
            raise ValueError("empty subsets are infeasible and cannot be inserted")
        if min(elements) < 0 or max(elements) >= self.universe_size:
            raise ValueError(f"element out of range [0, {self.universe_size})")
        m = _mask(elements)
        if m in self._seen:
            return False
        self._seen.add(m)
        self.masks.append(m)
        if not any(k & m == k for k in self.minimal):
            self.minimal = [k for k in self.minimal if k & m != m] + [m]
        return True

    @property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(_unmask, self.masks))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return map(_unmask, self.masks)


def _mask(elements: Iterable[int]) -> int:
    return reduce(operator.or_, (1 << e for e in elements), 0)


def _unmask(m: int) -> tuple[int, ...]:
    return tuple([e for e, bit in enumerate(bin(m)[:1:-1]) if bit == "1"])


def _columns(masks: list[int]) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """The bitset form of ``masks`` for ``_search``: ``col``, ``kill`` and ``elems``.

    The masks, sorted by ``(size, mask)``, become the bit positions of an int,
    so a set of subsets is one int. ``elems[i]`` lists the elements of subset
    ``i``, ``col[e]`` is the int of the subsets that contain element ``e``,
    and ``kill[i]`` is the union of subset ``i``'s columns: the subsets that
    share an element with it.
    """
    masks = sorted(masks, key=lambda m: (m.bit_count(), m))
    elems = [_unmask(m) for m in masks]
    col = [0] * max(masks, default=0).bit_length()
    for i, es in enumerate(elems):
        bit = 1 << i
        for e in es:
            col[e] |= bit
    kill = [reduce(operator.or_, (col[e] for e in es), 0) for es in elems]
    return col, kill, elems


def _search(
    alive: int, budget: int, col: list[int], kill: list[int], elems: list[tuple[int, ...]], failed: dict[int, int]
) -> int | None:
    """An element mask of at most ``budget`` elements hitting every subset in
    the int ``alive``, or None: a sound and complete branch and bound over ``_columns``.

    Taking element ``e`` leaves ``alive & ~col[e]``; an element whose column
    is zero is retired and never taken. The bound counts pairwise disjoint
    alive subsets greedily, taking the lowest alive bit ``i`` and clearing
    ``kill[i]``, until the count exceeds the budget. A node branches on its
    lowest alive bit, a smallest unhit subset, over that subset's elements in
    ascending id order, skipping the retired ones. ``failed`` maps an alive set
    to the largest budget at which its branching found no cover.
    """
    if not alive:
        return 0
    if failed.get(alive, -1) >= budget:
        return None
    lb, rest = 0, alive
    while rest:
        lb += 1
        if lb > budget:
            return None
        rest &= ~kill[(rest & -rest).bit_length() - 1]
    for e in elems[(alive & -alive).bit_length() - 1]:
        c = col[e]
        if not c:
            continue
        rest = alive & ~c
        if not rest:
            return 1 << e
        if budget > 1 and (cover := _search(rest, budget - 1, col, kill, elems, failed)) is not None:
            return cover | 1 << e
    failed[alive] = budget
    return None


def exact_min_hitting_set(fam: SubsetFamily) -> HittingSet:
    """Minimum-cardinality hitting set; among optima, the lexicographically
    smallest sorted member list.

    Hitting a subset hits its supersets, so one ``_columns`` build over the
    family's ``minimal`` masks and one failure memo serve the whole call. The
    optimum is the smallest budget for which ``_search`` finds a cover, the
    witness. The reconstruction then walks the elements in ascending order,
    retiring each (its column set to zero) and keeping it when the subsets it
    leaves unhit still have a cover within the remaining budget by the
    elements above it: a witness element without a search, any other when a
    search finds such a cover, which becomes the witness. Retiring columns
    only removes covers, so every failure in the memo stays a failure.

    Repeated calls on one growing family reuse what earlier calls proved. The
    family only grows, so a cover of its residual after a kept prefix and an
    element would also cover the residual of every earlier state. Hence the
    budget scan starts at the last optimum, and while the optimum stays put a
    ``(prefix, element)`` step that found no cover before is skipped without a
    search (its element is still retired). The stored steps are dropped when
    the optimum rises. The answer is the one a fresh family would get.
    """
    col, kill, elems = _columns(fam.minimal)
    alive = (1 << len(elems)) - 1
    failed: dict[int, int] = {}
    budget = fam._bound
    while (witness := _search(alive, budget, col, kill, elems, failed)) is None:
        budget += 1
    if budget > fam._bound:
        fam._bound = budget
        fam._refuted.clear()
    refuted = fam._refuted

    chosen: tuple[int, ...] = ()
    for e, c in enumerate(col):
        col[e] = 0
        rest = alive & ~c
        if rest == alive or (chosen, e) in refuted:
            continue
        cover = witness if witness >> e & 1 else _search(rest, budget - 1, col, kill, elems, failed)
        if cover is None:
            refuted.add((chosen, e))
            continue
        chosen += (e,)
        alive = rest
        budget -= 1
        witness = cover
    if alive:  # cannot happen at the proven optimum
        raise RuntimeError("lexicographic reconstruction failed")
    return HittingSet(chosen)
