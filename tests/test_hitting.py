from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ihs.generic as generic_mod
from ihs import (
    CycleBudgetExceeded,
    Digraph,
    HittingSet,
    ModelParams,
    OracleContract,
    OracleVerdict,
    SolverAbort,
    SubsetFamily,
    bfs_cycle_oracle,
    cycles_of_length,
    exact_min_hitting_set,
    explicit_family_oracle,
    gen_gnp,
    recover_planted_fvs,
    shortest_cycle_oracle,
    solve_implicit_hitting_set,
)
from ihs.hitting import _columns, _mask, _search
from ihs.oracles import successor_lists
from ihs.planted import collect_short_cycles, greedy_hit_cycles

from test_graphs import random_digraph


def brute_force_optima(universe: int, subsets: list[tuple[int, ...]]):
    """All minimum hitting sets by exhaustive mask enumeration (numpy-vectorized)."""
    masks = np.arange(1 << universe, dtype=np.int64)
    feasible = np.ones(masks.size, dtype=bool)
    for s in subsets:
        smask = 0
        for e in s:
            smask |= 1 << e
        feasible &= (masks & smask) != 0
    sizes = np.zeros(masks.size, dtype=np.int64)
    for e in range(universe):
        sizes += (masks >> e) & 1
    best = sizes[feasible].min()
    winners = masks[feasible & (sizes == best)]
    out = []
    for w in winners.tolist():
        out.append(tuple(e for e in range(universe) if (w >> e) & 1))
    return int(best), out


def random_family(rng, universe, n_subsets, max_size):
    fam = SubsetFamily(universe)
    for _ in range(n_subsets):
        size = int(rng.integers(1, max_size + 1))
        fam.add(rng.choice(universe, size=size, replace=False).tolist())
    return fam


def test_family_rejects_empty_and_out_of_range():
    fam = SubsetFamily(4)
    with pytest.raises(ValueError):
        fam.add([])
    with pytest.raises(ValueError):
        fam.add([4])
    assert fam.add([1, 2])
    assert not fam.add([2, 1])  # duplicate silently ignored
    assert len(fam) == 1


def test_numpy_ids_are_stored_as_python_ints():
    # ids of 64 and above would wrap in an int64 shift
    subsets = [(70, 80), (3, 90), (65, 99), (3, 70)]
    plain = SubsetFamily(100, subsets)
    fam = SubsetFamily(100, [np.array(s) for s in subsets])
    assert fam.subsets == plain.subsets
    assert all(type(e) is int for s in fam.subsets for e in s)
    assert fam.masks == plain.masks
    assert exact_min_hitting_set(fam) == exact_min_hitting_set(plain)
    assert exact_min_hitting_set(fam).members == (3, 65, 70)
    with pytest.raises(TypeError):
        fam.add([1.5])


def test_generic_solver_accepts_numpy_missed_subsets():
    subsets = [(70, 80), (3, 90), (65, 99), (3, 70)]

    def numpy_oracle(fam):
        def check(h):
            hs = set(h)
            for s in fam.subsets:
                if hs.isdisjoint(s):
                    return OracleVerdict.miss(np.array(s, dtype=np.int64))
            return OracleVerdict.ok()

        return OracleContract(check=check, universe_size=fam.universe_size)

    fam = SubsetFamily(100, subsets)
    want = solve_implicit_hitting_set(explicit_family_oracle(fam))
    got = solve_implicit_hitting_set(numpy_oracle(fam))
    assert got.solution == want.solution
    assert got.collected.subsets == want.collected.subsets
    assert got.oracle_calls == want.oracle_calls
    with pytest.raises(TypeError):
        OracleVerdict.miss([0.5])


def test_exact_trivial_cases():
    assert exact_min_hitting_set(SubsetFamily(4)).members == ()
    forced = exact_min_hitting_set(SubsetFamily(4, [(1,), (2,), (3,)]))
    assert forced.members == (1, 2, 3)


def test_exact_lexicographic_tie_break():
    # brute force over all 2^5 candidates: optimum size 2, optima {1,3},{2,3},{2,4}
    fam = SubsetFamily(5, [(1, 2), (2, 3), (3, 4)])
    best, optima = brute_force_optima(5, fam.subsets)
    assert best == 2
    assert exact_min_hitting_set(fam).members == min(optima)
    assert min(optima) == (1, 3)


@pytest.mark.parametrize("seed", range(200))
def test_exact_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    universe = int(rng.integers(3, 17))
    fam = random_family(rng, universe, int(rng.integers(1, 9)), min(4, universe))
    best, optima = brute_force_optima(universe, fam.subsets)
    got = exact_min_hitting_set(fam)
    assert explicit_family_oracle(fam).check(got.members).feasible
    assert got.size == best
    assert got.members == min(optima)


def lazy_greedy(d: Digraph, k: int) -> list[int]:
    return greedy_hit_cycles(d, k, *successor_lists(d), collect_short_cycles(d, k))


def test_greedy_forced_trace():
    # triangles 1->2->3 and 3->4->5: the first is absorbed whole and hits the second
    d = Digraph(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)])
    assert lazy_greedy(d, 3) == [1, 2, 3]
    assert lazy_greedy(Digraph(6, [(0, 1), (1, 2)]), 3) == []


def test_greedy_respects_order():
    # shorter cycles first: the 2-cycle {3, 4} is absorbed before the triangle
    # {1, 2, 3}, which it hits
    d = Digraph(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 3)])
    assert lazy_greedy(d, 3) == [3, 4]
    assert lazy_greedy(d, 2) == [3, 4]


def tuple_greedy(subsets):
    """The greedy as a loop over tuples: take each subset the taken set misses."""
    chosen = set()
    for s in subsets:
        if chosen.isdisjoint(s):
            chosen.update(s)
    return tuple(sorted(chosen))


@pytest.mark.parametrize("budget", [1, 3, 4096])
@pytest.mark.parametrize("seed", range(20))
def test_array_greedy_matches_tuple_loop(seed, budget):
    # recovery's greedy set equals the tuple loop over the cycle arrays of
    # cycles_of_length, lengths 2..4 in order; more cycles than the budget
    # raise instead
    rng = np.random.default_rng(20_000 + seed)
    d = random_digraph(int(rng.integers(3, 14)), float(rng.uniform(0.15, 0.5)), 21_000 + seed)
    listed = [tuple(c) for length in (2, 3, 4) for c in cycles_of_length(d, length).tolist()]
    if len(listed) > budget:
        with pytest.raises(CycleBudgetExceeded):
            recover_planted_fvs(d, 4, max_cycles=budget)
    else:
        assert tuple(recover_planted_fvs(d, 4, max_cycles=budget).greedy_set) == tuple_greedy(listed)


@pytest.mark.parametrize("seed", range(30))
def test_greedy_k_approximation(seed):
    # 50 random size-3 subsets over a 20 element universe
    rng = np.random.default_rng(10_000 + seed)
    fam = SubsetFamily(20)
    for _ in range(50):
        fam.add(rng.choice(20, size=3, replace=False).tolist())
    taken = tuple_greedy(fam.subsets)
    exact = exact_min_hitting_set(fam)
    assert explicit_family_oracle(fam).check(taken).feasible
    assert len(taken) <= 3 * exact.size


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_solver_properties(seed):
    rng = np.random.default_rng(seed)
    universe = int(rng.integers(2, 13))
    fam = random_family(rng, universe, int(rng.integers(1, 7)), min(4, universe))
    exact = exact_min_hitting_set(fam)
    taken = tuple_greedy(fam.subsets)
    assert explicit_family_oracle(fam).check(exact.members).feasible
    assert explicit_family_oracle(fam).check(taken).feasible
    assert exact.size <= len(taken)
    max_size = max(len(s) for s in fam.subsets)
    assert len(taken) <= max_size * exact.size
    # determinism
    assert exact_min_hitting_set(fam).members == exact.members


def test_hitting_set_container():
    h = HittingSet.of([3, 1, 1])
    assert h.members == (1, 3)
    assert h.size == 2


def brute_cover_size(ids, masks):
    """Fewest of ``ids`` that hit every (nonempty) mask, by trying every subset."""
    for k in range(len(ids) + 1):
        for chosen in combinations(ids, k):
            cm = _mask(chosen)
            if all(m & cm for m in masks):
                return k


def search_cover(masks, budget, failed=None):
    """The element mask one search over fresh columns finds for ``budget``, or None."""
    col, kill, elems = _columns(masks)
    return _search((1 << len(masks)) - 1, budget, col, kill, elems, {} if failed is None else failed)


def assert_search_matches(ids, masks, budget, size, failed=None):
    cover = search_cover(masks, budget, failed)
    cover_exists = cover is not None
    assert cover_exists == (budget >= size)
    if cover_exists:
        assert cover.bit_count() <= budget
        assert cover & ~_mask(ids) == 0
        assert all(m & cover for m in masks)


@st.composite
def mask_families(draw):
    # element ids up to 150 and up to 90 subsets: columns and the alive set
    # both span several machine words
    ids = draw(st.lists(st.integers(0, 150), min_size=1, max_size=9, unique=True))
    subset = st.lists(st.sampled_from(ids), min_size=1, max_size=4)
    return ids, [_mask(s) for s in draw(st.lists(subset, max_size=90))]


def wide_family(seed, n_subsets):
    rng = np.random.default_rng(seed)
    ids = sorted(rng.choice(np.arange(60, 140), size=8, replace=False).tolist())
    return ids, [_mask(rng.choice(ids, size=int(rng.integers(1, 4)), replace=False).tolist())
                 for _ in range(n_subsets)]


@given(mask_families())
@example(wide_family(0, 70))
@example(wide_family(1, 130))
@settings(max_examples=150, deadline=None)
def test_cover_exists_matches_brute_force(family):
    ids, masks = family
    size = brute_cover_size(ids, masks)
    shared = {}  # one failure memo across ascending budgets, as the exact solver's budget scan keeps it
    for budget in range(len(ids) + 1):
        assert_search_matches(ids, masks, budget, size)
        assert_search_matches(ids, masks, budget, size, shared)


def test_cover_exists_empty_subset_is_uncoverable():
    assert search_cover([0b11, 0], 2) is None
    assert search_cover([], 0) == 0


# ---------------------------------------------------------------------------
# the exact solver as it was before the bitset branch and bound, frozen here
# as the reference: mask lists filtered per node

def _ref_unmask(m):
    return tuple(e for e in range(m.bit_length()) if m >> e & 1)


def _ref_drop_supersets(masks):
    masks = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _ref_greedy_cover_size(masks):
    remaining = list(masks)
    size = 0
    while remaining:
        counts = {}
        for m in remaining:
            for e in _ref_unmask(m):
                counts[e] = counts.get(e, 0) + 1
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        remaining = [m for m in remaining if not (m >> best) & 1]
        size += 1
    return size


def _ref_disjoint_lower_bound(masks):
    used = 0
    lb = 0
    for m in masks:
        if not m & used:
            lb += 1
            used |= m
    return lb


def _ref_cover_exists(masks, budget):
    if not masks:
        return True
    if budget <= 0 or 0 in masks:
        return False
    if _ref_disjoint_lower_bound(masks) > budget:
        return False
    pick = min(masks, key=int.bit_count)
    counts = {e: sum(m >> e & 1 for m in masks) for e in _ref_unmask(pick)}
    for e in sorted(counts, key=lambda e: (-counts[e], e)):
        bit = 1 << e
        if _ref_cover_exists([m for m in masks if not m & bit], budget - 1):
            return True
    return False


def reference_exact(fam):
    masks = _ref_drop_supersets(fam.masks)
    if not masks:
        return ()
    ub = _ref_greedy_cover_size(masks)
    lb = _ref_disjoint_lower_bound(masks)
    budget = next((b for b in range(lb, ub) if _ref_cover_exists(masks, b)), ub)
    chosen = []
    remaining = masks
    floor_elem = 0
    while remaining:
        for e in range(floor_elem, fam.universe_size):
            if not any((m >> e) & 1 for m in remaining):
                continue
            rest = [m for m in remaining if not (m >> e) & 1]
            low_bits = (1 << (e + 1)) - 1
            if _ref_cover_exists([m & ~low_bits for m in rest], budget - 1):
                chosen.append(e)
                remaining = rest
                budget -= 1
                floor_elem = e + 1
                break
    return tuple(chosen)


def collected_families(monkeypatch, oracle, n, p):
    """Copies of every family the generic solver hands its exact subroutine on
    G(n, p) seed 1, each with the answer the solver got on its growing family."""
    families = []

    def recording(fam):
        answer = exact_min_hitting_set(fam)
        families.append((SubsetFamily(fam.universe_size, fam.subsets), answer))
        return answer

    monkeypatch.setattr(generic_mod, "exact_min_hitting_set", recording)
    g = gen_gnp(ModelParams(n=n, p=p, seed=1))
    contract = bfs_cycle_oracle(g) if oracle == "bfs-cycle" else shortest_cycle_oracle(g)
    try:
        solve_implicit_hitting_set(contract)
    except SolverAbort:
        pass
    return families


@pytest.mark.parametrize(
    "n, p, oracle",
    [
        (n, p, oracle)
        for n, p in ((30, 0.15), (40, 0.1))
        for oracle in ("bfs-cycle", "shortest-cycle")
    ]
    # the generic-ladder rung that carries most of the exact solver's time
    + [(60, 0.07, "bfs-cycle")],
)
def test_exact_matches_frozen_reference_on_solver_families(monkeypatch, n, p, oracle):
    families = collected_families(monkeypatch, oracle, n, p)
    assert len(families) >= 5
    for fam, carried in families:
        want = reference_exact(fam)
        assert carried.members == want
        assert exact_min_hitting_set(fam).members == want


@pytest.mark.parametrize("seed", range(40))
def test_exact_matches_frozen_reference_on_random_families(seed):
    rng = np.random.default_rng(30_000 + seed)
    universe = int(rng.integers(3, 80))
    fam = random_family(rng, universe, int(rng.integers(1, 100)), min(4, universe))
    assert exact_min_hitting_set(fam).members == reference_exact(fam)


def carried_answers(universe, subsets):
    """Solve one family after each ``add``, checking each answer against a
    fresh copy's; returns the optima."""
    fam = SubsetFamily(universe)
    sizes = []
    for s in subsets:
        fam.add(s)
        got = exact_min_hitting_set(fam)
        assert got == exact_min_hitting_set(SubsetFamily(universe, fam.subsets))
        sizes.append(got.size)
    return sizes


# the fifth subset makes the first one a superset of it
SUPERSET_CASE = (8, [(0, 1, 2, 3), (4, 5), (2, 6), (3, 7), (0, 1), (5, 6, 7), (1, 4)])
# the optimum stays at 3 for five calls, then rises to 4 and on to 5
RISING_CASE = (
    9,
    [(0, 1, 2), (3, 4, 5), (0, 3), (1, 4), (2, 5, 8), (6, 7, 8), (0, 6), (4, 7), (1, 8),
     (2, 3, 6), (5, 7), (1, 6, 8)],
)


@st.composite
def growing_families(draw):
    universe = draw(st.integers(1, 12))
    subset = st.sets(st.integers(0, universe - 1), min_size=1, max_size=4)
    return universe, draw(st.lists(subset, min_size=1, max_size=15))


@given(growing_families())
@example(SUPERSET_CASE)
@example(RISING_CASE)
@settings(max_examples=200, deadline=None)
def test_carried_answers_match_fresh_solves(case):
    carried_answers(*case)


@given(growing_families())
@example(SUPERSET_CASE)
@example((3, [(0, 1), (1,), (0, 1), (1,), (2,), (0, 1, 2)]))
@settings(max_examples=200, deadline=None)
def test_minimal_list_drops_exactly_the_supersets(case):
    # repeats, and subsets that arrive after their supersets
    universe, subsets = case
    fam = SubsetFamily(universe)
    for s in subsets:
        fam.add(s)
        assert len(fam.minimal) == len(set(fam.minimal))
        assert set(fam.minimal) == set(_ref_drop_supersets(fam.masks))


def test_pinned_growth_cases_cover_supersets_and_rising_optima():
    universe, subsets = SUPERSET_CASE
    assert set(subsets[4]) < set(subsets[0])
    carried_answers(universe, subsets)
    sizes = carried_answers(*RISING_CASE)
    assert sizes[4:] == [3, 3, 3, 3, 3, 4, 5, 5]


def test_exact_solver_leaves_no_garbage_cycles():
    # each branch and bound call must free its columns by reference counting
    import gc

    rng = np.random.default_rng(5)
    fam = random_family(rng, 30, 60, 4)
    g = gen_gnp(ModelParams(n=24, p=0.15, seed=1))
    calls = [
        lambda: exact_min_hitting_set(fam),
        lambda: solve_implicit_hitting_set(bfs_cycle_oracle(g)),
    ]
    for call in calls:
        call()
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()
