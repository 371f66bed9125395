import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ihs import HittingSet, SubsetFamily, exact_min_hitting_set, greedy_hitting_set, hits_all


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


def test_hits_all_cases():
    assert hits_all([], SubsetFamily(4))
    assert hits_all([2], SubsetFamily(4, [(1, 2), (2, 3)]))
    assert not hits_all([1], SubsetFamily(4, [(1,), (3,)]))


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
    assert hits_all(got.members, fam)
    assert got.size == best
    assert got.members == min(optima)


def test_greedy_forced_trace():
    fam = SubsetFamily(6, [(1, 2, 3), (3, 4, 5)])
    assert greedy_hitting_set(fam).members == (1, 2, 3)
    assert greedy_hitting_set(SubsetFamily(6)).members == ()


def test_greedy_respects_order():
    fam = SubsetFamily(6, [(1, 2, 3), (3, 4, 5)])
    assert greedy_hitting_set(fam, order=[1, 0]).members == (3, 4, 5)


def tuple_greedy(subsets):
    """The greedy as a loop over tuples: take each subset the taken set misses."""
    chosen = set()
    for s in subsets:
        if chosen.isdisjoint(s):
            chosen.update(s)
    return tuple(sorted(chosen))


@pytest.mark.parametrize("block", [1, 3, 4096])
@pytest.mark.parametrize("seed", range(20))
def test_array_greedy_matches_tuple_loop(monkeypatch, seed, block):
    # subsets of sizes 1..5 become rows padded with their last element; small
    # blocks move the scan's block boundaries through the family
    import ihs.hitting as hitting_mod

    monkeypatch.setattr(hitting_mod, "_BLOCK", block)
    rng = np.random.default_rng(20_000 + seed)
    universe = int(rng.integers(5, 40))
    fam = SubsetFamily(universe)
    for _ in range(int(rng.integers(1, 80))):
        fam.add(rng.choice(universe, size=int(rng.integers(1, min(5, universe) + 1)), replace=False).tolist())
    assert greedy_hitting_set(fam).members == tuple_greedy(fam.subsets)
    order = rng.permutation(len(fam)).tolist()
    want = tuple_greedy(fam.subsets[i] for i in order)
    assert greedy_hitting_set(fam, order=order).members == want


@pytest.mark.parametrize("seed", range(30))
def test_greedy_k_approximation(seed):
    # 50 random size-3 subsets over a 20 element universe
    rng = np.random.default_rng(10_000 + seed)
    fam = SubsetFamily(20)
    for _ in range(50):
        fam.add(rng.choice(20, size=3, replace=False).tolist())
    greedy = greedy_hitting_set(fam)
    exact = exact_min_hitting_set(fam)
    assert hits_all(greedy.members, fam)
    assert greedy.size <= 3 * exact.size


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_solver_properties(seed):
    rng = np.random.default_rng(seed)
    universe = int(rng.integers(2, 13))
    fam = random_family(rng, universe, int(rng.integers(1, 7)), min(4, universe))
    exact = exact_min_hitting_set(fam)
    greedy = greedy_hitting_set(fam)
    assert hits_all(exact.members, fam)
    assert hits_all(greedy.members, fam)
    assert exact.size <= greedy.size
    max_size = max(len(s) for s in fam.subsets)
    assert greedy.size <= max_size * exact.size
    # determinism
    assert exact_min_hitting_set(fam).members == exact.members
    assert greedy_hitting_set(fam).members == greedy.members


def test_hitting_set_container():
    h = HittingSet.of([3, 1, 1])
    assert h.members == (1, 3)
    assert h.size == 2
