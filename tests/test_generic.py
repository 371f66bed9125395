from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ihs import (
    Graph,
    ModelParams,
    OracleContract,
    OracleProtocolError,
    OracleVerdict,
    SolverAbort,
    SubsetFamily,
    bfs_cycle_oracle,
    exact_min_hitting_set,
    explicit_family_oracle,
    gen_gnp,
    online_augment,
    shortest_cycle_oracle,
    solve_implicit_hitting_set,
)
from ihs.generic import _swap_proposal

from test_hitting import _ref_unmask, brute_force_optima, random_family


def solve_family(fam: SubsetFamily, **kwargs):
    return solve_implicit_hitting_set(explicit_family_oracle(fam), **kwargs)


def test_empty_family_returns_empty_set():
    cert = solve_family(SubsetFamily(4))
    assert cert.solution.members == ()
    assert cert.proof == "size_match"


def test_small_explicit_family():
    cert = solve_family(SubsetFamily(5, [(1, 2), (2, 3)]))
    assert cert.solution.members == (2,)


def test_triangle_with_bfs_oracle():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    cert = solve_implicit_hitting_set(bfs_cycle_oracle(tri, 0))
    assert cert.solution.size == 1
    assert bfs_cycle_oracle(tri, 0).check(cert.solution.members).feasible


@pytest.mark.parametrize("seed", range(100))
def test_optimum_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    universe = int(rng.integers(2, 15))
    fam = random_family(rng, universe, int(rng.integers(1, 13)), min(4, universe))
    cert = solve_family(fam)
    best, _ = brute_force_optima(universe, fam.subsets)
    assert cert.solution.size == best
    # certificate re-validation
    assert explicit_family_oracle(fam).check(cert.solution.members).feasible
    assert exact_min_hitting_set(cert.collected).size == cert.solution.size
    # every collected subset really belongs to the instance
    for s in cert.collected:
        assert s in set(fam.subsets)


@pytest.mark.parametrize("ymax", [1, 2, 3])
def test_any_swap_width_is_optimal(ymax):
    # the certificate does not depend on the swap width: the solver (width 2)
    # and a reference descent of width ymax both reach the brute-force optimum
    rng = np.random.default_rng(999)
    for _ in range(20):
        universe = int(rng.integers(2, 10))
        fam = random_family(rng, universe, int(rng.integers(1, 8)), min(3, universe))
        cert = solve_family(fam)
        reference = reference_descent(explicit_family_oracle(fam), max_swap_out=ymax)[0]
        best, _ = brute_force_optima(universe, fam.subsets)
        assert cert.solution.size == len(reference) == best


def test_determinism():
    rng = np.random.default_rng(7)
    fam = random_family(rng, 10, 8, 3)
    a = solve_family(fam)
    b = solve_family(fam)
    assert a.solution.members == b.solution.members
    assert a.oracle_calls == b.oracle_calls
    assert list(a.collected) == list(b.collected)


def test_iteration_cap_aborts():
    fam = SubsetFamily(8, [(i, (i + 1) % 8, (i + 2) % 8) for i in range(8)])
    with pytest.raises(SolverAbort) as info:
        solve_family(fam, max_iterations=1)
    assert info.value.collected is not None


def test_rejects_bad_oracle():
    def bad_check(h):
        return OracleVerdict.miss((0,)) if 0 not in h else OracleVerdict.miss((0,))

    oracle = OracleContract(check=bad_check, universe_size=3)
    with pytest.raises(OracleProtocolError):
        solve_implicit_hitting_set(oracle)


# (5, 0) is built directly and unsorted, so its last element is in range
@pytest.mark.parametrize("missed", [(5,), (5, 0), (-1, 2)])
@pytest.mark.parametrize("entry", [solve_implicit_hitting_set, online_augment])
def test_rejects_a_missed_element_outside_the_universe(entry, missed):
    oracle = OracleContract(check=lambda h: OracleVerdict(missed), universe_size=5)
    with pytest.raises(OracleProtocolError, match="outside"):
        entry(oracle)


def test_online_augment_traces():
    fam = SubsetFamily(5, [(1, 2), (2, 3)])
    hs, misses = online_augment(explicit_family_oracle(fam))
    assert hs.members == (1, 2)  # adds 1, then 2
    assert misses == 2

    hs2, misses2 = online_augment(explicit_family_oracle(SubsetFamily(5)))
    assert hs2.members == () and misses2 == 0

    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    hs3, misses3 = online_augment(bfs_cycle_oracle(tri, 0))
    assert hs3.members == (0,) and misses3 == 1


@pytest.mark.parametrize("seed", range(40))
def test_online_augment_feasible_with_bounded_misses(seed):
    rng = np.random.default_rng(seed)
    universe = int(rng.integers(2, 12))
    fam = random_family(rng, universe, int(rng.integers(1, 10)), min(4, universe))
    hs, misses = online_augment(explicit_family_oracle(fam))
    assert explicit_family_oracle(fam).check(hs.members).feasible
    assert misses <= universe


def reference_descent(oracle, max_swap_out=2, max_iterations=None):
    """The swap/relaxation loop over Python sets, as it was before the bitmask
    descent: every candidate is checked against the whole collected family.
    ``max_swap_out`` bounds ``|Y|``; the solver's own width is 2.
    Returns (solution, collected subsets, proof, oracle calls)."""
    universe_size = oracle.universe_size
    budget = max_iterations if max_iterations is not None else 10 * universe_size + 1000
    collected = SubsetFamily(universe_size)
    calls = 0
    current = set(range(universe_size))

    def ask(query):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise SolverAbort("cap", tuple(sorted(current)), collected)
        return oracle.check(frozenset(query))

    while True:
        current = set(range(universe_size))
        while True:
            proposal = None
            outside = sorted(set(range(universe_size)) - current)
            for y_size in range(1, min(max_swap_out, len(current)) + 1):
                for y in combinations(sorted(current), y_size):
                    for x_size in range(0, min(y_size, len(outside) + 1)):
                        for x in combinations(outside, x_size):
                            cand = (current | set(x)) - set(y)
                            if all(not cand.isdisjoint(s) for s in collected):
                                proposal = cand
                                break
                        if proposal is not None:
                            break
                    if proposal is not None:
                        break
                if proposal is not None:
                    break
            if proposal is None:
                break
            verdict = ask(proposal)
            if verdict.feasible:
                current = proposal
            else:
                collected.add(verdict.missed)
        optimum = exact_min_hitting_set(collected)
        if optimum.size == len(current):
            return tuple(sorted(current)), list(collected), "size_match", calls
        verdict = ask(optimum.members)
        if verdict.feasible:
            return optimum.members, list(collected), "feasible_optimum", calls
        collected.add(verdict.missed)


def recorded(contract):
    """The contract with every query it receives appended to a list."""
    queries = []

    def check(h):
        queries.append(tuple(sorted(h)))
        return contract.check(h)

    return OracleContract(check=check, universe_size=contract.universe_size), queries


def assert_same_run(contract):
    ours, got = recorded(contract)
    theirs, want = recorded(contract)
    expected = reference_descent(theirs)
    cert = solve_implicit_hitting_set(ours)
    assert got == want
    assert (cert.solution.members, list(cert.collected), cert.proof, cert.oracle_calls) == expected
    return cert


def _ref_swap_proposal(current, outside, masks):
    """``_swap_proposal`` as it was before the one-pass scan: for each Y in
    enumeration order, the masks ``current - Y`` leaves unhit, filtered anew."""
    inside = [1 << e for e in _ref_unmask(current)]
    meets = [(s, s & current) for s in masks]
    for y_size in (1, 2):
        few = [(s, t) for s, t in meets if t.bit_count() <= y_size]
        for y in combinations(inside, y_size):
            ymask = sum(y)
            kept = current ^ ymask
            unhit = [s for s, t in few if not t & ~ymask]
            if not unhit:
                return kept
            common = outside if y_size == 2 else 0
            for s in unhit:
                common &= s
            if common:
                return kept | (common & -common)
    return None


@st.composite
def swap_states(draw):
    # masks the current set misses (trace 0) are drawn too: a faulty oracle can collect them
    universe = draw(st.integers(1, 12))
    current = draw(st.integers(0, (1 << universe) - 1))
    masks = draw(st.lists(st.integers(1, (1 << universe) - 1), max_size=14))
    return current, ((1 << universe) - 1) ^ current, masks


# every element of {0, 1} is critical: no swap applies, or Y = {0, 1} with X = {2}
NO_SWAP = (0b011, 0b100, [0b001, 0b010])
SWAP_IN_ONE = (0b011, 0b100, [0b101, 0b110])
# no trace names 0 or 1, but the current set misses the one mask: no single
# removal applies, and Y = {0, 1} with X = {2} does
FREE_BUT_MISSED = (0b011, 0b100, [0b100])


@given(swap_states())
@example(NO_SWAP)
@example(SWAP_IN_ONE)
@example((0b111, 0, []))
@example((0, 0b11, [0b01]))
@example(FREE_BUT_MISSED)
@settings(max_examples=400, deadline=None)
def test_swap_proposal_matches_the_enumeration(state):
    assert _swap_proposal(*state) == _ref_swap_proposal(*state)


def test_pinned_swap_states_reach_both_phase_two_outcomes():
    assert _swap_proposal(*NO_SWAP) is None
    assert _swap_proposal(*SWAP_IN_ONE) == 0b100
    assert _swap_proposal(*FREE_BUT_MISSED) == 0b100


@pytest.mark.parametrize("ymax", [1, 2, 3])
@pytest.mark.parametrize("seed", range(50))
def test_query_sequence_matches_set_descent_explicit(seed, ymax):
    # the solver's run is the reference's at width 2; a reference descent of
    # width 1 or 3 (at 3, seeds 28, 38, 39 and 42 accept a swap that adds two
    # elements) certifies an optimum of the same size
    rng = np.random.default_rng(40_000 + seed)
    universe = int(rng.integers(3, 14))
    fam = random_family(rng, universe, int(rng.integers(1, 14)), min(4, universe))
    if ymax == 2:
        assert_same_run(explicit_family_oracle(fam))
    else:
        reference = reference_descent(explicit_family_oracle(fam), max_swap_out=ymax)[0]
        assert solve_family(fam).solution.size == len(reference)


@pytest.mark.parametrize("oracle", [bfs_cycle_oracle, shortest_cycle_oracle])
def test_query_sequence_matches_set_descent_cycles(oracle):
    g = gen_gnp(ModelParams(n=30, p=0.15, seed=1))
    cert = assert_same_run(oracle(g))
    assert cert.oracle_calls > 100


@pytest.mark.parametrize("oracle", [bfs_cycle_oracle, shortest_cycle_oracle])
def test_query_sequence_matches_set_descent_on_the_n40_ladder_rung(oracle):
    cert = assert_same_run(oracle(gen_gnp(ModelParams(n=40, p=0.1, seed=1))))
    assert cert.oracle_calls > 800


def assert_same_abort(contract, cap):
    ours, got = recorded(contract)
    theirs, want = recorded(contract)
    with pytest.raises(SolverAbort) as expected:
        reference_descent(theirs, max_iterations=cap)
    with pytest.raises(SolverAbort) as info:
        solve_implicit_hitting_set(ours, max_iterations=cap)
    assert got == want and len(got) == cap
    assert info.value.best == expected.value.best
    assert list(info.value.collected) == list(expected.value.collected)


def test_query_sequence_matches_set_descent_at_the_cap():
    assert_same_abort(bfs_cycle_oracle(gen_gnp(ModelParams(n=30, p=0.15, seed=1))), 120)


def test_query_sequence_matches_set_descent_on_the_aborting_ladder_rung():
    # the generic-ladder rung that exits 3 at its default cap of 1,600 queries;
    # 800 queries take it through 15 exact solves
    assert_same_abort(bfs_cycle_oracle(gen_gnp(ModelParams(n=60, p=0.07, seed=1))), 800)


@pytest.fixture
def solver_steps(monkeypatch):
    """The solver's swap scans and exact solves, by name, in call order."""
    import ihs.generic

    steps = []
    for name in ("_swap_proposal", "exact_min_hitting_set"):
        fn = getattr(ihs.generic, name)
        monkeypatch.setattr(ihs.generic, name, lambda *args, _fn=fn, _name=name: steps.append(_name) or _fn(*args))
    return steps


@pytest.mark.parametrize("oracle", [bfs_cycle_oracle, shortest_cycle_oracle])
def test_later_rounds_replay_the_descent_on_the_n40_ladder_rung(oracle, solver_steps):
    # every round after the first adds the optimum's miss, which the whole
    # last descent still hits: it is replayed without a swap scan
    solve_implicit_hitting_set(oracle(gen_gnp(ModelParams(n=40, p=0.1, seed=1))))
    first_exact = solver_steps.index("exact_min_hitting_set")
    assert first_exact > 50
    assert "_swap_proposal" not in solver_steps[first_exact:]
    assert solver_steps.count("exact_min_hitting_set") > 20


def test_query_sequence_matches_set_descent_at_a_cap_inside_a_replay(solver_steps):
    # round 1 asks 63 queries (its descent, then the optimum); round 2
    # replays the next 22 and the cap stops it at the eighth
    assert_same_abort(bfs_cycle_oracle(gen_gnp(ModelParams(n=30, p=0.15, seed=1))), 70)
    assert solver_steps[-1] == "exact_min_hitting_set"
    assert solver_steps.count("exact_min_hitting_set") == 1


def fickle(contract, answer, period=None):
    """A stateful oracle that may break its contract: ``contract``, except
    where ``answer(log, query)`` returns a verdict. ``log`` lists this run's
    ``(query, verdict)`` pairs; it restarts after ``period`` calls, so that
    each run of ``assert_same_run`` meets the oracle fresh."""
    log = []

    def check(h):
        if len(log) == period:
            log.clear()
        query = frozenset(h)
        verdict = answer(log, query) or contract.check(query)
        log.append((query, verdict))
        return verdict

    return OracleContract(check=check, universe_size=contract.universe_size)


def assert_same_fickle_run(contract, answer):
    calls = reference_descent(fickle(contract, answer))[3]
    return assert_same_run(fickle(contract, answer, period=calls))


def test_query_sequence_matches_set_descent_when_a_step_misses_a_late_subset(solver_steps):
    # from the 20th call on the oracle reports {0, 1} to every query missing
    # it: round 1 has accepted steps without 0 and 1 by then, and round 2's
    # replay finds the first of them unhit and scans for a swap there
    late = (0, 1)
    accepted_without = []

    def answer(log, query):
        if len(log) == 20:
            accepted_without.append(any(v.feasible and q.isdisjoint(late) for q, v in log))
        return OracleVerdict.miss(late) if len(log) >= 20 and query.isdisjoint(late) else None

    cert = assert_same_fickle_run(bfs_cycle_oracle(gen_gnp(ModelParams(n=30, p=0.15, seed=1))), answer)
    assert accepted_without and all(accepted_without) and late in list(cert.collected)
    assert "_swap_proposal" in solver_steps[solver_steps.index("exact_min_hitting_set"):]


def test_query_sequence_matches_set_descent_when_a_replayed_query_misses(solver_steps):
    # round 1 asks 63 queries; the sixth query of round 2's replay, accepted
    # in round 1, is answered with the lowest element outside it
    contract = bfs_cycle_oracle(gen_gnp(ModelParams(n=30, p=0.15, seed=1)))
    replayed = []

    def answer(log, query):
        if len(log) != 68:
            return None
        replayed.append(query in {q for q, v in log if v.feasible})
        return OracleVerdict.miss([min(set(range(contract.universe_size)) - query)])

    assert_same_fickle_run(contract, answer)
    assert replayed and all(replayed)
    assert "_swap_proposal" in solver_steps[solver_steps.index("exact_min_hitting_set"):]
