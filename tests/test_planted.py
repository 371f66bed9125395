import math

import networkx as nx
import numpy as np
import pytest

import ihs.graphs as graphs_mod
import ihs.oracles as oracles_mod
import ihs.planted as planted_mod
from ihs import (
    CycleBudgetExceeded,
    Digraph,
    ModelParams,
    OracleProtocolError,
    RecoveryReport,
    cycles_of_length,
    gen_dnp,
    gen_gnp,
    gen_planted,
    is_acyclic_directed,
    recover_planted_fvs,
)
from ihs.oracles import successor_lists, walk_cycles

from test_graphs import random_digraph
from test_oracles import reference_walks


def test_acyclic_digraph_recovers_nothing():
    dag = Digraph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    report = recover_planted_fvs(dag, 3)
    assert report.cycles_found == 0
    assert report.greedy_set == []
    assert report.recovered == []


def test_hand_traced_recovery():
    # P = {0} with three triangles through 0: greedy absorbs the first,
    # the filter keeps 0 (cycle 0->3->4->0 avoids {1,2}) and drops 1, 2
    d = Digraph(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 0)])
    report = recover_planted_fvs(d, 3, planted=[0])
    assert report.greedy_set == [0, 1, 2]
    assert report.recovered == [0]
    assert report.cycles_found == 3
    assert report.exact_match is True


def test_recovery_includes_two_cycles_for_arbitrary_input():
    # antiparallel pairs cannot come from the generators but must be handled
    d = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])
    report = recover_planted_fvs(d, 3)
    assert report.cycles_found == 2  # the 2-cycle {0,1} and the 3-cycle {1,2,3}
    assert report.greedy_set == [0, 1]


def test_recovered_subset_of_greedy():
    for seed in range(5):
        inst = gen_planted(ModelParams(n=150, p=0.6, delta=0.1, k=3, seed=seed))
        report = recover_planted_fvs(inst.digraph, 3, planted=inst.planted)
        assert set(report.recovered) <= set(report.greedy_set)
        # the greedy set hits every enumerated cycle
        hits = set(report.greedy_set)
        for cyc in cycles_of_length(inst.digraph, 3):
            assert hits.intersection(cyc)


@pytest.mark.parametrize("seed", range(8))
def test_recovery_exact_on_model_instances(seed):
    inst = gen_planted(ModelParams(n=200, p=0.6, delta=0.1, k=3, seed=100 + seed))
    report = recover_planted_fvs(inst.digraph, 3, planted=inst.planted)
    assert report.exact_match is True
    assert report.recovered == inst.planted
    assert len(report.recovered) == math.floor(0.1 * 200)
    assert is_acyclic_directed(inst.digraph, report.recovered)
    assert len(report.greedy_set) <= 3 * len(inst.planted)


def reference_recovery(d, k, planted=None) -> RecoveryReport:
    """Recovery over listed cycles: every cycle of length 2..k from
    ``cycles_of_length``, the tuple greedy over them in order, then the walk
    filter."""
    listed = [tuple(c) for length in range(2, k + 1) for c in cycles_of_length(d, length).tolist()]
    chosen = set()
    for cyc in listed:
        if chosen.isdisjoint(cyc):
            chosen.update(cyc)
    greedy = sorted(chosen)
    adj, succ = successor_lists(d)
    allowed = [v not in chosen for v in range(d.n)]
    recovered = [v for v in greedy if any(walk_cycles(adj, succ, v, k, 0, allowed))]
    return RecoveryReport(recovered, greedy, len(listed), None if planted is None else recovered == sorted(planted))


@pytest.mark.parametrize("seed", range(4))
def test_greedy_hit_cycles_matches_tuple_loop(seed):
    # the lazy pass takes the same vertices as absorbing the listed cycle
    # tuples one by one in cycles_of_length order, 2-cycles first
    inst = gen_planted(ModelParams(n=80, p=0.5, delta=0.1, k=4, seed=seed))
    arcs = inst.digraph.arc_list.tolist()
    d = Digraph(inst.digraph.n, arcs + [(v, u) for u, v in arcs[:2]])  # two 2-cycles
    assert len(cycles_of_length(d, 2)) > 0
    counts = planted_mod.collect_short_cycles(d, 4)
    assert planted_mod.greedy_hit_cycles(d, 4, *successor_lists(d), counts) == reference_recovery(d, 4).greedy_set


@pytest.mark.parametrize("seed", range(10))
def test_recovery_matches_listed_reference(seed):
    # 60 random digraphs with antiparallel arcs per seed, k = 3..5
    rng = np.random.default_rng(70_000 + seed)
    for _ in range(60):
        d = random_digraph(int(rng.integers(3, 20)), float(rng.uniform(0.05, 0.4)), int(rng.integers(1 << 30)))
        k = int(rng.integers(3, 6))
        assert recover_planted_fvs(d, k) == reference_recovery(d, k)


@pytest.mark.parametrize("seed", range(20))
def test_recovery_matches_listed_reference_on_models(seed):
    d = gen_dnp(ModelParams(n=60, p=0.1, seed=seed))
    for k in (3, 4, 5):
        assert recover_planted_fvs(d, k) == reference_recovery(d, k)
    inst = gen_planted(ModelParams(n=60, p=0.4, delta=0.1, k=3, seed=seed))
    report = recover_planted_fvs(inst.digraph, 3, planted=inst.planted)
    assert report == reference_recovery(inst.digraph, 3, planted=inst.planted)


@pytest.mark.parametrize("seed", range(20))
def test_cycle_counts_match_listed_rows(seed):
    rng = np.random.default_rng(seed)
    d = random_digraph(int(rng.integers(2, 12)), float(rng.uniform(0.1, 0.6)), 60_000 + seed)
    for k in (2, 3, 4, 5):
        counts = planted_mod.collect_short_cycles(d, k)
        assert counts == [len(cycles_of_length(d, length)) for length in range(2, k + 1)]


def test_greedy_misses_a_cycle_raises(monkeypatch):
    # the certificate catches a greedy set that leaves a short cycle unhit
    monkeypatch.setattr(planted_mod, "greedy_hit_cycles", lambda d, k, adj, succ, counts, back: [])
    with pytest.raises(OracleProtocolError, match="misses the greedy set"):
        recover_planted_fvs(Digraph(3, [(0, 1), (1, 2), (2, 0)]), 3)


def test_cycle_budget_guard():
    inst = gen_planted(ModelParams(n=120, p=0.6, delta=0.1, k=3, seed=0))
    with pytest.raises(CycleBudgetExceeded):
        recover_planted_fvs(inst.digraph, 3, max_cycles=10)


def test_k_validation():
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        recover_planted_fvs(d, 2)


def test_expected_cycle_count_bound():
    # mean enumerated k-cycle count over seeds stays below (n k p)^k; the
    # bound is loose by orders of magnitude
    n, p, delta, k, runs = 60, 0.1, 0.1, 3, 50
    bound = (n * k * p) ** k
    counts = []
    for seed in range(runs):
        inst = gen_planted(ModelParams(n=n, p=p, delta=delta, k=k, seed=seed))
        counts.append(len(cycles_of_length(inst.digraph, k)))
    assert np.mean(counts) <= bound


def test_every_planted_vertex_closes_a_cycle_in_a_tenth_of_the_rest():
    # the structure recovery relies on: at the reference scale, each planted
    # vertex closes a 3-cycle inside a random tenth of V minus P plus itself
    inst = gen_planted(ModelParams(n=400, p=0.6, delta=0.1, k=3, seed=0))
    d, planted = inst.digraph, inst.planted
    others = np.setdiff1d(np.arange(d.n), planted)
    adj, succ = successor_lists(d)
    rng = np.random.default_rng(0)
    for _ in range(5):
        allowed = np.zeros(d.n, dtype=bool)
        allowed[rng.choice(others, size=math.ceil(others.size / 10), replace=False)] = True
        assert all(any(walk_cycles(adj, succ, v, 3, 0, allowed)) for v in planted)


def spy_counts(monkeypatch) -> dict[str, list]:
    """Record the 2-cycles each back-arc lookup of ``collect_short_cycles``
    finds, the lengths it counts by products of the dense adjacency, and the
    ``(length, cycles)`` of each walk of the planted module's cycle walker
    that runs to its end."""
    seen = {"lookups": [], "traces": [], "walks": []}
    traces, two_cycles = planted_mod._trace_counts, planted_mod._two_cycles

    def walks(adj, succ, start, length, *rest):
        found = 0
        for path in walk_cycles(adj, succ, start, length, *rest):
            found += 1
            yield path
        seen["walks"].append((length, found))

    def lookups(d, back, a):
        seen["lookups"].append(two_cycles(d, back, a))
        return seen["lookups"][-1]

    monkeypatch.setattr(planted_mod, "walk_cycles", walks)
    monkeypatch.setattr(planted_mod, "_trace_counts", lambda a, back, k: seen["traces"].append(k) or traces(a, back, k))
    monkeypatch.setattr(planted_mod, "_two_cycles", lookups)
    return seen


def walked_lengths(seen: dict[str, list]) -> list[int]:
    return sorted({length for length, _ in seen["walks"]})


def is_dense(d: Digraph) -> bool:
    return 4 * d.n**2 <= 25 * d.num_arcs


def test_cycle_budget_stops_enumeration_at_cap(monkeypatch):
    # 33 disjoint 3-cycles on 99 vertices, too sparse for the dense count:
    # one 3-cycle per anchor, so a cap of 10 stops the count at the 11th anchor
    seen = spy_counts(monkeypatch)
    d = Digraph(99, [(u, u + 1 if u % 3 < 2 else u - 2) for u in range(99)])
    assert not is_dense(d)
    with pytest.raises(CycleBudgetExceeded, match="more than 10 cycles of length <= 3"):
        planted_mod.collect_short_cycles(d, 4, max_cycles=10)
    assert seen == {"lookups": [0], "traces": [], "walks": [(3, 1)] * 11}


def test_cycle_budget_stops_at_the_two_cycle_lookup(monkeypatch):
    # 50 antiparallel pairs on 100 vertices, too sparse for the dense count:
    # one lookup finds the 50 2-cycles, over a cap of 10, before any walk
    seen = spy_counts(monkeypatch)
    d = Digraph(100, [(u, u ^ 1) for u in range(100)])
    assert not is_dense(d)
    with pytest.raises(CycleBudgetExceeded, match="more than 10 cycles of length <= 2"):
        planted_mod.collect_short_cycles(d, 3, max_cycles=10)
    assert seen == {"lookups": [50], "traces": [], "walks": []}


def test_dense_cycle_budget_stops_before_a_product(monkeypatch):
    # the complete digraph on 10 vertices has 45 two-cycles: the count
    # raises at length 2 and never starts the length-3 product, nor any walk
    seen = spy_counts(monkeypatch)
    d = Digraph(10, [(u, v) for u in range(10) for v in range(10) if u != v])
    assert is_dense(d)
    with pytest.raises(CycleBudgetExceeded, match="more than 10 cycles of length <= 2"):
        planted_mod.collect_short_cycles(d, 3, max_cycles=10)
    assert seen == {"lookups": [45], "traces": [], "walks": []}


# n, p, seed: a digraph on each side of 4 n^2 <= 25 m, antiparallel arcs allowed
SIDES = {"dense": (23, 0.45, 5), "sparse": (40, 0.1, 6)}


@pytest.mark.parametrize("block", [None, 1, 5])
@pytest.mark.parametrize("side", SIDES)
def test_count_matches_listed_cycles_on_both_sides(monkeypatch, side, block):
    # with block=1 or 5, the products run in row blocks of that many rows; 5 does not divide n.
    # Both sides look the 2-cycles up from the back arcs, and walk the lengths past the products
    d = random_digraph(*SIDES[side])
    assert is_dense(d) == (side == "dense")
    assert np.any(np.isin(d.arc_list[:, 0] * d.n + d.arc_list[:, 1], d.arc_list[:, 1] * d.n + d.arc_list[:, 0]))
    if block is not None:
        monkeypatch.setattr(planted_mod, "_BLOCK", block * d.n)
    seen = spy_counts(monkeypatch)
    counts = planted_mod.collect_short_cycles(d, 5)
    assert counts == [len(cycles_of_length(d, length)) for length in range(2, 6)]
    assert sum(counts[:2]) > 0
    assert seen["lookups"] == counts[:1]
    assert seen["traces"] == ([3, 4] if side == "dense" else [])
    assert walked_lengths(seen) == ([5] if side == "dense" else [3, 4, 5])


@pytest.mark.parametrize("side", SIDES)
def test_cycle_budget_decision_and_message_on_both_sides(side):
    # a cap raises iff the total passes it, naming the first length whose
    # running total does, at and around every running total
    d = random_digraph(*SIDES[side])
    counts = [len(cycles_of_length(d, length)) for length in range(2, 5)]
    totals = np.cumsum(counts).tolist()
    for cap in sorted({max(0, t + e) for t in totals for e in (-1, 0, 1)}):
        over = [t > cap for t in totals]
        if not any(over):
            assert planted_mod.collect_short_cycles(d, 4, max_cycles=cap) == counts
            continue
        with pytest.raises(CycleBudgetExceeded, match=f"^more than {cap} cycles of length <= {2 + over.index(True)};"):
            planted_mod.collect_short_cycles(d, 4, max_cycles=cap)


def test_theorem5_k4_counts_by_both_paths(monkeypatch):
    # the digraph of golden case theorem5 k4 (n=60, p=0.3), counted up to
    # k=5: length 2 by the back-arc lookup, 3 and 4 by products, 5 by walks, in one call
    d = gen_planted(ModelParams(n=60, p=0.3, delta=0.1, k=4, seed=0)).digraph
    seen = spy_counts(monkeypatch)
    counts = planted_mod.collect_short_cycles(d, 5)
    assert (seen["lookups"], seen["traces"], walked_lengths(seen)) == (counts[:1], [3, 4], [5])
    assert sum(found for _, found in seen["walks"]) == counts[3]
    assert counts == [len(cycles_of_length(d, length)) for length in range(2, 6)]
    assert sum(counts[:3]) == 1987


def test_dense_count_is_exact_past_float32_integers():
    # the complete digraph on 500 vertices: tr(A^3) = 500 * 499 * 498 is far
    # past 2^24, and the count matches the closed forms C(500, 2), 2 C(500, 3)
    # and 6 C(500, 4)
    d = Digraph(500, [(u, v) for u in range(500) for v in range(500) if u != v])
    counts = planted_mod.collect_short_cycles(d, 4, max_cycles=10**11)
    assert counts == [math.comb(500, 2), 2 * math.comb(500, 3), 6 * math.comb(500, 4)]


def anchor_test_digraphs():
    """At least 20 random digraphs with antiparallel arcs, n from 2 to 60;
    complete digraphs, where every vertex but the last (no back arc can
    enter it) is an anchor; and DAGs numbered in id order, with no anchor."""
    rng = np.random.default_rng(97_000)
    digraphs = [random_digraph(n, float(rng.uniform(0.05, 0.5)), int(rng.integers(1 << 30)))
                for n in [2, 3, 60, *rng.integers(2, 61, size=21).tolist()]]
    digraphs += [Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v]) for n in (2, 7, 30)]
    digraphs += [Digraph(9, [(u, v) for u in range(9) for v in range(u + 1, 9)])]
    digraphs += [Digraph(n, [(u, v) for u, v in random_digraph(n, 0.5, n).arc_list.tolist() if u < v]) for n in (20, 40)]
    return digraphs


@pytest.mark.parametrize("block", [1, 3, None])
def test_anchor_row_counts_match_full_traces(monkeypatch, block):
    # 2-cycles = tr(A^2)/2 and 3-cycles = tr(A^3)/3 from full matrix powers; the
    # anchor rows go in blocks of 1, 3 or all rows, and each block's part is the
    # 3-cycles whose minimum vertex lies in it. A DAG in id order has no anchor:
    # it counts 0 with no block, so no product runs
    kinds = set()
    for d in anchor_test_digraphs():
        if block is not None:
            monkeypatch.setattr(planted_mod, "_BLOCK", block * d.n)
        a, back = adjacency(d), graphs_mod._back_arcs(d)
        if is_dense(d):
            assert np.array_equal(planted_mod._dense_adjacency(d), a)
        anchors = sorted(set(back[:, 1].tolist()))
        rows = max(1, len(anchors)) if block is None else block
        blocks = [set(anchors[r:r + rows]) for r in range(0, len(anchors), rows)]
        full = a.astype(np.int64)
        tr2, tr3 = np.trace(full @ full), np.trace(full @ full @ full)
        cycles = [c for c in nx.simple_cycles(nx.DiGraph(d.arc_list.tolist()), length_bound=3)]
        parts = list(planted_mod._trace_counts(a, back, 3))
        assert planted_mod._two_cycles(d, back, a) == planted_mod._two_cycles(d, back, None) == tr2 // 2
        assert tr2 // 2 == sum(len(c) == 2 for c in cycles)
        assert sum(parts) == tr3 // 3 and tr3 % 3 == 0
        assert parts == [sum(len(c) == 3 and min(c) in blk for c in cycles) for blk in blocks]
        kinds.add("dag" if not anchors else "all" if len(anchors) == d.n - 1 else "some")
        assert anchors or (parts == [] and tr3 == tr2 == 0)
    assert kinds == {"dag", "all", "some"}


def adjacency(d: Digraph) -> np.ndarray:
    a = np.zeros((d.n, d.n), dtype=np.float32)
    a[d.arc_list[:, 0], d.arc_list[:, 1]] = 1
    return a


def walker_filter(d: Digraph, k: int, s: list[int]) -> list[int]:
    """The through-vertex filter by walks, the reference for the dense one."""
    adj, succ = successor_lists(d)
    allowed = np.ones(d.n, dtype=bool)
    allowed[s] = False
    return [v for v in s if any(walk_cycles(adj, succ, v, k, 0, allowed))]


@pytest.mark.parametrize("block", [None, 1, 3])
@pytest.mark.parametrize("seed", range(4))
def test_dense_filter_matches_the_walker_filter(monkeypatch, seed, block):
    # random digraphs with antiparallel arcs on both sides of the density
    # rule, k = 3..5; S is the greedy set plus random vertices, so V minus S
    # holds no cycle of length 2..k, as the filter requires; with block=1 or
    # 3, S goes in row blocks of that many rows
    rng = np.random.default_rng(80_000 + seed)
    sides, kept = set(), 0
    for _ in range(40):
        d = random_digraph(int(rng.integers(3, 20)), float(rng.uniform(0.05, 0.5)), int(rng.integers(1 << 30)))
        k = int(rng.integers(3, 6))
        greedy = planted_mod.greedy_hit_cycles(d, k, *successor_lists(d), planted_mod.collect_short_cycles(d, k))
        s = sorted(set(greedy) | set(np.flatnonzero(rng.random(d.n) < 0.2).tolist()))
        if block is not None:
            monkeypatch.setattr(planted_mod, "_BLOCK", block * d.n)
        got = planted_mod._dense_filter(adjacency(d), k, s)
        assert got == walker_filter(d, k, s)
        sides.add(is_dense(d))
        kept += len(got)
    assert sides == {True, False} and kept > 0


@pytest.mark.parametrize("k", [3, 4, 5])
def test_dense_filter_of_an_empty_set(k):
    # with S empty, V must hold no short cycle: a DAG, dense or not
    for n, p, seed in [(6, 1.0, 0), (30, 0.1, 1)]:
        d = Digraph(n, [(u, v) for u, v in random_digraph(n, p, seed).arc_list.tolist() if u < v])
        assert planted_mod._dense_filter(adjacency(d), k, []) == walker_filter(d, k, []) == []
        assert recover_planted_fvs(d, k) == RecoveryReport([], [], 0, None)


@pytest.mark.parametrize("k", [3, 4])
def test_dense_filter_walks_nothing(monkeypatch, k):
    # on the dense side the filter is a product over A: after the greedy,
    # recovery calls the planted module's walker no more
    inst = gen_planted(ModelParams(n=120, p=0.5, delta=0.1, k=k, seed=3))
    d = inst.digraph
    assert is_dense(d)
    greedy = planted_mod.greedy_hit_cycles(d, k, *successor_lists(d), planted_mod.collect_short_cycles(d, k))
    monkeypatch.setattr(planted_mod, "greedy_hit_cycles", lambda *args: greedy)
    monkeypatch.setattr(planted_mod, "walk_cycles", lambda *args: pytest.fail("the dense filter walked"))
    report = recover_planted_fvs(d, k, planted=inst.planted)
    assert report.greedy_set == greedy and report.recovered == inst.planted


def test_theorem5_recovery_builds_few_successor_sets(monkeypatch):
    # successor sets are built when a walk first reads them: the count, the
    # certificate and the dense filter read none, and the greedy skips the
    # length-2 pass (no 2-cycles) and reads the sets of its walks' last steps
    built = []
    lists = planted_mod.successor_lists
    monkeypatch.setattr(planted_mod, "successor_lists", lambda d: built.append(lists(d)) or built[-1])
    inst = gen_planted(ModelParams(n=400, p=0.6, delta=0.1, k=3, seed=0))
    assert recover_planted_fvs(inst.digraph, 3, planted=inst.planted).exact_match
    [(adj, succ)] = built
    assert len(adj) == 400 and 0 < len(succ) < 100


def test_theorem5_recovery_calls_each_traced_layer(monkeypatch):
    # perfbench/spans.py times these attributes of the planted module, and
    # expects each on every theorem5 instance
    calls = []
    for name in ("collect_short_cycles", "cycles_of_length", "greedy_hit_cycles"):
        fn = getattr(planted_mod, name)
        monkeypatch.setattr(planted_mod, name, lambda *a, name=name, fn=fn, **kw: calls.append(name) or fn(*a, **kw))
    inst = gen_planted(ModelParams(n=400, p=0.6, delta=0.1, k=3, seed=0))
    assert recover_planted_fvs(inst.digraph, 3, planted=inst.planted).exact_match
    assert sorted(set(calls)) == ["collect_short_cycles", "cycles_of_length", "greedy_hit_cycles"]


def test_theorem5_recovery_lists_the_back_arcs_once(monkeypatch):
    # the count, the greedy and the certificate's cycles_of_length calls (one
    # per length 2..k) share one list of back arcs: no other pass is made
    built, passes = [], []
    back, own = planted_mod._back_arcs, graphs_mod._back_arcs
    monkeypatch.setattr(planted_mod, "_back_arcs", lambda d: built.append(d.n) or back(d))
    monkeypatch.setattr(graphs_mod, "_back_arcs", lambda d: passes.append(d.n) or own(d))
    inst = gen_planted(ModelParams(n=400, p=0.6, delta=0.1, k=3, seed=0))
    assert recover_planted_fvs(inst.digraph, 3, planted=inst.planted).exact_match
    assert built == [400] and passes == []


def test_theorem5_recovery_builds_one_dense_adjacency(monkeypatch):
    # the count and the filter share one A
    built = []
    dense = planted_mod._dense_adjacency
    monkeypatch.setattr(planted_mod, "_dense_adjacency", lambda d: built.append(d.n) or dense(d))
    inst = gen_planted(ModelParams(n=400, p=0.6, delta=0.1, k=3, seed=0))
    assert recover_planted_fvs(inst.digraph, 3, planted=inst.planted).exact_match
    assert built == [400]


def test_sparse_recovery_takes_the_walker_filter(monkeypatch):
    # no A on the sparse side: the filter walks once from each greedy vertex
    d = gen_dnp(ModelParams(n=20_000, p=2e-4, seed=0))
    assert planted_mod._dense_adjacency(d) is None
    starts = []

    def walks(adj, succ, start, length, min_id=0, allowed=None):
        if min_id == 0:
            starts.append(start)
        return walk_cycles(adj, succ, start, length, min_id, allowed)

    monkeypatch.setattr(planted_mod, "walk_cycles", walks)
    monkeypatch.setattr(planted_mod, "_dense_filter", lambda *args: pytest.fail("the dense filter ran"))
    report = recover_planted_fvs(d, 3)
    assert report.greedy_set and starts == report.greedy_set
    assert set(report.recovered) <= set(report.greedy_set)


@pytest.mark.parametrize("seed", range(5))
def test_theorem5_acyclic_ok_is_settled_by_the_order_witness(monkeypatch, seed):
    # gen_planted numbers V minus P in topological order, so the check never reaches Kahn's peel
    inst = gen_planted(ModelParams(n=400, p=0.6, delta=0.1, k=3, seed=seed))
    report = recover_planted_fvs(inst.digraph, 3, planted=inst.planted)
    monkeypatch.setattr(graphs_mod, "drain_sources", lambda *args: pytest.fail("Kahn's peel ran"))
    assert report.exact_match and is_acyclic_directed(inst.digraph, report.recovered)


@pytest.mark.parametrize("seed", range(10))
def test_csr_rows_keep_listings_counts_and_greedy_sets(seed):
    # against the reference walker over Python list rows: listings of lengths 2..5 with and
    # without a mask and a limit (with a given list of back arcs), the counts on either side of the density rule, greedy sets
    rng = np.random.default_rng(95_000 + seed)
    for _ in range(10):
        d = random_digraph(int(rng.integers(0, 12)), float(rng.uniform(0.05, 0.5)), int(rng.integers(1 << 30)))
        lists = oracles_mod._row_lists(d.out_indptr, d.out_indices)
        listed = {}
        for k in range(2, 6):
            for mask in (rng.random(d.n) < 0.7, None):
                anchors = [a for a in range(d.n) if mask is None or mask[a]]
                want = [(a, *sorted(p[1:])) for a in anchors for p in reference_walks(lists, a, k, a + 1, mask)]
                assert [tuple(r) for r in cycles_of_length(d, k, allowed=mask).tolist()] == want
                back = graphs_mod._back_arcs(d)  # as recovery's certificate passes it
                assert [tuple(r) for r in cycles_of_length(d, k, limit=2, allowed=mask, back=back).tolist()] == want[:2]
            listed[k] = want
        counts = [len(listed[k]) for k in range(2, 6)]
        assert planted_mod.collect_short_cycles(d, 5) == planted_mod.collect_short_cycles(d, 5, a=None) == counts
        for k in range(3, 6):
            chosen = set()
            for cyc in (c for length in range(2, k + 1) for c in listed[length]):
                if chosen.isdisjoint(cyc):
                    chosen.update(cyc)
            assert planted_mod.greedy_hit_cycles(d, k, *successor_lists(d), counts) == sorted(chosen)


def test_theorem5_reference_count_skips_the_per_anchor_expansion(monkeypatch):
    # the count neither walks nor builds successor lists; the greedy and the filter do
    inst = gen_planted(ModelParams(n=400, p=0.6, delta=0.1, k=3, seed=0))
    seen = spy_counts(monkeypatch)
    monkeypatch.setattr(planted_mod, "successor_lists", lambda d: pytest.fail("successor lists in the count"))
    assert sum(planted_mod.collect_short_cycles(inst.digraph, 3)) == 458_596
    assert seen == {"lookups": [0], "traces": [3], "walks": []}
    monkeypatch.undo()
    report = recover_planted_fvs(inst.digraph, 3, planted=inst.planted)
    assert report.exact_match and report.cycles_found == 458_596


def test_certificate_on_a_remainder_with_no_back_arc_builds_no_lists(monkeypatch):
    # the remainder after the greedy has no arc from a higher to a lower id,
    # so no cycle is anchored there and the certificate walks nothing
    inst = gen_planted(ModelParams(n=400, p=0.6, delta=0.1, k=3, seed=0))
    d = inst.digraph
    allowed = np.ones(d.n, dtype=bool)
    allowed[recover_planted_fvs(d, 3).greedy_set] = False
    arcs = d.arc_list[allowed[d.arc_list].all(axis=1)]
    assert arcs.size and not np.any(arcs[:, 0] > arcs[:, 1])
    monkeypatch.setattr(oracles_mod, "successor_lists", lambda d: pytest.fail("successor lists built"))
    for length in range(2, 4):
        assert cycles_of_length(d, length, limit=1, allowed=allowed).shape == (0, length)
        assert cycles_of_length(d, length, allowed=allowed).shape == (0, length)


def test_empty_digraph_has_no_cycles_to_count():
    d = Digraph(0, [])
    assert planted_mod.collect_short_cycles(d, 4) == [0, 0, 0]
    report = recover_planted_fvs(d, 3, planted=[])
    assert (report.recovered, report.greedy_set, report.cycles_found, report.exact_match) == ([], [], 0, True)


def test_enumeration_leaves_no_garbage_cycles():
    # the cycle walks must free their paths and results by reference counting
    import gc

    from ihs import shortest_cycle_oracle

    inst = gen_planted(ModelParams(n=60, p=0.3, delta=0.1, k=3, seed=1))
    oracle = shortest_cycle_oracle(gen_gnp(ModelParams(n=20, p=0.2, seed=1)))
    calls = [
        lambda: cycles_of_length(inst.digraph, 3),
        lambda: oracle.check([]),
        lambda: recover_planted_fvs(inst.digraph, 3),
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
