from itertools import permutations

import networkx as nx
import numpy as np
import pytest

from ihs import (
    Digraph,
    Graph,
    GraphError,
    OracleProtocolError,
    SubsetFamily,
    bfs_cycle_oracle,
    cycles_of_length,
    explicit_family_oracle,
    is_acyclic_directed,
    is_acyclic_undirected,
    shortest_cycle_oracle,
)
from ihs.oracles import successor_lists, walk_cycles

from test_graphs import random_digraph, random_graph


def test_explicit_family_oracle_order():
    fam = SubsetFamily(5, [(1, 2)])
    oracle = explicit_family_oracle(fam)
    assert oracle.check(()).missed == (1, 2)
    assert oracle.check((1,)).feasible

    fam2 = SubsetFamily(5, [(1,), (2,)])
    assert explicit_family_oracle(fam2).check((1,)).missed == (2,)


def test_bfs_cycle_oracle_trivial():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    oracle = bfs_cycle_oracle(tri, root=0)
    assert oracle.check(()).missed == (0, 1, 2)
    assert oracle.check((2,)).feasible


def test_bfs_cycle_oracle_component_order():
    # two disjoint triangles; removing 1 breaks the first, BFS then finds the second
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    oracle = bfs_cycle_oracle(g, root=0)
    assert oracle.check((1,)).missed == (3, 4, 5)


def test_bfs_cycle_oracle_root_removed():
    tri = Graph(4, [(1, 2), (2, 3), (1, 3)])
    oracle = bfs_cycle_oracle(tri, root=0)
    assert oracle.check((0,)).missed == (1, 2, 3)


@pytest.mark.parametrize("bad", [[4], (-1,), frozenset({2, 9}), np.array([0, -4]), np.array([4], dtype=np.int32)])
def test_cycle_oracles_reject_ids_out_of_range(bad):
    tri = Graph(4, [(0, 1), (1, 2), (0, 2)])
    for oracle in (bfs_cycle_oracle(tri), shortest_cycle_oracle(tri),
                   shortest_cycle_oracle(Digraph(4, [(0, 1), (1, 0)]))):
        with pytest.raises(GraphError, match="out of range"):
            oracle.check(bad)
    with pytest.raises(GraphError, match="out of range"):
        is_acyclic_undirected(tri, bad)


def test_shortest_cycle_oracle_trivial():
    d = Digraph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 0)])
    oracle = shortest_cycle_oracle(d)
    assert oracle.check(()).missed == (0, 1, 2)  # length 3 beats length 4

    dag = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert shortest_cycle_oracle(dag).check(()).feasible

    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert shortest_cycle_oracle(c5).check(()).missed == (0, 1, 2, 3, 4)


def brute_girth_undirected(g: Graph, blocked: set[int]) -> int | None:
    h = nx.Graph()
    keep = [v for v in range(g.n) if v not in blocked]
    h.add_nodes_from(keep)
    h.add_edges_from(
        (u, v) for u, v in g.edge_list.tolist() if u not in blocked and v not in blocked
    )
    girth = nx.girth(h)
    return None if girth == float("inf") else int(girth)


def brute_girth_directed(d: Digraph, blocked: set[int]) -> int | None:
    h = nx.DiGraph()
    keep = [v for v in range(d.n) if v not in blocked]
    h.add_nodes_from(keep)
    h.add_edges_from(
        (u, v) for u, v in d.arc_list.tolist() if u not in blocked and v not in blocked
    )
    if nx.is_directed_acyclic_graph(h):
        return None
    for bound in range(2, h.number_of_nodes() + 1):
        if any(True for _ in nx.simple_cycles(h, length_bound=bound)):
            return bound
    return None


@pytest.mark.parametrize("seed", range(60))
def test_shortest_cycle_matches_brute_girth_undirected(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    g = random_graph(n, float(rng.uniform(0.05, 0.3)), 500 + seed)
    blocked = {v for v in range(n) if rng.random() < 0.2}
    verdict = shortest_cycle_oracle(g).check(blocked)
    expected = brute_girth_undirected(g, blocked)
    if expected is None:
        assert verdict.feasible
    else:
        assert len(verdict.missed) == expected
        assert not blocked.intersection(verdict.missed)


@pytest.mark.parametrize("seed", range(60))
def test_shortest_cycle_matches_brute_girth_directed(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 25))
    d = random_digraph(n, float(rng.uniform(0.03, 0.25)), 700 + seed)
    blocked = {v for v in range(n) if rng.random() < 0.2}
    verdict = shortest_cycle_oracle(d).check(blocked)
    expected = brute_girth_directed(d, blocked)
    if expected is None:
        assert verdict.feasible
    else:
        assert len(verdict.missed) == expected
        assert not blocked.intersection(verdict.missed)


def first_shortest_cycle(g: Graph | Digraph, blocked: set[int]) -> tuple[int, ...] | None:
    """The shortest cycle, ties broken by the smallest minimum vertex and then
    by the lexicographically first path from it, as its sorted vertex set."""
    directed = isinstance(g, Digraph)
    h = nx.DiGraph() if directed else nx.Graph()
    h.add_nodes_from(v for v in range(g.n) if v not in blocked)
    pairs = g.arc_list if directed else g.edge_list
    h.add_edges_from((u, v) for u, v in pairs.tolist() if u not in blocked and v not in blocked)
    for bound in range(2, h.number_of_nodes() + 1):
        paths = []
        for cyc in nx.simple_cycles(h, length_bound=bound):
            i = cyc.index(min(cyc))
            path = cyc[i:] + cyc[:i]
            paths.append(path if directed else min(path, path[:1] + path[:0:-1]))
        if paths:
            return tuple(sorted(min(paths)))
    return None


@pytest.mark.parametrize("seed", range(80))
def test_shortest_cycle_verdict_is_the_first_shortest_cycle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 14))
    blocked = {v for v in range(n) if rng.random() < 0.15}
    # random_digraph draws both orientations of a pair independently: antiparallel arcs occur
    for g in (random_graph(n, float(rng.uniform(0.15, 0.5)), 1_000 + seed),
              random_digraph(n, float(rng.uniform(0.05, 0.3)), 2_000 + seed)):
        assert shortest_cycle_oracle(g).check(blocked).missed == first_shortest_cycle(g, blocked)


def test_shortest_cycle_oracle_raises_when_no_cycle_is_walked(monkeypatch):
    import ihs.oracles

    monkeypatch.setattr(ihs.oracles, "walk_cycles", lambda *args: iter(()))
    for g in (Graph(3, [(0, 1), (1, 2), (0, 2)]), Digraph(3, [(0, 1), (1, 2), (2, 0)])):
        with pytest.raises(OracleProtocolError):
            shortest_cycle_oracle(g).check(())


def test_directed_missed_subset_is_a_single_cycle():
    # minimum-length directed cycles are chordless, so the induced subgraph is
    # exactly one directed cycle: every vertex has in- and out-degree one
    for seed in range(30):
        rng = np.random.default_rng(seed)
        d = random_digraph(12, 0.15, 900 + seed)
        verdict = shortest_cycle_oracle(d).check(())
        if verdict.feasible:
            continue
        members = set(verdict.missed)
        induced = [(u, v) for u, v in d.arc_list.tolist() if u in members and v in members]
        assert len(induced) == len(members)
        outdeg = {v: 0 for v in members}
        indeg = {v: 0 for v in members}
        for u, v in induced:
            outdeg[u] += 1
            indeg[v] += 1
        assert all(outdeg[v] == 1 and indeg[v] == 1 for v in members)


@pytest.mark.parametrize("oracle_kind", ["bfs", "shortest"])
def test_cycle_oracle_soundness_undirected(oracle_kind):
    # feasible iff acyclic, and a missed subset always induces min degree >= 2
    count = 0
    seed = 0
    while count < 250:
        rng = np.random.default_rng(seed)
        seed += 1
        n = int(rng.integers(3, 60))
        g = random_graph(n, float(rng.uniform(0.02, 0.25)), 10_000 + seed)
        h = {v for v in range(n) if rng.random() < 0.25}
        oracle = bfs_cycle_oracle(g, root=0) if oracle_kind == "bfs" else shortest_cycle_oracle(g)
        verdict = oracle.check(h)
        assert verdict.feasible == is_acyclic_undirected(g, h)
        if not verdict.feasible:
            members = set(verdict.missed)
            assert not members & h
            for v in members:
                deg = sum(1 for w in g.neighbors(v).tolist() if w in members)
                assert deg >= 2
        count += 1


def test_cycle_oracle_soundness_directed():
    count = 0
    seed = 0
    while count < 250:
        rng = np.random.default_rng(seed)
        seed += 1
        n = int(rng.integers(3, 40))
        d = random_digraph(n, float(rng.uniform(0.02, 0.2)), 20_000 + seed)
        h = {v for v in range(n) if rng.random() < 0.25}
        verdict = shortest_cycle_oracle(d).check(h)
        assert verdict.feasible == is_acyclic_directed(d, h)
        if not verdict.feasible:
            assert not set(verdict.missed) & h
        count += 1


def brute_force_k_cycles(d: Digraph, k: int) -> list[tuple[int, ...]]:
    """Each directed k-cycle appears once as the permutation anchored at its minimum."""
    arcs = set(map(tuple, d.arc_list.tolist()))
    out = []
    for perm in permutations(range(d.n), k):
        if perm[0] != min(perm):
            continue
        if all((perm[i], perm[(i + 1) % k]) in arcs for i in range(k)):
            out.append(tuple(sorted(perm)))
    return sorted(out)


def _rows(a):
    return [tuple(r) for r in a.tolist()]


def test_cycles_of_length_trivial():
    dag = Digraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert _rows(cycles_of_length(dag, 3)) == []
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert _rows(cycles_of_length(tri, 3)) == [(0, 1, 2)]
    anti = Digraph(2, [(0, 1), (1, 0)])
    assert _rows(cycles_of_length(anti, 2)) == [(0, 1)]


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("k", [3, 4, 5])
def test_cycles_of_length_matches_brute_force(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    d = random_digraph(n, float(rng.uniform(0.1, 0.5)), 30_000 + seed)
    assert sorted(_rows(cycles_of_length(d, k))) == brute_force_k_cycles(d, k)


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cycles_of_length_in_walk_order(seed, k):
    # rows and their order equal the anchored walks over ascending anchors,
    # each path sorted; a limit inside an anchor's block keeps a prefix
    rng = np.random.default_rng(seed)
    d = random_digraph(int(rng.integers(2, 11)), float(rng.uniform(0.1, 0.6)), 40_000 + seed)
    adj, succ = successor_lists(d)
    walked = [tuple(sorted(path)) for a in range(d.n) for path in walk_cycles(adj, succ, a, k, a + 1)]
    got = cycles_of_length(d, k)
    assert got.dtype == np.int32 and got.shape == (len(walked), k)
    assert _rows(got) == walked
    anchors = [min(c) for c in walked]
    inside = [i for i in range(1, len(walked)) if anchors[i] == anchors[i - 1]]
    for limit in inside[:3] + [0, len(walked), len(walked) + 5]:
        assert _rows(cycles_of_length(d, k, limit=limit)) == walked[:limit]


def test_cycles_deterministic_order():
    d = Digraph(5, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1), (2, 3), (3, 0)])
    assert _rows(cycles_of_length(d, 3)) == _rows(cycles_of_length(d, 3))
    anchors = [c[0] for c in _rows(cycles_of_length(d, 3))]
    assert anchors == sorted(anchors)
