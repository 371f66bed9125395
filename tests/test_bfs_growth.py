import math

import numpy as np
import pytest

import ihs.bfs_growth as bfs_mod
import ihs.graphs as graphs_mod
from ihs import (
    Digraph,
    FvsResult,
    Graph,
    LevelStats,
    ModelParams,
    check_concentration_bounds,
    concentration_depth,
    fvs_directed,
    gen_gnp,
    grow_induced_bfs,
    is_acyclic_directed,
    is_acyclic_undirected,
    prune_fvs,
    sample_acyclic_fraction,
)
from ihs.oracles import successor_lists

from test_graphs import random_digraph, random_graph, thread_starts


def test_concentration_depth_values():
    # largest T with 16 T p (c + 20 sqrt c)^(T-1) <= 1/2, by direct scan
    def reference(n, p):
        c = n * p
        base = c + 20 * math.sqrt(c)
        t = 0
        while 16 * (t + 1) * p * base**t <= 0.5:
            t += 1
        return t

    for n, p in [(500_000, 1e-3), (100_000, 5e-3), (20_000, 5e-3), (1_000_000, 1e-5)]:
        assert concentration_depth(n, p) == reference(n, p)
    assert concentration_depth(100, 0.5) == 0  # even T=1 violates the inequality


def test_triangle_trace():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    res = grow_induced_bfs(tri, root=0)
    assert res.fvs.tolist() == [2]
    assert [lv.tolist() for lv in res.levels] == [[0], [1]]
    assert res.stats.k == [1, 2]
    assert res.stats.r == [1, 2]
    assert res.stats.w == [0, 1]
    assert res.stats.depth() == 1


def test_edgeless_keeps_only_root():
    g = Graph(5)
    res = grow_induced_bfs(g, root=2)
    assert [lv.tolist() for lv in res.levels] == [[2]]
    assert res.fvs.tolist() == [0, 1, 3, 4]
    assert is_acyclic_undirected(g, res.fvs)


def test_directed_examples():
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    res = fvs_directed(tri, root=0)
    assert res.fvs.size == 1
    assert is_acyclic_directed(tri, res.fvs)

    chain = Digraph(3, [(0, 1), (1, 2)])
    res = fvs_directed(chain, root=0)
    assert res.fvs.size == 0  # the shadow path is an induced tree from vertex 0

    empty = Digraph(4)
    res = fvs_directed(empty, root=0)
    assert res.fvs.tolist() == [1, 2, 3]


def test_directed_two_cycles_are_broken():
    # antiparallel pairs collapse to one shadow edge; the post-pass must break them
    pair = Digraph(2, [(0, 1), (1, 0)])
    res = fvs_directed(pair, root=0)
    assert res.fvs.tolist() == [1]
    assert is_acyclic_directed(pair, res.fvs)
    assert [lv.tolist() for lv in res.levels] == [[0], []]

    mixed = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])
    res = fvs_directed(mixed, root=0)
    assert is_acyclic_directed(mixed, res.fvs)
    assert sorted(res.fvs.tolist() + _survivors(res)) == [0, 1, 2, 3]


def _survivors(res) -> list[int]:
    return np.concatenate(res.levels).tolist()


def _check_level_structure(g: Graph, res) -> None:
    # survivors form an induced tree: each level vertex has exactly one
    # neighbor in the previous level and none elsewhere among survivors
    level_of = {}
    for i, level in enumerate(res.levels):
        for v in level.tolist():
            level_of[int(v)] = i
    adj = successor_lists(g)[0]
    for v, lv in level_of.items():
        ups = downs = sames = others = 0
        for w in adj[v]:
            if w not in level_of:
                continue
            if level_of[w] == lv - 1:
                ups += 1
            elif level_of[w] == lv + 1:
                downs += 1
            elif level_of[w] == lv:
                sames += 1
            else:
                others += 1
        assert sames == 0 and others == 0
        if lv > 0:
            assert ups == 1


@pytest.mark.parametrize("seed", range(25))
def test_fvs_validity_and_tree_structure_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 120))
    g = random_graph(n, float(rng.uniform(0.01, 0.3)), 5000 + seed)
    res = grow_induced_bfs(g, root=int(rng.integers(0, n)))
    assert is_acyclic_undirected(g, res.fvs)
    assert sorted(res.fvs.tolist() + _survivors(res)) == list(range(n))
    _check_level_structure(g, res)
    # stats arithmetic invariants
    st = res.stats
    for t in range(len(st.l)):
        assert st.l[t] <= st.r[t] <= st.k[t]
        assert st.w[t] <= st.m[t]
        if t > 0:
            assert st.u[t] == st.u[t - 1] - st.k[t]
            assert st.l[t] == st.r[t] - st.w[t]
    assert len(_survivors(res)) == sum(st.l)


def test_determinism():
    g = random_graph(200, 0.05, 77)
    a = grow_induced_bfs(g, root=0)
    b = grow_induced_bfs(g, root=0)
    assert a.fvs.tolist() == b.fvs.tolist()
    assert a.stats.l == b.stats.l


def test_default_depth_runs_to_exhaustion():
    # on a long path growth keeps everything reachable
    n = 50
    path = Graph(n, [(i, i + 1) for i in range(n - 1)])
    res = grow_induced_bfs(path, root=0)
    assert res.fvs.size == 0
    assert res.stats.depth() == n - 1


def test_disconnected_graph_other_components_enter_fvs():
    g = Graph(6, [(0, 1), (3, 4), (4, 5), (3, 5)])
    res = grow_induced_bfs(g, root=0)
    assert set(_survivors(res)) == {0, 1}
    assert set(res.fvs.tolist()) == {2, 3, 4, 5}
    assert is_acyclic_undirected(g, res.fvs)


# Frozen reference: the growth as it was built by per-edge deletion, which
# deletes the larger endpoint of every edge whose endpoints both survive.
def _reference_independent_by_edge_deletion(members, eu, ev):
    dead = set()
    for a, b in zip(eu.tolist(), ev.tolist()):
        if a not in dead and b not in dead:
            dead.add(b)
    if not dead:
        return members, 0
    keep = np.asarray([v for v in members.tolist() if v not in dead], dtype=np.int64)
    return keep, len(dead)


def _reference_grow(g, root=0):
    # exposures and the unique set's edges by brute force over the edge list
    edges = g.edge_list.tolist()
    adj = [[] for _ in range(g.n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    exposed = np.zeros(g.n, dtype=bool)
    exposed[root] = True
    levels = [np.asarray([root], dtype=np.int64)]
    stats = LevelStats(l=[1], u=[g.n - 1], r=[1], m=[0], k=[1], w=[0])
    level_index = 0
    while True:
        current = levels[level_index]
        if current.size == 0:
            break
        counts = np.zeros(g.n, dtype=np.int64)
        for x in current.tolist():
            for w in adj[x]:
                counts[w] += 1
        newly = np.flatnonzero((~exposed) & (counts > 0))
        if newly.size == 0:
            break
        exposed[newly] = True
        unique = newly[counts[newly] == 1]
        in_unique = np.zeros(g.n, dtype=bool)
        in_unique[unique] = True
        inside = [(a, b) for a, b in edges if in_unique[a] and in_unique[b]]
        eu = np.asarray([a for a, _ in inside], dtype=np.int64)
        ev = np.asarray([b for _, b in inside], dtype=np.int64)
        nxt, deletions = _reference_independent_by_edge_deletion(unique, eu, ev)
        stats.k.append(int(newly.size))
        stats.u.append(int(stats.u[level_index] - newly.size))
        stats.r.append(int(unique.size))
        stats.m.append(int(eu.size))
        stats.w.append(deletions)
        stats.l.append(int(nxt.size))
        levels.append(nxt)
        level_index += 1
        if nxt.size == 0:
            break
    levels = [lv for lv in levels if lv.size]
    in_tree = np.zeros(g.n, dtype=bool)
    in_tree[np.concatenate(levels)] = True
    return FvsResult(fvs=np.flatnonzero(~in_tree), stats=stats, levels=levels)


def _assert_matches_reference(g, root):
    got = grow_induced_bfs(g, root=root)
    want = _reference_grow(g, root=root)
    assert got.fvs.tolist() == want.fvs.tolist()
    assert [lv.tolist() for lv in got.levels] == [lv.tolist() for lv in want.levels]
    assert got.stats == want.stats


@pytest.mark.parametrize("seed", range(40))
def test_growth_matches_frozen_reference_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 150))
    g = random_graph(n, float(rng.uniform(0.01, 0.4)), 9000 + seed)
    _assert_matches_reference(g, int(rng.integers(0, n)))


def _path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _star(n):
    return Graph(n, [(0, i) for i in range(1, n)])


def _clique(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _bipartite(left, right):
    return Graph(len(left) + len(right), [(min(u, v), max(u, v)) for u in left for v in right])


@pytest.mark.parametrize(
    "g, roots",
    [
        (_path(30), [0, 7, 29]),
        (_star(25), [0, 1, 24]),
        (_clique(12), [0, 5, 11]),
        (_bipartite(range(6), range(6, 15)), [0, 5, 14]),
        (_bipartite(range(0, 14, 2), range(1, 14, 2)), [0, 3, 13]),  # sides interleaved
        # a triangle, a four-cycle with a chord, an isolated vertex, a path
        (Graph(13, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6), (3, 5),
                    (8, 9), (9, 10), (10, 11), (11, 12)]), [0, 3, 7, 8, 12]),
        # c = 100: level 2 retains 600-650 unique neighbors with 9k-11k edges among them
        (gen_gnp(ModelParams(n=2000, p=0.05, seed=1)), [0, 1999]),
        (gen_gnp(ModelParams(n=2000, p=0.05, seed=2)), [0, 1000]),
    ],
    ids=["path", "star", "clique", "bipartite-blocks", "bipartite-interleaved", "disconnected", "gnp-c100-1", "gnp-c100-2"],
)
def test_growth_matches_frozen_reference_shapes(g, roots):
    for root in roots:
        _assert_matches_reference(g, root)


@pytest.mark.parametrize("seed", range(10))
def test_prune_only_improves(seed):
    g = random_graph(80, 0.08, 6000 + seed)
    res = grow_induced_bfs(g, root=0)
    pruned = prune_fvs(g, res.fvs)
    assert pruned.size <= res.fvs.size
    assert is_acyclic_undirected(g, pruned)
    assert set(pruned.tolist()) <= set(res.fvs.tolist())


def test_prune_rejects_non_fvs():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        prune_fvs(tri, [])


def test_concentration_base_case_passes():
    # synthetic level stats at the root level of a c=500 run: l0=1, u0=n-1
    # always satisfy the envelopes, and the first unique-neighbor count sits
    # between the displayed bounds
    n, p = 100_000, 5e-3
    stats = LevelStats(l=[1, 480], u=[n - 1, n - 1 - 500], r=[1, 500], m=[0, 20], k=[1, 500], w=[0, 20])
    report = check_concentration_bounds(stats, n, p)
    assert report.applicable
    assert report.horizon == 1
    assert len(report.levels) == 1
    level0 = report.levels[0]
    assert level0.u_ok and level0.l_ok and level0.r_ok
    assert report.all_pass


def test_concentration_not_applicable_when_lower_bounds_void():
    stats = LevelStats(l=[1], u=[19999], r=[1], m=[0], k=[1], w=[0])
    report = check_concentration_bounds(stats, 20_000, 0.005)  # c=100 < 400
    assert not report.applicable
    assert not report.all_pass


def test_concentration_detects_violations():
    n, p = 100_000, 5e-3
    # a run that allegedly exposed almost everything at level 0 must fail u
    stats = LevelStats(l=[1, 480], u=[100, 50], r=[1, 500], m=[0, 20], k=[1, 500], w=[0, 20])
    report = check_concentration_bounds(stats, n, p)
    assert report.applicable
    assert not report.levels[0].u_ok
    assert not report.all_pass


def test_sample_acyclic_fraction_trivial():
    g = random_graph(50, 0.2, 42)
    assert sample_acyclic_fraction(g, 1, 200, seed=0) == 1.0
    assert sample_acyclic_fraction(g, 2, 200, seed=0) == 1.0


def test_sample_acyclic_fraction_dense_subsets_cyclic():
    # induced subgraphs with many more edges than vertices are never forests
    g = gen_gnp(ModelParams(n=400, p=0.1, seed=1))
    assert sample_acyclic_fraction(g, 100, 200, seed=2) == 0.0


def test_sample_acyclic_fraction_validation():
    g = random_graph(10, 0.1, 0)
    with pytest.raises(ValueError):
        sample_acyclic_fraction(g, 0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_acyclic_fraction(g, 11, 10, seed=0)
    with pytest.raises(ValueError):
        sample_acyclic_fraction(g, 3, 0, seed=0)


@pytest.mark.parametrize("chunk", [1 << 16, 997])
def test_growth_matches_frozen_reference_when_live_edges_are_gathered_again(monkeypatch, chunk):
    # large enough that the lower-neighbor scan drops the edges of exposed
    # tails at least once; a small slice splits every scan, and the scans
    # over two slices or more run in two halves
    monkeypatch.setattr(bfs_mod, "_CHUNK", chunk)
    monkeypatch.setattr(graphs_mod, "_CHUNK", chunk)
    started = thread_starts(monkeypatch)
    gathers = []
    rows_of = bfs_mod._rows_of
    monkeypatch.setattr(bfs_mod, "_rows_of", lambda *args: gathers.append(args[0].size) or rows_of(*args))
    n = 3000
    g = gen_gnp(ModelParams(n=n, p=0.01, seed=3))
    started.clear()
    for root in (0, n // 2, n - 1):
        gathers.clear()
        _assert_matches_reference(g, root)
        assert gathers
    assert bool(started) == (chunk < 1 << 16)


@pytest.mark.parametrize("block", [1, 5, 1 << 20])
def test_growth_matches_frozen_reference_across_gather_blocks(monkeypatch, block):
    # the count of the edges among the unique neighbors sums over gather blocks;
    # blocks of one row, of a few rows and of every row give the same stats
    monkeypatch.setattr(graphs_mod, "_BLOCK", block)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 150))
        g = random_graph(n, float(rng.uniform(0.01, 0.4)), 9100 + seed)
        _assert_matches_reference(g, int(rng.integers(0, n)))
    g = gen_gnp(ModelParams(n=2000, p=0.05, seed=0))
    _assert_matches_reference(g, 0)


def test_growth_never_lists_the_edges_of_a_unique_set(monkeypatch):
    # growth only counts those edges; prune_fvs and break_two_cycles share the gather through bfs_growth
    calls = []
    induced = graphs_mod._induced_edges
    for module in (graphs_mod, bfs_mod):
        monkeypatch.setattr(module, "_induced_edges", lambda *args: calls.append(args) or induced(*args))
    g = gen_gnp(ModelParams(n=2000, p=0.05, seed=1))
    res = grow_induced_bfs(g)
    assert not calls
    assert is_acyclic_undirected(g, res.fvs) and calls  # the acyclicity check still lists them
