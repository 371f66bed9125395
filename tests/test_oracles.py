import itertools
from itertools import permutations

import networkx as nx
import numpy as np
import pytest

from ihs import (
    Digraph,
    Graph,
    GraphError,
    OracleProtocolError,
    ModelParams,
    SubsetFamily,
    bfs_cycle_oracle,
    cycles_of_length,
    explicit_family_oracle,
    gen_dnp,
    gen_gnp,
    is_acyclic_directed,
    is_acyclic_undirected,
    shortest_cycle_oracle,
)
import ihs.oracles as oracles_mod
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


@pytest.mark.parametrize("bad", [[2, 7], [3], (-1,), np.array([0, -4]), np.array([3], dtype=np.int32)])
def test_explicit_family_oracle_rejects_ids_out_of_range(bad):
    oracle = explicit_family_oracle(SubsetFamily(3, [(0, 1), (2,)]))
    with pytest.raises(ValueError, match="out of range"):
        oracle.check(bad)
    assert oracle.check([0, 2]).feasible and oracle.check(()).missed == (0, 1)


QUERY_FORMS = [list, tuple, frozenset, lambda ids: np.array(ids, dtype=np.int64), lambda ids: (v for v in ids)]


@pytest.mark.parametrize("make", [
    lambda: (bfs_cycle_oracle, gen_gnp(ModelParams(n=30, p=0.15, seed=1))),
    lambda: (shortest_cycle_oracle, gen_gnp(ModelParams(n=30, p=0.15, seed=1))),
    lambda: (shortest_cycle_oracle, gen_dnp(ModelParams(n=30, p=0.1, seed=1))),
], ids=["bfs-gnp", "shortest-gnp", "shortest-dnp"])
def test_cycle_oracle_memo_answers_every_query_form_as_a_fresh_oracle(make):
    factory, g = make()
    rng = np.random.default_rng(23)
    memo = factory(g)
    queries = [rng.choice(30, size=int(rng.integers(0, 20)), replace=False).tolist() for _ in range(40)]
    want = [factory(g).check(ids) for ids in queries]
    assert any(v.feasible for v in want) and not all(v.feasible for v in want)
    asks = [(i, form) for i in range(len(queries)) for form in QUERY_FORMS] * 2
    for k in rng.permutation(len(asks)).tolist():
        i, form = asks[k]
        assert memo.check(form(rng.permutation(queries[i]).tolist())) == want[i]
    for _ in range(3):  # a failed call is not memoised
        for form in QUERY_FORMS:
            with pytest.raises(GraphError, match="out of range"):
                memo.check(form([3, 30]))


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


def with_hanging_paths(core: Graph | Digraph, n: int, seed: int) -> Graph | Digraph:
    """``core`` grown to ``n`` vertices, each new vertex joined to one earlier
    vertex (by an arc either way on a Digraph), with the ids shuffled: trees
    hang off a Graph's cycles, and paths run into and out of a Digraph's. The
    new vertices close no cycle, so the peel removes them all."""
    rng = np.random.default_rng(seed)
    directed = isinstance(core, Digraph)
    pairs = (core.arc_list if directed else core.edge_list).tolist()
    for v in range(core.n, n):
        u = int(rng.integers(0, v))
        pairs.append((v, u) if directed and rng.random() < 0.5 else (u, v))
    relabel = rng.permutation(n).tolist()
    return type(core)(n, [(relabel[u], relabel[v]) for u, v in pairs])


@pytest.mark.parametrize("seed", range(80))
def test_shortest_cycle_verdict_is_the_first_shortest_cycle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 14))
    blocked = {v for v in range(n) if rng.random() < 0.15}
    # random_digraph draws both orientations of a pair independently: antiparallel arcs occur
    for g in (random_graph(n, float(rng.uniform(0.15, 0.5)), 1_000 + seed),
              random_digraph(n, float(rng.uniform(0.05, 0.3)), 2_000 + seed)):
        assert shortest_cycle_oracle(g).check(blocked).missed == first_shortest_cycle(g, blocked)
    # cores whose cycles the hanging vertices leave alone: fewer vertices are
    # left after the peel than survive the query
    m = int(rng.integers(3, 8))
    for core in (random_graph(m, 0.6, 3_000 + seed), random_digraph(m, 0.35, 4_000 + seed)):
        g = with_hanging_paths(core, m + n, 5_000 + seed)
        blocked = {v for v in range(g.n) if rng.random() < 0.1}
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
            adj = successor_lists(g)[0]
            for v in members:
                deg = sum(1 for w in adj[v] if w in members)
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


def reference_walks(rows, start, length, min_id=0, allowed=None) -> list[list[int]]:
    """The paths ``walk_cycles`` yields, in order, by a recursive walk over Python list rows."""

    def extend(path):
        if len(path) == length:
            if start in rows[path[-1]]:
                yield path
            return
        for v in rows[path[-1]]:
            if v >= min_id and (allowed is None or allowed[v]) and v not in path:
                yield from extend(path + [v])

    return list(extend([start]))


@pytest.mark.parametrize("seed", range(20))
def test_digraph_rows_are_csr_slices_and_walks_keep_their_order(seed):
    # random digraphs with empty rows, n = 0 and antiparallel arcs: each CSR row reads as the
    # Python list it replaces, and walks from every start, with and without an anchor bound,
    # over every kind of mask, yield the reference paths in order, and leave the mask as it
    # was whether they run out or stop at the first path
    rng = np.random.default_rng(90_000 + seed)
    n = int(rng.integers(0, 12)) if seed else 0
    d = random_digraph(n, float(rng.uniform(0.0, 0.5)), 91_000 + seed)
    adj, succ = successor_lists(d)
    lists = oracles_mod._row_lists(d.out_indptr, d.out_indices)
    assert len(adj) == n and [list(adj[v]) for v in range(n)] == lists
    masks = (None, bytearray(rng.random(n) < 0.7), (rng.random(n) < 0.7).tolist(), rng.random(n) < 0.7)
    for k, allowed, start in itertools.product(range(2, 6), masks, range(n)):
        before = None if allowed is None else list(allowed)
        for min_id in (0, start + 1):
            want = reference_walks(lists, start, k, min_id, allowed)
            assert [list(path) for path in walk_cycles(adj, succ, start, k, min_id, allowed)] == want
            assert next(walk_cycles(adj, succ, start, k, min_id, allowed), None) == (want[0] if want else None)
            assert before is None or list(allowed) == before
    assert [succ[v] for v in range(n)] == [set(row) for row in lists]


@pytest.mark.parametrize("seed", range(20))
def test_cycles_of_length_allowed_matches_induced_brute_force(seed):
    # only the cycles of the subgraph the mask induces, in the unmasked order
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    d = random_digraph(n, float(rng.uniform(0.2, 0.6)), 50_000 + seed)
    allowed = rng.random(n) < 0.7
    for k in (2, 3, 4, 5):
        got = _rows(cycles_of_length(d, k, allowed=allowed))
        assert sorted(got) == [c for c in brute_force_k_cycles(d, k) if allowed[list(c)].all()]
        assert got == [c for c in _rows(cycles_of_length(d, k)) if allowed[list(c)].all()]
        assert _rows(cycles_of_length(d, k, limit=1, allowed=allowed)) == got[:1]


def test_cycles_deterministic_order():
    d = Digraph(5, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1), (2, 3), (3, 0)])
    assert _rows(cycles_of_length(d, 3)) == _rows(cycles_of_length(d, 3))
    anchors = [c[0] for c in _rows(cycles_of_length(d, 3))]
    assert anchors == sorted(anchors)
