import threading

import networkx as nx
import numpy as np
import pytest

import ihs.bfs_growth as bfs_mod
import ihs.graphs as graphs_mod
import ihs.oracles as oracles_mod
from ihs import (
    Digraph,
    Graph,
    GraphError,
    bfs_cycle_oracle,
    grow_induced_bfs,
    is_acyclic_directed,
    is_acyclic_undirected,
    prune_fvs,
    shadow_undirected,
    shortest_cycle_oracle,
)
from ihs.bfs_growth import break_two_cycles
from ihs.oracles import successor_lists


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_digraph(n, p, seed):
    rng = np.random.default_rng(seed)
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return Digraph(n, arcs)


def test_construction_validates():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])  # same undirected edge twice
    with pytest.raises(GraphError):
        Digraph(3, [(0, 1), (0, 1)])
    # antiparallel arcs are legal at the type level
    d = Digraph(3, [(0, 1), (1, 0)])
    assert d.num_arcs == 2


def test_graph_stores_its_edge_list_and_upper_csr_only():
    assert Graph.__slots__ == ("n", "edge_list", "up_indptr", "up_indices")


def test_digraph_stores_its_arc_list_and_out_csr_only():
    assert Digraph.__slots__ == ("n", "arc_list", "out_indptr", "out_indices")


def test_adjacency_is_sorted_and_consistent():
    g = Graph(5, [(3, 1), (0, 4), (1, 0), (2, 1)])
    adj, succ = successor_lists(g)
    assert adj[1] == [0, 2, 3]
    assert g.edge_list.tolist() == [[0, 1], [0, 4], [1, 2], [1, 3]]
    for u, v in g.edge_list.tolist():
        assert v in succ[u] and u in succ[v]


def test_acyclic_undirected_trivial_cases():
    assert is_acyclic_undirected(Graph(5), [])
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert not is_acyclic_undirected(tri, [])
    assert is_acyclic_undirected(tri, [2])


def test_acyclic_directed_trivial_cases():
    chain = Digraph(3, [(0, 1), (1, 2)])
    assert is_acyclic_directed(chain, [])
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert not is_acyclic_directed(tri, [])
    assert is_acyclic_directed(tri, [0])


def test_acyclic_directed_long_path_and_cycle():
    # one path through every vertex: far deeper than any recursion limit
    n = 200_000
    order = np.random.default_rng(0).permutation(n)
    path = np.column_stack((order[:-1], order[1:]))
    assert is_acyclic_directed(Digraph(n, path))
    ring = Digraph(n, np.vstack((path, [[order[-1], order[0]]])))
    assert not is_acyclic_directed(ring)
    assert is_acyclic_directed(ring, [int(order[n // 2])])


def test_removed_out_of_range():
    g = Graph(4, [(0, 1)])
    with pytest.raises(GraphError):
        is_acyclic_undirected(g, [4])
    d = Digraph(4, [(0, 1)])
    with pytest.raises(GraphError):
        is_acyclic_directed(d, [-1])


@pytest.mark.parametrize("seed", range(40))
def test_acyclic_undirected_matches_forest_count_check(seed):
    # independent oracle: a forest has exactly |V'| - #components edges
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 40))
    g = random_graph(n, float(rng.uniform(0.02, 0.2)), seed)
    removed = [v for v in range(n) if rng.random() < 0.3]
    kept = [v for v in range(n) if v not in set(removed)]
    h = nx.Graph()
    h.add_nodes_from(kept)
    h.add_edges_from(
        (u, v) for u, v in g.edge_list.tolist() if u in set(kept) and v in set(kept)
    )
    expected = h.number_of_edges() == h.number_of_nodes() - nx.number_connected_components(h)
    assert is_acyclic_undirected(g, removed) == expected


def networkx_is_dag(d, removed) -> bool:
    kept = set(range(d.n)) - set(removed)
    h = nx.DiGraph()
    h.add_nodes_from(kept)
    h.add_edges_from((u, v) for u, v in d.arc_list.tolist() if u in kept and v in kept)
    return nx.is_directed_acyclic_graph(h)


@pytest.mark.parametrize("seed", range(40))
def test_acyclic_directed_matches_networkx(seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(2, 30))
    d = random_digraph(n, float(rng.uniform(0.02, 0.2)), seed)
    removed = [v for v in range(n) if rng.random() < 0.3]
    assert is_acyclic_directed(d, removed) == networkx_is_dag(d, removed)


def kahn_spy(monkeypatch) -> list[int]:
    """Count the calls of the directed check's Kahn peel, ``drain_sources``."""
    calls = []
    drain = graphs_mod.drain_sources
    monkeypatch.setattr(graphs_mod, "drain_sources", lambda *args: calls.append(1) or drain(*args))
    return calls


@pytest.mark.parametrize("seed", range(30))
def test_acyclic_directed_order_witness_and_kahn_match_networkx(monkeypatch, seed):
    # where every alive arc goes up in id, the order witness decides and Kahn never runs:
    # digraphs of upward arcs, and digraphs whose back arcs all touch a removed vertex;
    # with ids permuted the same digraphs stay acyclic, and cyclic ones fall through to Kahn
    calls = kahn_spy(monkeypatch)
    rng = np.random.default_rng(6000 + seed)
    n = int(rng.integers(2, 30))
    d = random_digraph(n, float(rng.uniform(0.05, 0.4)), 7000 + seed)  # with antiparallel pairs
    removed = [v for v in range(n) if rng.random() < 0.3]
    gone = set(removed)
    arcs = d.arc_list.tolist()
    up = Digraph(n, [(u, v) for u, v in arcs if u < v])
    touched = Digraph(n, [(u, v) for u, v in arcs if u < v or u in gone or v in gone])
    for g in (up, touched):
        assert is_acyclic_directed(g, removed) and networkx_is_dag(g, removed) and not calls
    perm = rng.permutation(n)
    for g in (up, touched, d):
        h = Digraph(n, perm[g.arc_list])
        for cut in ([], removed, perm[removed].tolist()):
            calls.clear()
            alive = set(range(n)) - set(cut)
            back = [(u, v) for u, v in h.arc_list.tolist() if u > v and u in alive and v in alive]
            assert is_acyclic_directed(h, cut) == networkx_is_dag(h, cut)
            assert len(calls) == bool(back)


def test_acyclic_directed_witness_edge_cases(monkeypatch):
    calls = kahn_spy(monkeypatch)
    assert is_acyclic_directed(Digraph(0)) and is_acyclic_directed(Digraph(4)) and not calls
    anti = Digraph(3, [(0, 1), (1, 0), (1, 2)])
    assert is_acyclic_directed(anti, [0]) and is_acyclic_directed(anti, [1]) and not calls
    assert not is_acyclic_directed(anti) and calls == [1]
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert is_acyclic_directed(tri, [0, 1, 2]) and is_acyclic_directed(anti, [0, 1, 2]) and calls == [1]


def test_shadow_undirected_cases():
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert shadow_undirected(tri).edge_list.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert shadow_undirected(Digraph(4)).num_edges == 0
    anti = Digraph(2, [(0, 1), (1, 0)])
    assert shadow_undirected(anti).edge_list.tolist() == [[0, 1]]


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
def test_shadow_and_two_cycles_match_a_plain_loop(monkeypatch, chunk):
    # dense enough that most instances hold antiparallel pairs
    monkeypatch.setattr(graphs_mod, "_CHUNK", chunk)
    for n, p, seed in [(0, 0.3, 0), (1, 0.3, 1), (2, 1.0, 2), (9, 0.3, 3), (30, 0.1, 4), (30, 0.4, 5)]:
        d = random_digraph(n, p, seed)
        arcs = set(map(tuple, d.arc_list.tolist()))
        pairs = sorted({(min(u, v), max(u, v)) for u, v in arcs})
        shadow = shadow_undirected(d)
        assert shadow.edge_list.tolist() == [list(e) for e in pairs]
        assert shadow.num_edges == 0 or shadow.edge_list.flags.owndata  # the packed array, kept as is
        rng = np.random.default_rng(seed)
        for fvs in (np.empty(0, dtype=np.int64), np.flatnonzero(rng.random(n) < 0.3)):
            in_fvs = set(fvs.tolist())
            for u, v in pairs:
                if (v, u) in arcs and (u, v) in arcs and u not in in_fvs and v not in in_fvs:
                    in_fvs.add(v)
            assert break_two_cycles(d, fvs).tolist() == sorted(in_fvs)


@pytest.mark.parametrize("seed", range(20))
def test_shadow_fvs_transfers_to_digraph(seed):
    rng = np.random.default_rng(3000 + seed)
    d = random_digraph(20, 0.1, 4000 + seed)
    shadow = shadow_undirected(d)
    removed = [v for v in range(20) if rng.random() < 0.5]
    if is_acyclic_undirected(shadow, removed):
        assert is_acyclic_directed(d, removed)


# ---------------------------------------------------------------------------
# construction: the sort-free path for canonical input against a reference
# CSR built with np.lexsort


def reference_csr(n, src, dst):
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


def canonical_pairs(n, p, seed):
    rng = np.random.default_rng(seed)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.size) < p
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


def assert_graph_matches(g, n, canon):
    u, v = canon[:, 0], canon[:, 1]
    up_ptr, up_idx = reference_csr(n, u, v)
    low_ptr, low_idx = reference_csr(n, v, u)
    # the rows of the transpose, as prune_fvs and successor_lists sort them
    tr_ptr, tr_idx = graphs_mod._transposed_rows(n, g.edge_list)
    assert g.edge_list.tolist() == canon.tolist()
    assert np.array_equal(g.up_indptr, up_ptr) and np.array_equal(g.up_indices, up_idx)
    assert np.array_equal(tr_ptr, low_ptr) and np.array_equal(tr_idx, low_idx)
    assert g.num_edges == 0 or np.shares_memory(g.up_indices, g.edge_list)  # the column, not a copy
    for arr in (g.edge_list, g.up_indices, tr_idx):
        assert arr.dtype == np.int32 and not arr.flags.writeable
    for arr in (g.up_indptr, tr_ptr):
        assert arr.dtype == np.int64 and not arr.flags.writeable


def assert_digraph_matches(d, n, arcs):
    arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
    out_ptr, out_idx = reference_csr(n, arcs[:, 0], arcs[:, 1])
    in_ptr, in_idx = reference_csr(n, arcs[:, 1], arcs[:, 0])
    # the rows of the transpose, as _transposed_rows gives them (no Digraph reader sorts them today)
    tr_ptr, tr_idx = graphs_mod._transposed_rows(n, d.arc_list)
    assert d.arc_list.tolist() == arcs.tolist()
    assert np.array_equal(d.out_indptr, out_ptr) and np.array_equal(d.out_indices, out_idx)
    assert np.array_equal(tr_ptr, in_ptr) and np.array_equal(tr_idx, in_idx)
    assert d.num_arcs == 0 or np.shares_memory(d.out_indices, d.arc_list)  # the column, not a copy
    for arr in (d.arc_list, d.out_indices, tr_idx):
        assert arr.dtype == np.int32 and not arr.flags.writeable
    for arr in (d.out_indptr, tr_ptr):
        assert arr.dtype == np.int64 and not arr.flags.writeable


def input_forms(pairs, rng):
    """The same pairs in canonical, shuffled and reversed order, as a list and
    as int64, unsigned and int32 arrays."""
    orders = [pairs, pairs[rng.permutation(len(pairs))], pairs[::-1]]
    for arr in orders:
        yield arr.tolist()
        yield arr
        yield arr.astype(np.uint32)
        yield arr.astype(np.uint64)
        yield arr.astype(np.int32)


@pytest.mark.parametrize("chunk", [1 << 16, 1, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_graph_matches_reference_csr(monkeypatch, chunk, n):
    monkeypatch.setattr(graphs_mod, "_CHUNK", chunk)
    rng = np.random.default_rng(n)
    for seed in range(3):
        canon = canonical_pairs(n, 0.3, seed)
        for form in input_forms(canon, rng):
            assert_graph_matches(Graph(n, form), n, canon)
        # pairs given as (v, u) are stored as (u, v)
        assert_graph_matches(Graph(n, canon[:, ::-1]), n, canon)


@pytest.mark.parametrize("chunk", [1 << 16, 1, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_digraph_matches_reference_csr(monkeypatch, chunk, n):
    monkeypatch.setattr(graphs_mod, "_CHUNK", chunk)
    rng = np.random.default_rng(100 + n)
    for seed in range(3):
        canon = canonical_pairs(n, 0.3, seed)
        flip = rng.random(len(canon)) < 0.5
        arcs = np.where(flip[:, None], canon[:, ::-1], canon)
        for form in input_forms(arcs, rng):
            assert_digraph_matches(Digraph(n, form), n, arcs)


def test_isolated_vertices_have_empty_rows():
    g = Graph(6, [(1, 4)])
    assert g.up_indptr.tolist() == [0, 0, 1, 1, 1, 1, 1]
    assert successor_lists(g)[0] == [[], [4], [], [], [1], []]
    d = Digraph(6, [(4, 1)])
    assert d.out_indptr.tolist() == [0, 0, 0, 0, 0, 1, 1]
    assert graphs_mod._transposed_rows(d.n, d.arc_list)[0].tolist() == [0, 0, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("cls", [Graph, Digraph])
def test_slice_boundaries_keep_every_check(monkeypatch, cls):
    monkeypatch.setattr(graphs_mod, "_CHUNK", 2)
    canon = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    # a duplicate, a self-loop or a descending pair straddling the boundary
    # between the slices [0, 2) and [2, 4)
    with pytest.raises(GraphError, match="duplicate"):
        cls(4, canon[:2] + [(0, 2)] + canon[2:])
    with pytest.raises(GraphError, match="self-loop"):
        cls(4, canon[:2] + [(2, 2)] + canon[2:])
    swapped = canon[:1] + [canon[2], canon[1]] + canon[3:]
    g = cls(4, swapped)
    pairs = g.arc_list if cls is Digraph else g.edge_list
    assert pairs.tolist() == [list(e) for e in canon]
    with pytest.raises(GraphError, match="range"):
        cls(4, canon[:3] + [(1, 4)])


def thread_starts(monkeypatch) -> list:
    """The threads started from now on, counted at ``threading.Thread.start``."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    return started


@pytest.mark.parametrize("cls", [Graph, Digraph])
def test_canonical_check_in_halves_reports_what_one_scan_reports(monkeypatch, cls):
    # slices of 2 over 6 pairs: the lower half [0, 2) on the caller, the upper [2, 6) on a helper
    monkeypatch.setattr(graphs_mod, "_CHUNK", 2)
    started = thread_starts(monkeypatch)
    canon = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def build(pairs):
        g = cls(4, pairs)
        return (g.arc_list if cls is Digraph else g.edge_list).tolist()

    assert build(canon) == [list(e) for e in canon] and len(started) == 1
    # the first failing half decides, as the first failing slice does
    with pytest.raises(GraphError, match="self-loop"):
        build([(1, 1), (0, 1), (0, 3), (1, 2), (2, 9), (2, 3)])
    with pytest.raises(GraphError, match="range"):
        build([(0, 9), (0, 1), (0, 3), (1, 2), (2, 2), (2, 3)])
    # an order break in the lower half sends the whole list to the sort,
    # which meets the upper half's error in slice order
    with pytest.raises(GraphError, match="range"):
        build([(0, 2), (0, 1), (0, 3), (1, 2), (2, 9), (2, 3)])
    # an order break or a duplicate in the upper half, or across the boundary
    for pairs in ([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)], [(0, 1), (0, 3), (0, 2), (1, 2), (1, 3), (2, 3)]):
        assert build(pairs) == [list(e) for e in canon]
    with pytest.raises(GraphError, match="duplicate"):
        build([(0, 1), (0, 2), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert len(started) == 7


def test_undirected_pair_order_at_slice_boundary(monkeypatch):
    monkeypatch.setattr(graphs_mod, "_CHUNK", 2)
    g = Graph(4, [(0, 1), (0, 2), (2, 1), (1, 3)])
    assert g.edge_list.tolist() == [[0, 1], [0, 2], [1, 2], [1, 3]]
    with pytest.raises(GraphError, match="duplicate"):
        Graph(4, [(0, 1), (1, 2), (2, 1), (1, 3)])


def test_canonical_read_only_int32_input_is_kept_without_copy():
    edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int32)
    edges.setflags(write=False)
    assert Graph(3, edges).edge_list is edges
    assert Digraph(3, edges).arc_list is edges


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
def test_caller_array_mutation_does_not_reach_graph(dtype):
    edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=dtype)
    g, d = Graph(3, edges), Digraph(3, edges)
    edges[:] = [[1, 2], [0, 1], [0, 2]]
    assert g.edge_list.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert successor_lists(g)[0] == [[1, 2], [0, 2], [0, 1]]
    assert d.arc_list.tolist() == [[0, 1], [0, 2], [1, 2]]
    in_ptr, in_idx = graphs_mod._transposed_rows(d.n, d.arc_list)
    assert in_idx[in_ptr[2]:in_ptr[3]].tolist() == [0, 1]


@pytest.mark.parametrize(
    "pairs",
    [
        [(0.5, 1)],
        [(0, 1), (1, 2.25)],
        np.array([[0.7, 2.2]]),
        np.array([[0, np.nan]]),
        np.array([[0, np.inf]]),
        np.array([["0", "1"]]),
    ],
)
@pytest.mark.parametrize("cls", [Graph, Digraph])
def test_non_integer_ids_are_rejected(cls, pairs):
    with pytest.raises(GraphError):
        cls(3, pairs)


def test_integral_floats_are_ids():
    assert Graph(3, [(0.0, 2.0)]).edge_list.tolist() == [[0, 2]]
    assert Digraph(3, np.array([[2.0, 1.0]])).arc_list.tolist() == [[2, 1]]
    with pytest.raises(GraphError, match="range"):
        Graph(3, np.array([[0.0, 1e30]]))


@pytest.mark.parametrize("block", [1, 5, 1 << 20])
def test_gather_matches_concatenated_rows(monkeypatch, block):
    # blocks of one or five neighbors: most rows are longer than a block
    monkeypatch.setattr(graphs_mod, "_BLOCK", block)
    g = random_graph(30, 0.2, 7)
    low = graphs_mod._transposed_rows(g.n, g.edge_list)
    for indptr, indices in (low, (g.up_indptr, g.up_indices)):
        rows = [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(g.n)]
        for verts in ([], [3], [0, 5, 6, 29], list(range(30))):
            nbrs, rep = graphs_mod._gather(indptr, indices, np.asarray(verts, dtype=np.int64))
            assert nbrs.dtype == rep.dtype == np.int32
            assert nbrs.tolist() == [w for v in verts for w in rows[v]]
            assert rep.tolist() == [i for i, v in enumerate(verts) for _ in rows[v]]


@pytest.mark.parametrize("block", [1, 5, 1 << 20])
def test_induced_edges_match_the_filtered_edge_list(monkeypatch, block):
    # the upper CSR of a Graph gives its edges, the out-CSR of a Digraph its arcs, both in lex order
    monkeypatch.setattr(graphs_mod, "_BLOCK", block)
    g, d = random_graph(40, 0.3, 11), random_digraph(40, 0.15, 12)
    rng = np.random.default_rng(block)
    for pairs, indptr, indices in ((g.edge_list, g.up_indptr, g.up_indices), (d.arc_list, d.out_indptr, d.out_indices)):
        for verts in ([], [7], np.flatnonzero(rng.random(40) < 0.5), list(range(40))):
            verts = np.asarray(verts, dtype=np.int64)
            inside = rng.random(40) < 0.6
            eu, ev = graphs_mod._induced_edges(indptr, indices, verts, inside)
            want = [(u, v) for u, v in pairs.tolist() if u in set(verts.tolist()) and inside[v]]
            assert eu.dtype == ev.dtype == np.int32
            assert list(zip(eu.tolist(), ev.tolist())) == want


@pytest.mark.parametrize("block", [1, 5, 1 << 20])
def test_survivor_readers_match_references_across_gather_blocks(monkeypatch, block):
    # prune_fvs, break_two_cycles and is_acyclic_directed read the survivors' pairs from one
    # gather; blocks of one neighbor, of a few and of every row give what plain loops give
    monkeypatch.setattr(graphs_mod, "_BLOCK", block)
    unions = []

    def union_edges(parent, edges):
        unions.append([tuple(e) for e in edges])
        return graphs_mod.union_edges(parent, unions[-1])

    monkeypatch.setattr(bfs_mod, "union_edges", union_edges)
    for n, p, seed in [(1, 0.3, 0), (12, 0.4, 1), (40, 0.15, 2), (60, 0.08, 3)]:
        rng = np.random.default_rng(seed)
        g = random_graph(n, p, 500 + seed)
        fvs = grow_induced_bfs(g).fvs
        gone = np.zeros(n, dtype=bool)
        gone[fvs] = True
        # the union order of the slice scan prune_fvs made before, slices of three edges
        slices = (g.edge_list[s:s + 3] for s in range(0, g.num_edges, 3))
        old_order = [tuple(e) for part in slices for e in part[~gone[part].any(axis=1)].tolist()]
        ref = nx.Graph(g.edge_list.tolist())
        ref.add_nodes_from(range(n))
        removed = set(fvs.tolist())
        for v in sorted(removed):  # move v back while the complement stays a forest
            if nx.is_forest(ref.subgraph([w for w in range(n) if w not in removed or w == v])):
                removed.discard(v)
        unions.clear()
        assert prune_fvs(g, fvs).tolist() == sorted(removed)
        assert unions == [old_order]

        d = random_digraph(n, 3 * p, 600 + seed)  # dense enough for antiparallel pairs
        arcs = set(map(tuple, d.arc_list.tolist()))
        cut = np.flatnonzero(rng.random(n) < 0.3)
        in_cut = set(cut.tolist())
        for u, v in sorted(arcs):
            if u < v and (v, u) in arcs and u not in in_cut and v not in in_cut:
                in_cut.add(v)
        assert break_two_cycles(d, cut).tolist() == sorted(in_cut)
        ref = nx.DiGraph(list(arcs))
        ref.add_nodes_from(range(n))
        for removed_set in (cut.tolist(), sorted(in_cut), bfs_mod.fvs_directed(d).fvs.tolist(), list(range(0, n, 2))):
            alive = [v for v in range(n) if v not in set(removed_set)]
            assert is_acyclic_directed(d, removed_set) == nx.is_directed_acyclic_graph(ref.subgraph(alive))


@pytest.mark.parametrize("n", [0, 1, 2, 40])
def test_successor_lists_match_networkx_adjacency(n):
    # vertex 1 is isolated whenever it exists
    g = Graph(n, [e for e in random_graph(n, 0.3, n).edge_list.tolist() if 1 not in e])
    ref = nx.Graph(g.edge_list.tolist())
    ref.add_nodes_from(range(n))
    adj, succ = successor_lists(g)
    assert adj == [sorted(ref[v]) for v in range(n)]
    assert [succ[v] for v in range(n)] == [set(ref[v]) for v in range(n)]


@pytest.mark.parametrize("reader", ["prune_fvs", "bfs_cycle_oracle", "shortest_cycle_oracle"])
def test_transpose_readers_sort_it_once_per_call(monkeypatch, reader):
    # growth and its validation never sort the transpose; prune_fvs and each
    # oracle sort it once, and still pass their networkx checks
    builds = []
    transposed_rows = graphs_mod._transposed_rows
    for mod in (graphs_mod, bfs_mod, oracles_mod):
        monkeypatch.setattr(mod, "_transposed_rows", lambda n, pairs: builds.append(n) or transposed_rows(n, pairs))
    g = random_graph(40, 0.15, 3)
    ref = nx.Graph(g.edge_list.tolist())
    ref.add_nodes_from(range(g.n))
    fvs = grow_induced_bfs(g, root=0).fvs
    assert is_acyclic_undirected(g, fvs) and not builds
    if reader == "prune_fvs":
        pruned = prune_fvs(g, fvs)
        assert set(pruned.tolist()) <= set(fvs.tolist()) and is_acyclic_undirected(g, pruned)
        assert nx.is_forest(ref.subgraph(set(range(g.n)) - set(pruned.tolist())))
    else:
        oracle = {"bfs_cycle_oracle": bfs_cycle_oracle, "shortest_cycle_oracle": shortest_cycle_oracle}[reader](g)
        assert oracle.check(fvs.tolist()).feasible
        cycle = oracle.check([]).missed
        sub = ref.subgraph(cycle)
        assert nx.is_connected(sub) and min(d for _, d in sub.degree) >= 2
        if reader == "shortest_cycle_oracle":
            assert len(cycle) == nx.girth(ref)
    assert builds == [g.n]
