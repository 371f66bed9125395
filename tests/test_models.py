import math
import sys
import warnings

import numpy as np
import pytest

import ihs.graphs as graphs_mod
import ihs.models as models_mod
from ihs import (
    Digraph,
    ModelParams,
    gen_dnp,
    gen_gnp,
    gen_planted,
    is_acyclic_directed,
    shadow_undirected,
)


def test_param_validation():
    with pytest.raises(ValueError):
        ModelParams(n=0, p=0.1).validate("gnp")
    with pytest.raises(ValueError):
        ModelParams(n=10, p=1.5).validate("gnp")
    with pytest.raises(ValueError):
        ModelParams(n=10, p=0.6).validate("dnp")  # 2p > 1
    with pytest.raises(ValueError):
        ModelParams(n=10, p=0.1, delta=0.0).validate("planted")
    with pytest.raises(ValueError):
        ModelParams(n=5, p=0.1, delta=0.1).validate("planted")  # floor(delta n) = 0
    ModelParams(n=10, p=0.5).validate("dnp")
    ModelParams(n=400, p=0.6, delta=0.1, k=3).validate("planted")  # recovery regime


def test_gnp_edge_probability_boundaries():
    assert gen_gnp(ModelParams(n=10, p=0.0, seed=1)).num_edges == 0
    assert gen_gnp(ModelParams(n=10, p=1.0, seed=1)).num_edges == 45


def test_gnp_determinism():
    a = gen_gnp(ModelParams(n=200, p=0.05, seed=42))
    b = gen_gnp(ModelParams(n=200, p=0.05, seed=42))
    c = gen_gnp(ModelParams(n=200, p=0.05, seed=43))
    assert a == b
    assert a != c


def test_gnp_edge_count_concentration():
    # binomial oracle: C(1000,2) * 0.1 = 49950, sigma = sqrt(49950 * 0.9) ~ 212
    mean = math.comb(1000, 2) * 0.1
    sigma = math.sqrt(mean * 0.9)
    for seed in (0, 7, 123):
        m = gen_gnp(ModelParams(n=1000, p=0.1, seed=seed)).num_edges
        assert abs(m - mean) < 5 * sigma


def test_dnp_boundaries_and_orientation_counts():
    assert gen_dnp(ModelParams(n=10, p=0.0, seed=3)).num_arcs == 0
    tournament = gen_dnp(ModelParams(n=10, p=0.5, seed=3))
    assert tournament.num_arcs == 45  # 2p = 1: every pair gets exactly one arc

    # each orientation is Binomial(C(n,2), p)
    mean = math.comb(1000, 2) * 0.05
    sigma = math.sqrt(mean * 0.95)
    for seed in (1, 2):
        d = gen_dnp(ModelParams(n=1000, p=0.05, seed=seed))
        up = int(np.sum(d.arc_list[:, 0] < d.arc_list[:, 1]))
        down = d.num_arcs - up
        assert abs(up - mean) < 5 * sigma
        assert abs(down - mean) < 5 * sigma


def test_dnp_never_antiparallel():
    d = gen_dnp(ModelParams(n=60, p=0.4, seed=9))
    seen = set(map(tuple, d.arc_list.tolist()))
    assert not any((v, u) in seen for u, v in seen)


def test_dnp_shadow_edge_count_mean():
    # shadow of the oriented model is G(n, 2p): mean over 100 seeds within
    # 3 sigma / sqrt(100) of C(500,2) * 0.2
    n, p, runs = 500, 0.1, 100
    mean = math.comb(n, 2) * 2 * p
    sigma = math.sqrt(mean * (1 - 2 * p))
    counts = [
        shadow_undirected(gen_dnp(ModelParams(n=n, p=p, seed=s))).num_edges
        for s in range(runs)
    ]
    assert abs(np.mean(counts) - mean) < 3 * sigma / math.sqrt(runs)


def gnp_sampled_by(monkeypatch, method, params):
    """``gen_gnp`` with the naive or the skip sampler forced by moving the
    pair count at which the skip sampler takes over."""
    monkeypatch.setattr(models_mod, "_SKIP_THRESHOLD", math.inf if method == "naive" else 0)
    return gen_gnp(params)


def test_skip_sampler_distribution_matches_naive(monkeypatch):
    # same distribution, different stream: compare edge-count statistics of the
    # two modes at a size where both run
    n, p, runs = 300, 0.05, 200
    pairs = math.comb(n, 2)
    mean = pairs * p
    sigma = math.sqrt(mean * (1 - p))
    naive = np.array([
        gnp_sampled_by(monkeypatch, "naive", ModelParams(n=n, p=p, seed=s)).num_edges for s in range(runs)
    ])
    skip = np.array([
        gnp_sampled_by(monkeypatch, "skip", ModelParams(n=n, p=p, seed=s)).num_edges for s in range(runs)
    ])
    assert abs(naive.mean() - mean) < 5 * sigma / math.sqrt(runs)
    assert abs(skip.mean() - mean) < 5 * sigma / math.sqrt(runs)
    # difference of the two mode means
    assert abs(naive.mean() - skip.mean()) < 5 * sigma * math.sqrt(2 / runs)


def test_skip_sampler_per_pair_frequencies(monkeypatch):
    # pooled per-pair inclusion frequency should concentrate around p for both modes
    n, p, runs = 40, 0.2, 400
    for method in ("naive", "skip"):
        freq = np.zeros((n, n))
        for s in range(runs):
            g = gnp_sampled_by(monkeypatch, method, ModelParams(n=n, p=p, seed=s))
            for u, v in g.edge_list.tolist():
                freq[u, v] += 1
        upper = freq[np.triu_indices(n, k=1)] / runs
        # Binomial(runs, p)/runs has sigma = 0.02; allow 5 sigma on the max over 780 pairs
        assert np.abs(upper - p).max() < 0.1
        assert abs(upper.mean() - p) < 0.01


@pytest.mark.parametrize("slice_size", [1, 3, 7, 65536])
def test_pair_decode_is_exact(monkeypatch, slice_size):
    monkeypatch.setattr(models_mod, "_SLICE", slice_size)
    for n in range(2, 70):
        u, v = np.triu_indices(n, 1)
        got = models_mod._draw_pairs(None, n, u.size, 1.0)
        assert got.dtype == np.int32
        assert np.array_equal(got[:, 0], u) and np.array_equal(got[:, 1], v)
        # an ascending subset, as the naive sampler draws it, of all pairs and
        # of the pairs from lex index `first` on
        for first in (0, u.size // 3):
            t = np.flatnonzero(np.random.default_rng(n).random(u.size - first) < 0.3) + first
            got = models_mod._draw_pairs(np.random.default_rng(n), n, u.size - first, 0.3, first)
            assert np.array_equal(got[:, 0], u[t]) and np.array_equal(got[:, 1], v[t])


@pytest.mark.parametrize("slice_size", [7, 1000, 1 << 16])
def test_naive_block_drawn_by_slices_keeps_the_stream(monkeypatch, slice_size):
    # n=300: 44,850 pairs, one block of the naive sampler cut into many slices
    # (one slice at 2^16); its pairs and the stream after it are the one-call draw's
    monkeypatch.setattr(models_mod, "_SLICE", slice_size)
    n, p = 300, 0.05
    u, v = np.triu_indices(n, 1)
    for seed in range(3):
        ref = models_mod._rng(seed)
        t = np.flatnonzero(ref.random(u.size) < p)
        ours = models_mod._rng(seed)
        got = models_mod._draw_pairs(ours, n, u.size, p)
        assert np.array_equal(got, np.stack([u[t], v[t]], axis=1))
        assert ours.random() == ref.random()
        chunks = list(models_mod._indices(models_mod._rng(seed), u.size, p, 0))
        assert len(chunks) == -(-u.size // slice_size)
        assert [last for _, last in chunks] == [False] * (len(chunks) - 1) + [True]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("p", [1e-9, 1e-6, 0.005, 0.3, 1 / 3 - 1e-12, 1 / 3, 0.4])
def test_bulk_gaps_are_numpys_geometric_stream(p, seed):
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    gaps = models_mod._gaps(ours, p, np.zeros(150_000, dtype=np.int64), 2**62)  # three slices
    assert np.array_equal(gaps, ref.geometric(p, 150_000))
    assert ours.random() == ref.random()


@pytest.mark.parametrize("p", [1e-6, 1e-17, 1e-300, 5e-324])
def test_gaps_past_the_block_are_cut_before_the_cast(p):
    # a gap of about 1/p would wrap int64 in the cast or the cumulative sum;
    # cut at the block's pair count + 1 it still ends the block, and every gap
    # that lands inside the block is numpy's
    cap = 10**6 if p == 1e-6 else 4_498_501
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 5e-324 is subnormal: its gaps overflow to inf, quietly
        gaps = models_mod._gaps(np.random.default_rng(0), p, np.zeros(70_000, dtype=np.int64), cap)
    if p == 1e-6:
        assert np.array_equal(gaps, np.minimum(np.random.default_rng(0).geometric(p, 70_000), cap))
        assert (gaps < cap).any() and (gaps == cap).any()
    else:
        assert (gaps == cap).all()


@pytest.mark.parametrize("p", [1e-17, 1e-300])
def test_vanishing_p_draws_an_empty_graph(p):
    # 4,498,500 pairs: above the skip threshold, so the gaps are drawn
    g = gen_gnp(ModelParams(n=3000, p=p, seed=0))
    assert g.n == 3000 and g.num_edges == 0


def reference_skip_pairs(rng, n, count, prob, chunk, first=0):
    """The skip sampler by its definition: ``rng.geometric`` gaps in the same
    chunks, summed to lex indices and decoded with ``np.triu_indices``."""
    u, v = np.triu_indices(n, 1)
    size = max(1024, min(chunk, int(count * prob * 1.1) + 64))
    picked, pos = [], -1
    while pos < count:
        cum = np.cumsum(rng.geometric(prob, size)) + pos
        picked.append(cum[cum < count])
        pos = cum[-1]
    t = np.concatenate(picked) + first
    return np.stack([u[t], v[t]], axis=1)


def reference_orient(rng, pairs):
    flip = rng.random(len(pairs)) >= 0.5
    return np.where(flip[:, None], pairs[:, ::-1], pairs)


@pytest.mark.parametrize("spare", [8, -30])  # -30: the pair array starts short and grows
def test_skip_sampler_decodes_the_reference_stream(monkeypatch, spare):
    # chunks of 1024 gaps: several per block, and a last one cut at the block's end
    monkeypatch.setattr(models_mod, "_SKIP_THRESHOLD", 0)
    monkeypatch.setattr(models_mod, "_CHUNK", 1024)
    monkeypatch.setattr(models_mod, "_SPARE_SIGMAS", spare)
    starts = []  # (write position, pair array length) of each decode started on a helper thread
    start = models_mod._start
    monkeypatch.setattr(models_mod, "_start",
                        lambda fn, out, at, *args: starts.append((at, out.shape[0])) or start(fn, out, at, *args))
    # slices of 7: each chunk but the last is decoded on a helper while the next
    # is drawn, and the canonical check runs in two halves; 2^16: all of it on
    # the caller. A short switch interval makes the two threads interleave often.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for slice_size in (7, 1 << 16):
            monkeypatch.setattr(models_mod, "_SLICE", slice_size)  # graphs' _CHUNK, imported by value
            monkeypatch.setattr(graphs_mod, "_CHUNK", slice_size)
            starts.clear()
            check_skip_sampler_against_reference()
            assert bool(starts) == (slice_size == 7)
            # a decode was in flight while the next chunk was drawn, and then the pair array grew
            grown = any(a0 < a1 and n0 < n1 for (a0, n0), (a1, n1) in zip(starts, starts[1:]))
            assert grown == (slice_size == 7 and spare < 0)
    finally:
        sys.setswitchinterval(interval)


def check_skip_sampler_against_reference():
    n, total = 300, 300 * 299 // 2
    for seed in range(3):
        for p in (0.01, 0.05, 0.4):  # 0.4: numpy's search for the gaps
            g = gen_gnp(ModelParams(n=n, p=p, seed=seed))
            assert g.edge_list.flags.owndata
            assert np.array_equal(g.edge_list, reference_skip_pairs(models_mod._rng(seed), n, total, p, 1024))

        rng = models_mod._rng(seed)
        arcs = reference_orient(rng, reference_skip_pairs(rng, n, total, 0.04, 1024))
        assert gen_dnp(ModelParams(n=n, p=0.02, seed=seed)) == Digraph(n, arcs)

        s = 30
        cross = s * (2 * n - s - 1) // 2
        rng = models_mod._rng(seed)
        arcs = reference_orient(rng, reference_skip_pairs(rng, n, cross, 0.1, 1024))
        forward = reference_skip_pairs(rng, n, total - cross, 0.05, 1024, first=cross)
        inst = gen_planted(ModelParams(n=n, p=0.05, delta=0.1, seed=seed))
        assert inst.digraph == Digraph(n, np.concatenate([arcs, forward]))
        # the orientation coins follow the last chunk's overshoot: the stream stays on the caller
        rng = models_mod._rng(seed)
        reference_skip_pairs(rng, n, total, 0.05, 1024)
        ours = models_mod._rng(seed)
        models_mod._draw_pairs(ours, n, total, 0.05)
        assert ours.random() == rng.random()


def test_draw_survives_a_tracer_that_reads_frame_locals(monkeypatch):
    # a debugger reading frame.f_locals holds one more reference to the pair
    # array while it is grown and shrunk in place
    monkeypatch.setattr(models_mod, "_SKIP_THRESHOLD", 0)
    monkeypatch.setattr(models_mod, "_SPARE_SIGMAS", -30)
    params = ModelParams(n=300, p=0.05, seed=0)
    plain = gen_gnp(params)

    def trace(frame, event, arg):
        frame.f_locals
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        traced = gen_gnp(params)
    finally:
        sys.settrace(previous)
    assert traced == plain


def test_planted_structure_and_determinism():
    params = ModelParams(n=400, p=0.6, delta=0.1, k=3, seed=11)
    inst = gen_planted(params)
    assert inst.planted == list(range(40))
    assert is_acyclic_directed(inst.digraph, inst.planted)
    again = gen_planted(params)
    assert inst.digraph == again.digraph

    seen = set(map(tuple, inst.digraph.arc_list.tolist()))
    assert not any((v, u) in seen for u, v in seen)
    # arcs in the complement only go forward in the identity order
    for u, v in inst.digraph.arc_list.tolist():
        if u >= 40 and v >= 40:
            assert u < v


@pytest.mark.parametrize("seed", range(10))
def test_planted_removal_always_leaves_dag(seed):
    inst = gen_planted(ModelParams(n=120, p=0.3, delta=0.25, k=3, seed=seed))
    assert is_acyclic_directed(inst.digraph, inst.planted)


def test_planted_boundaries():
    # delta = 1: every pair drawn with probability min(1, 2p), no DAG part
    inst = gen_planted(ModelParams(n=30, p=0.5, delta=1.0, seed=5))
    assert inst.planted == list(range(30))
    assert inst.digraph.num_arcs == math.comb(30, 2)

    empty = gen_planted(ModelParams(n=30, p=0.0, delta=0.2, seed=5))
    assert empty.digraph.num_arcs == 0
    assert empty.planted == list(range(6))


def test_planted_allows_cross_probability_above_half():
    # 2p is clamped at 1 for the pairs touching the planted set
    inst = gen_planted(ModelParams(n=50, p=0.6, delta=0.1, seed=2))
    planted = set(inst.planted)
    cross = sum(
        1 for u, v in inst.digraph.arc_list.tolist() if u in planted or v in planted
    )
    expected = math.comb(50, 2) - math.comb(45, 2)  # every cross pair present
    assert cross == expected


# ---------------------------------------------------------------------------
# memory guard: the estimate is compared before anything is drawn; the tests
# shrink the available memory, so a broken guard allocates only megabytes


def test_available_memory_is_read():
    have = models_mod.available_memory()
    assert have is None or have > 0


def test_expected_pairs_per_model():
    total = 1000 * 999 / 2
    assert ModelParams(n=1000, p=0.01).expected_pairs("gnp") == pytest.approx(0.01 * total)
    assert ModelParams(n=1000, p=0.01).expected_pairs("dnp") == pytest.approx(0.02 * total)
    # 100 planted vertices: their pairs at min(1, 2p), the rest at p
    cross = 100 * (2 * 1000 - 100 - 1) / 2
    planted = ModelParams(n=1000, p=0.6, delta=0.1).expected_pairs("planted")
    assert planted == pytest.approx(cross + 0.6 * (total - cross))


@pytest.mark.parametrize("model", ["gnp", "dnp", "planted"])
def test_memory_guard_refuses_before_drawing(monkeypatch, model):
    params = ModelParams(n=2000, p=0.2, delta=0.1, seed=1)
    need = models_mod._BYTES_PER_PAIR[model] * params.expected_pairs(model) + models_mod._FIXED_BYTES
    gen = {"gnp": gen_gnp, "dnp": gen_dnp, "planted": gen_planted}[model]
    monkeypatch.setattr(models_mod, "available_memory", lambda: int(need / 2))
    monkeypatch.setattr(models_mod, "_draw_pairs", None)  # drawing would fail
    with pytest.raises(ValueError, match="MB is available"):
        gen(params)
    monkeypatch.undo()
    monkeypatch.setattr(models_mod, "available_memory", lambda: int(2 * need))
    gen(params)
    monkeypatch.setattr(models_mod, "available_memory", lambda: None)
    gen(params)
