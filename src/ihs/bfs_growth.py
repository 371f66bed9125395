"""Level-by-level growth of an induced BFS tree whose complement is a feedback
vertex set, tuned for dense random graphs.

The builder keeps one surviving level at a time. Expanding a level exposes its
unexposed neighbors; only *unique* neighbors (adjacent to exactly one
survivor of the level) are retained, and the next level is the greedy maximal
independent set of the retained vertices in ascending id order: a vertex is
kept iff no kept neighbor has a smaller id. Each surviving vertex therefore
has exactly one edge into the previous level and none inside its own, so the
survivors induce a tree and everything else is a feedback vertex set. The
edges among the retained vertices are only counted, block by block; the sweep
reads the upper rows of the vertices it keeps and no others.

A level's neighbors are counted from the upper CSR alone: its upper neighbors
are its own rows, its lower neighbors the tails of the edges whose head is in
the level. Those edges are scanned in slices, only over rows below the
level's largest id, and the edges of exposed tails are dropped once they are
most of the list, so growth never sorts the transpose of the edge list.

Levels are grown until no unique neighbor survives, which is the behavior
that reaches near-optimal sets at practical sizes. ``check_concentration_bounds``
tests a recorded trajectory against the per-level envelopes of the
concentration analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import (
    _CHUNK,
    Digraph,
    Graph,
    GraphError,
    _gather,
    _gather_blocks,
    _in_halves,
    _induced_edges,
    _pack,
    _removed_mask,
    _transposed_rows,
    find,
    is_acyclic_undirected,
    shadow_undirected,
    union_edges,
)


@dataclass
class LevelStats:
    """Per-level counters of one growth run.

    Index t holds: survivors ``l[t]``, unexposed-after-exploration ``u[t]``, unique neighbors
    ``r[t]``, edges among them ``m[t]`` (counted, never listed), exposed neighbors ``k[t]``, and
    deletions ``w[t]`` used to make the level independent. Level 0 is the root: l=r=k=1, u=n-1, m=w=0.
    """

    l: list[int] = field(default_factory=list)
    u: list[int] = field(default_factory=list)
    r: list[int] = field(default_factory=list)
    m: list[int] = field(default_factory=list)
    k: list[int] = field(default_factory=list)
    w: list[int] = field(default_factory=list)

    def depth(self) -> int:
        return len(self.l) - 1


@dataclass
class FvsResult:
    """Output of one growth run: the feedback vertex set, and the levels of its
    complement tree with their counters."""

    fvs: np.ndarray
    stats: LevelStats
    levels: list[np.ndarray]


def concentration_depth(n: int, p: float) -> int:
    """Largest T with 16*T*p*(c + 20 sqrt(c))**(T-1) <= 1/2; zero when even T=1 fails."""
    if p <= 0.0:
        return 0
    c = n * p
    base = c + 20.0 * math.sqrt(c)
    t = 0
    while 16.0 * (t + 1) * p * base**t <= 0.5:
        t += 1
        if t > 10_000:  # p astronomically small; cap the scan
            break
    return t


def _greedy_independent(g: Graph, unique: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Greedy maximal independent set of the ascending ``unique`` in id order. ``alive``, the member
    mask of ``unique``, is consumed: a vertex still alive when the sweep reaches it is kept, and its
    upper neighbors in ``g`` die, members or not; every lower neighbor was settled before it. So
    only the rows of kept vertices are read."""
    ptr, heads, flags = g.up_indptr, g.up_indices, memoryview(alive)
    for v in unique.tolist():
        if flags[v]:
            alive[heads[ptr[v]:ptr[v + 1]]] = False
    return unique[alive[unique]]


def _lower_neighbors(ptr: np.ndarray, tails: np.ndarray, heads: np.ndarray, in_level: np.ndarray, top: int) -> np.ndarray:
    """Tails of the edges in the CSR ``(ptr, heads)`` whose head is in the mask
    ``in_level``, one per edge; ``tails[i]`` is the row of ``heads[i]``. Only
    rows below ``top``, the level's largest id, can hold such an edge, and they
    are scanned a slice at a time in ``_in_halves``, so no index array of the whole scan exists."""
    def scan(lo, hi):
        return [tails[s:e][in_level[heads[s:e]]] for s in range(lo, hi, _CHUNK) for e in [min(s + _CHUNK, hi)]]

    halves = _in_halves(scan, int(ptr[top]))
    return np.concatenate([np.empty(0, dtype=np.int32), *(part for half in halves for part in half)])


def _rows_of(ptr: np.ndarray, heads: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR ``(ptr, heads)`` cut to the rows in the mask ``keep``, every
    other row left empty: its row pointer, each edge's row and its heads."""
    verts = np.flatnonzero(keep)
    nbrs = _gather(ptr, heads, verts)[0]  # its source positions are freed before the rows are spelled out
    lens = np.diff(ptr)
    lens[~keep] = 0
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(lens, out=kept[1:])
    return kept, verts.astype(np.int32).repeat(lens[verts]), nbrs


def grow_induced_bfs(g: Graph, root: int = 0) -> FvsResult:
    """Grow the induced BFS tree from ``root`` until the next level would be
    empty, and return its complement. Every level is the greedy independent
    set of its unique neighbors.

    Lower neighbors come from the edges ``(ptr, tails, heads)``: the upper
    CSR at first, then, once fewer than half of them have an unexposed tail,
    only those, gathered again. An exposed vertex's count is never read.
    """
    if not 0 <= root < g.n:
        raise GraphError(f"root {root} out of range [0, {g.n})")

    exposed = np.zeros(g.n, dtype=bool)
    exposed[root] = True
    levels = [np.asarray([root], dtype=np.int64)]
    stats = LevelStats(l=[1], u=[g.n - 1], r=[1], m=[0], k=[1], w=[0])
    ptr, tails, heads = g.up_indptr, g.edge_list[:, 0], g.up_indices
    in_level = np.zeros(g.n, dtype=bool)

    while True:
        level = levels[-1]
        in_level[level] = True
        counts = np.bincount(_lower_neighbors(ptr, tails, heads, in_level, int(level.max())), minlength=g.n)
        counts += np.bincount(_gather(g.up_indptr, g.up_indices, level)[0], minlength=g.n)
        in_level[level] = False
        newly = np.flatnonzero(~exposed & (counts > 0))
        if newly.size == 0:
            break
        exposed[newly] = True
        unique = newly[counts[newly] == 1]
        in_unique = np.zeros(g.n, dtype=bool)
        in_unique[unique] = True
        # counted block by block on the caller: a helper thread's malloc arena would keep the blocks resident
        m = sum(int(np.count_nonzero(in_unique[nbrs])) for _, nbrs, _ in _gather_blocks(g.up_indptr, g.up_indices, unique)[1])
        nxt = _greedy_independent(g, unique, in_unique)

        stats.k.append(int(newly.size))
        stats.u.append(int(stats.u[-1] - newly.size))
        stats.r.append(int(unique.size))
        stats.m.append(m)
        stats.w.append(int(unique.size - nxt.size))
        stats.l.append(int(nxt.size))
        if nxt.size == 0:
            break
        levels.append(nxt)
        if 2 * int(np.diff(ptr)[~exposed].sum()) < int(ptr[-1]):
            ptr, tails, heads = _rows_of(ptr, heads, ~exposed)

    in_tree = np.zeros(g.n, dtype=bool)
    in_tree[np.concatenate(levels)] = True
    return FvsResult(fvs=np.flatnonzero(~in_tree), stats=stats, levels=levels)


def fvs_directed(d: Digraph, root: int = 0) -> FvsResult:
    """Feedback vertex set of a digraph via its undirected shadow: any vertex
    set breaking all shadow cycles of length three or more breaks the directed
    ones too.

    Two-cycles (antiparallel arc pairs) collapse to a single shadow edge and
    are invisible to the reduction, so ``break_two_cycles`` repairs the set
    afterwards. The random models never produce them; this only matters for
    arbitrary file input.
    """
    result = grow_induced_bfs(shadow_undirected(d), root=root)
    fvs = break_two_cycles(d, result.fvs)
    if fvs.size == result.fvs.size:
        return result
    in_fvs = np.zeros(d.n, dtype=bool)
    in_fvs[fvs] = True
    return FvsResult(fvs=fvs, stats=result.stats, levels=[lv[~in_fvs[lv]] for lv in result.levels])


def break_two_cycles(d: Digraph, fvs: np.ndarray) -> np.ndarray:
    """``fvs`` plus the larger endpoint of every antiparallel arc pair that it
    leaves intact, scanning pairs in ascending order; sorted. Only the arcs
    between vertices outside ``fvs`` can form such a pair. After growth they
    are a forest of the shadow and its two-cycles, so the sort that pairs them
    is short."""
    in_fvs = _removed_mask(d.n, fvs)
    tails, heads = _induced_edges(d.out_indptr, d.out_indices, np.flatnonzero(~in_fvs), ~in_fvs)
    keys = np.sort(_pack(d.n, np.minimum(tails, heads), np.maximum(tails, heads)))
    dup = keys[1:][keys[1:] == keys[:-1]]  # a key occurs at most twice: for (u, v) and for (v, u)
    if dup.size == 0:
        return fvs
    for key in dup.tolist():
        u, v = divmod(key, d.n)
        if not in_fvs[u] and not in_fvs[v]:
            in_fvs[v] = True
    return np.flatnonzero(in_fvs)


def prune_fvs(g: Graph, fvs) -> np.ndarray:
    """Greedily move vertices back from the set while the complement stays acyclic.

    Optional post-pass; it helps on structured inputs but departs from the
    plain growth process, so callers opt in explicitly. ``fvs`` must be a
    valid feedback vertex set. A removed vertex's lower neighbors are read as
    rows of the transpose of the edge list, which this call sorts once.
    """
    removed = set(int(v) for v in fvs)
    gone = _removed_mask(g.n, removed)
    parent = np.arange(g.n, dtype=np.int64)
    # the edges between survivors, in lex order
    eu, ev = _induced_edges(g.up_indptr, g.up_indices, np.flatnonzero(~gone), ~gone)
    if not union_edges(parent, zip(eu.tolist(), ev.tolist())):
        raise ValueError("input is not a feedback vertex set")

    lower_ptr, lower = _transposed_rows(g.n, g.edge_list)
    halves = [(lower, lower_ptr.tolist()), (g.up_indices, g.up_indptr.tolist())]
    for v in sorted(removed):
        roots = set()
        ok = True
        # lower neighbors, then upper ones; a repeated root mostly ends the
        # scan early, so a half is listed only once it is reached
        for indices, bounds in halves:
            for w in indices[bounds[v]:bounds[v + 1]].tolist():
                if w in removed:
                    continue
                rw = find(parent, w)
                if rw in roots:
                    ok = False
                    break
                roots.add(rw)
            if not ok:
                break
        if ok:
            removed.discard(v)
            for rw in roots:  # v was removed until now, so it is its own root
                parent[rw] = v
    return np.asarray(sorted(removed), dtype=np.int64)


@dataclass
class LevelCheck:
    """Bound evaluations at one level; ``None`` marks a check without data."""

    t: int
    u_ok: bool
    l_ok: bool
    r_ok: bool | None

    @property
    def all_ok(self) -> bool:
        return self.u_ok and self.l_ok and (self.r_ok is not False)


@dataclass
class ConcentrationReport:
    """Per-level verdicts of the trajectory envelopes.

    ``applicable`` is False when c - 20 sqrt(c) <= 0 (the lower envelopes are
    vacuous or negative there) or when no level qualifies; such runs are
    reported, not judged.
    """

    applicable: bool
    reason: str
    horizon: int
    levels: list[LevelCheck]

    @property
    def all_pass(self) -> bool:
        return self.applicable and bool(self.levels) and all(c.all_ok for c in self.levels)


def check_concentration_bounds(stats: LevelStats, n: int, p: float) -> ConcentrationReport:
    """Evaluate the six per-level envelopes of a recorded trajectory.

    With c = n*p, s = 20 sqrt(c), eps = sqrt(ln ln n / n) and T the
    concentration horizon, for each level t < T:

    * ``u[t]`` in [(n - sum_{i<=t}(c+s)^i) (1-eps), (n - sum_{i<=t}(c-s)^i / 4) (1+eps)]
    * ``l[t]`` in [(c-s)^t (1 - 16 T p (c+s)^t) (1 - sum_{i<=t}(c+s)^i / n), (c+s)^t]
    * the unique-neighbor count produced while exploring level t (recorded as
      ``r[t+1]``) in [(c-s)^{t+1}/4 (1 - sum_{i<=t+1}(c+s)^i / n) (1-eps),
      (c+s)^{t+1} (1+eps)]
    """
    c = n * p
    s = 20.0 * math.sqrt(c)
    horizon = concentration_depth(n, p)
    if c - s <= 0:
        return ConcentrationReport(False, f"c - 20 sqrt(c) = {c - s:.1f} <= 0", horizon, [])
    if horizon == 0:
        return ConcentrationReport(False, "no level satisfies the horizon inequality", horizon, [])
    if n < 16:
        return ConcentrationReport(False, "n too small for the fluctuation term", horizon, [])

    eps = math.sqrt(math.log(math.log(n)) / n)
    plus_pow = [1.0]
    minus_pow = [1.0]
    checks: list[LevelCheck] = []
    for t in range(min(horizon, len(stats.l))):
        while len(plus_pow) <= t + 1:
            plus_pow.append(plus_pow[-1] * (c + s))
            minus_pow.append(minus_pow[-1] * (c - s))
        sum_plus_t = sum(plus_pow[: t + 1])
        sum_minus_t = sum(minus_pow[: t + 1])
        sum_plus_t1 = sum(plus_pow[: t + 2])

        u_hi = (n - sum_minus_t / 4.0) * (1.0 + eps)
        u_lo = (n - sum_plus_t) * (1.0 - eps)
        l_hi = plus_pow[t]
        l_lo = minus_pow[t] * (1.0 - 16.0 * horizon * p * plus_pow[t]) * (1.0 - sum_plus_t / n)
        r_hi = plus_pow[t + 1] * (1.0 + eps)
        r_lo = (minus_pow[t + 1] / 4.0) * (1.0 - sum_plus_t1 / n) * (1.0 - eps)

        u_ok = u_lo <= stats.u[t] <= u_hi
        l_ok = l_lo <= stats.l[t] <= l_hi
        r_ok: bool | None = None
        if t + 1 < len(stats.r):
            r_ok = r_lo <= stats.r[t + 1] <= r_hi
        checks.append(LevelCheck(t=t, u_ok=bool(u_ok), l_ok=bool(l_ok), r_ok=r_ok))
    return ConcentrationReport(True, "", horizon, checks)


def sample_acyclic_fraction(g: Graph, r: int, samples: int, seed: int) -> float:
    """Fraction of uniformly drawn r-subsets whose induced subgraph is acyclic.

    A sampling stand-in for the exhaustive all-subsets check, which is
    infeasible beyond toy sizes.
    """
    if not 1 <= r <= g.n:
        raise ValueError(f"subset size {r} out of range [1, {g.n}]")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.PCG64(seed))
    acyclic = 0
    member = np.zeros(g.n, dtype=bool)
    for _ in range(samples):
        subset = rng.choice(g.n, size=r, replace=False)
        member[subset] = True
        if is_acyclic_undirected(g, np.flatnonzero(~member)):
            acyclic += 1
        member[subset] = False
    return acyclic / samples
