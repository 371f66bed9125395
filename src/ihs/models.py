"""Seeded random graph generators: G(n, p), its uniformly oriented variant, and
the planted-feedback-set digraph model.

Reproducibility contract
------------------------
All randomness comes from ``numpy.random.Generator(PCG64(seed))``. Unordered
pairs {u, v}, u < v, are indexed lexicographically; the pair at linear index
``t`` is decoded in exact integer arithmetic. One of two samplers draws the
per-pair Bernoulli inclusions of a block, chosen by its pair count:

* ``naive``, up to ``_SKIP_THRESHOLD`` pairs: one uniform per pair, consumed
  in lexicographic order.
* ``skip``, above it: geometric gaps between included pairs. Same
  distribution (a Bernoulli process is a geometric renewal process) but a
  different stream. Below p = 1/3 the gaps are drawn as standard exponentials
  E and turned into ceil(-E / log1p(-p)), numpy's own inversion, so the stream
  is that of ``Generator.geometric``. Each chunk is decoded as it is drawn:
  on a short-lived thread, while the caller draws the next chunk, unless it
  is the last or shorter than two slices. The random stream never leaves the
  caller thread, so the draw order, and with it every instance, is the
  serial one.

After the inclusion draws of a block, orientation coins (one uniform per
included pair, in pair order) are drawn where the model needs them. The
planted model consumes three blocks in order: inclusions for pairs touching
the planted set, orientation coins for those, then inclusions for the
remaining forward pairs.

Identical ``(model, n, p, delta, seed)`` always yield identical instances.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .graphs import _CHUNK as _SLICE, Digraph, Graph, _start

_SKIP_THRESHOLD = 1 << 22  # pair-count above which the skip sampler kicks in
_CHUNK = 1 << 22
_SPARE_SIGMAS = 8  # a skip draw's pair array starts at the mean plus this many standard deviations
# Peak bytes of drawing and building an instance, above the measured peaks:
# per expected edge or arc, per vertex, and a fixed term. Per edge, G(n, p):
# 10-14 B with BFS growth and its validation (n=10^5 and 5*10^5, c=500),
# 17-21.3 B at 2-5 M edges, where the gap chunks weigh most, and 22.5 B to read
# and solve a 2 M-edge file above the 38 MB of an empty run. Per arc, D(n, p):
# 18.5 B to draw at n=10^5 (p=0.0025), 21.6 B for solve-fvs, 30.7 B with --prune
# (p=0.001), 21.7-28 B for solve-fvs at 2-5 M arcs, 21.6 B to read and solve a
# 2.5 M-arc file; the planted model: 22.1 B at n=2*10^4, p=0.05, and 20.4-32 B
# to generate 2-5 M arcs (delta=0.1). The fixed term is what small instances
# carry whatever their arc count: the skip sampler's chunk buffers and a slice
# of pairs as text. `generate` and `solve-fvs` at 0.2-5 M arcs (n=2896, 6000
# and 20000, all three models) peaked at most 36.9 MB above the other two terms
# (0.2 M edges, n=2896), 18 MB once the naive sampler drew by slices.
_BYTES_PER_PAIR = {"gnp": 25, "dnp": 32, "planted": 25}
_BYTES_PER_VERTEX = 64
_FIXED_BYTES = 10 * _SKIP_THRESHOLD


def available_memory() -> int | None:
    """Bytes the system reports as available (``MemAvailable``, else free
    physical pages), or None where neither can be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return None


def memory_shortfall(model: str, pairs: float, n: int, copies: int = 1) -> str | None:
    """None when ``copies`` ``model`` instances, each with ``pairs`` edges or
    arcs on ``n`` vertices, fit in the available memory together, else what
    they need and what is available."""
    need = copies * (_BYTES_PER_PAIR[model] * pairs + _BYTES_PER_VERTEX * n + _FIXED_BYTES)
    have = available_memory()
    if have is not None and need > have:
        return f"needs about {need / 2**20:,.0f} MB; {have / 2**20:,.0f} MB is available"
    return None


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one random instance; ``delta`` and ``k`` apply to the planted model only.

    Construction checks the ranges every model shares; ``validate`` adds one model's rules.
    """

    n: int
    p: float
    delta: float | None = None
    k: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:  # NaN fails every comparison
            raise ValueError("p must lie in [0, 1]")
        if self.delta is not None and not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.k is not None and self.k < 3:
            raise ValueError("k must be at least 3")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    def validate(self, model: str, copies: int = 1) -> None:
        """Check one model's rules, and that ``copies`` instances drawn at once fit in memory."""
        if model not in _BYTES_PER_PAIR:
            raise ValueError(f"unknown model {model!r}")
        if self.n <= 0:
            raise ValueError("n must be positive")
        if model == "dnp" and 2 * self.p > 1.0:
            raise ValueError("oriented model requires 2p <= 1")
        if model == "planted":
            if self.delta is None:
                raise ValueError("planted model requires delta in (0, 1]")
            if math.floor(self.delta * self.n) < 1:
                raise ValueError("planted model requires floor(delta * n) >= 1")
        short = memory_shortfall(model, self.expected_pairs(model), self.n, copies)
        if short:
            many = f"running {copies} {model} instances at once" if copies > 1 else f"a {model} instance"
            raise ValueError(f"{many} with n={self.n}, p={self.p} {short}")

    def expected_pairs(self, model: str) -> float:
        """Expected edge or arc count of a ``model`` instance."""
        total = self.n * (self.n - 1) / 2
        if model == "planted":
            s = math.floor(self.delta * self.n)
            cross = s * (2 * self.n - s - 1) / 2
            return min(1.0, 2 * self.p) * cross + self.p * (total - cross)
        return (2 if model == "dnp" else 1) * self.p * total


@dataclass(frozen=True)
class PlantedInstance:
    """A digraph with ground truth: removing ``planted`` leaves a DAG."""

    digraph: Digraph
    planted: list[int]
    params: ModelParams


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _gaps(rng: np.random.Generator, prob: float, out: np.ndarray, cap: int) -> np.ndarray:
    """``rng.geometric(prob, out.size)`` into the int64 ``out`` a slice at a time, value for value and
    stream for stream: below 1/3 numpy draws ceil(-E / log1p(-prob)) per gap from exponentials E.
    A gap above ``cap`` is cut to it before the cast, so a vanishing ``prob`` cannot wrap int64."""
    for s in range(0, out.size, _SLICE):
        part = out[s:s + _SLICE]
        if prob >= 1 / 3:  # numpy searches
            part[:] = rng.geometric(prob, size=part.size)
        else:  # libm's log1p, as numpy's C code calls it; a subnormal prob gives inf, then the cap
            with np.errstate(over="ignore"):
                gaps = np.ceil(rng.standard_exponential(part.size) / -math.log1p(-prob))
            np.minimum(gaps, cap, out=part, casting="unsafe")  # the cut and the cast in one pass
    return out


def _indices(rng: np.random.Generator, count: int, prob: float, first: int):
    """Ascending chunks of the lex indices ``first + t``, t in [0, count), each included with
    probability ``prob``, and whether the chunk is the last. The naive sampler yields a chunk per
    slice of pairs, with one uniform per pair (none at ``prob`` 1). The skip sampler fills two int64
    chunks in turn, a slice of gaps at a time: decode each chunk before the one after it is drawn.
    The gaps past the block's end, which the stream still holds, go to one slice of scratch, so no
    chunk touches memory for them. Gaps are cut at ``count + 1``, which already ends the block, so
    the sum cannot wrap int64."""
    if prob >= 1.0 or count <= _SKIP_THRESHOLD:
        for s in range(first, first + count, _SLICE):
            k = min(_SLICE, first + count - s)
            yield np.arange(s, s + k) if prob >= 1.0 else np.flatnonzero(rng.random(k) < prob) + s, s + k == first + count
        return
    size = max(1024, min(_CHUNK, int(count * prob * 1.1) + 64))
    t, spare, past = (np.empty(k, dtype=np.int64) for k in (size, size, min(size, _SLICE)))
    pos, end = first - 1, first + count
    while pos < end:
        for s in range(0, size, _SLICE):
            if pos >= end:
                _gaps(rng, prob, past[:min(_SLICE, size - s)], count + 1)
                continue
            part = _gaps(rng, prob, t[s:s + _SLICE], count + 1)
            np.cumsum(part, out=part)
            part += pos
            pos, kept = int(part[-1]), s + part.size
        yield t[:np.searchsorted(t[:kept], end)], pos >= end
        t, spare = spare, t


def _decode(out: np.ndarray, at: int, t: np.ndarray, offsets: np.ndarray, shift: np.ndarray, work: np.ndarray) -> None:
    """The pairs of the ascending lex indices ``t`` into ``out[at:]``, a slice at a time in the two
    int64 rows of the caller's ``work``, so a helper thread allocates almost nothing. The row u of a
    slice steps up by one at each row offset it holds, and ``v = t - shift[u]``."""
    for start in range(0, t.size, _SLICE):
        part, a = t[start:start + _SLICE], at + start
        u, v = work[0, :part.size], work[1, :part.size]
        lo, hi = np.searchsorted(offsets, part[[0, -1]], side="right") - 1
        u.fill(0)
        np.add.at(u, np.searchsorted(part, offsets[lo + 1:hi + 1]), 1)  # empty rows share a step
        np.cumsum(u, out=u)
        u += lo
        np.subtract(part, np.take(shift, u, out=v), out=v)
        out[a:a + part.size, 0], out[a:a + part.size, 1] = u, v


def _draw_pairs(rng: np.random.Generator, n: int, count: int, prob: float, first: int = 0) -> np.ndarray:
    """The pairs (u, v), u < v, of ``_indices`` as an int32 (m, 2) array that owns its data, in an
    array of the mean plus ``_SPARE_SIGMAS`` sigmas (grown if short, then shrunk in place). A chunk
    of two or more slices that is not the last is decoded on a short-lived thread while the caller
    draws the next one; the random stream never leaves the caller. That decode ends before ``out``
    is resized."""
    if count == 0 or prob <= 0.0:
        return np.empty((0, 2), dtype=np.int32)
    mean = count * prob
    out = np.empty((max(0, int(mean + _SPARE_SIGMAS * math.sqrt(mean * (1 - prob)))), 2), dtype=np.int32)
    shift = np.arange(n, dtype=np.int64)
    offsets = shift * (2 * n - shift - 1) // 2  # index of the pair (u, u + 1); n(n-1)/2 past the end
    shift += 1
    np.subtract(offsets, shift, out=shift)  # the pair (u, v) has index shift[u] + v
    work = np.empty((2, _SLICE), dtype=np.int64)  # the decode's scratch, from the caller's heap
    m, pending = 0, lambda reraise=True: None  # pending: the join of the decode in flight
    try:
        for t, last in _indices(rng, count, prob, first):
            pending()
            if m + t.size > out.shape[0]:
                out.resize((max(2 * out.shape[0], m + t.size), 2), refcheck=False)
            if last or t.size < 2 * _SLICE:
                _decode(out, m, t, offsets, shift, work)
            else:
                pending = _start(_decode, out, m, t, offsets, shift, work)
            m += t.size
    finally:
        pending(reraise=False)  # waits only if the draw failed: the loop joins every decode it starts
    out.resize((m, 2), refcheck=False)  # no view of out outlives a statement; a debugger may hold out itself
    return out


def _orient(rng: np.random.Generator, pairs: np.ndarray) -> np.ndarray:
    """Flip each pair unless its fair coin (one uniform per pair, in order) keeps it."""
    flip = rng.random(pairs.shape[0]) >= 0.5
    pairs[flip] = pairs[flip, ::-1]
    return pairs


def gen_gnp(params: ModelParams) -> Graph:
    """G(n, p): each unordered pair included independently with probability p."""
    params.validate("gnp")
    n = params.n
    rng = _rng(params.seed)
    total = n * (n - 1) // 2
    edges = _draw_pairs(rng, n, total, params.p)
    edges.setflags(write=False)  # canonical and read-only: Graph keeps it as is
    return Graph(n, edges)


def gen_dnp(params: ModelParams) -> Digraph:
    """Uniformly oriented random digraph: pairs included w.p. 2p, then a fair coin
    picks the arc direction. Never produces antiparallel arcs."""
    params.validate("dnp")
    n = params.n
    rng = _rng(params.seed)
    total = n * (n - 1) // 2
    pairs = _draw_pairs(rng, n, total, 2 * params.p)
    return Digraph(n, _orient(rng, pairs))


def gen_planted(params: ModelParams) -> PlantedInstance:
    """Planted model: P = {0..floor(delta*n)-1}; pairs touching P appear with
    probability min(1, 2p) and get a uniform orientation; the complement keeps
    only identity-order forward arcs, each with probability p, so V minus P is
    a DAG by construction.

    2p is clamped at 1 so that edge probabilities above 1/2 (used by the
    recovery experiments) remain meaningful for the cross pairs.
    """
    params.validate("planted")
    n = params.n
    s = math.floor(params.delta * n)
    rng = _rng(params.seed)
    # pairs (u, v) with u < v and u < s are exactly the first `cross` lex indices
    cross = s * (2 * n - s - 1) // 2
    total = n * (n - 1) // 2

    # in stream order: cross inclusions, their coins, then forward inclusions
    arcs = np.concatenate([
        _orient(rng, _draw_pairs(rng, n, cross, min(1.0, 2 * params.p))),
        _draw_pairs(rng, n, total - cross, params.p, first=cross),
    ])
    return PlantedInstance(
        digraph=Digraph(n, arcs),
        planted=list(range(s)),
        params=params,
    )
