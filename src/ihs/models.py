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
  different stream.

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

from .graphs import _CHUNK as _SLICE, Digraph, Graph

_SKIP_THRESHOLD = 1 << 22  # pair-count above which the skip sampler kicks in
_CHUNK = 1 << 22
# Peak bytes of drawing and building an instance, per expected edge or arc and
# per vertex, above the measured peaks: 17-20 B per edge for G(n, p) with BFS
# growth and its validation (n=10^5 and 5*10^5, c=500), which never sort the
# transpose, and 26 B per edge to read and solve a 2 M-edge G(n, p) file above
# the 38 MB of an empty run; 30.5 B per arc for D(n, p) (n=10^5, p=0.0025) and
# 33.9 B for the planted model (n=2*10^4, p=0.05), whose arcs are sorted while
# the caller still holds them.
_BYTES_PER_PAIR = {"gnp": 28, "dnp": 36, "planted": 36}
_BYTES_PER_VERTEX = 64


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


def memory_shortfall(model: str, pairs: float, n: int) -> str | None:
    """None when a ``model`` instance with ``pairs`` edges or arcs on ``n``
    vertices fits in the available memory, else what it needs and what is
    available."""
    need = _BYTES_PER_PAIR[model] * pairs + _BYTES_PER_VERTEX * n
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

    def validate(self, model: str) -> None:
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
        short = memory_shortfall(model, self.expected_pairs(model), self.n)
        if short:
            raise ValueError(f"a {model} instance with n={self.n}, p={self.p} {short}")

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


def _bernoulli_indices(rng: np.random.Generator, count: int, prob: float) -> np.ndarray:
    """Indices t in [0, count) with independent inclusion probability ``prob``."""
    if count == 0 or prob <= 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(count, dtype=np.int64)
    if count <= _SKIP_THRESHOLD:
        return np.flatnonzero(rng.random(count) < prob)
    picked = []
    pos = -1
    gap_chunk = max(1024, min(_CHUNK, int(count * prob * 1.1) + 64))
    while True:
        gaps = rng.geometric(prob, size=gap_chunk)
        cum = np.cumsum(gaps) + pos
        if cum[-1] >= count:
            picked.append(cum[cum < count])
            break
        picked.append(cum)
        pos = int(cum[-1])
    return np.concatenate(picked)


def _pairs(n: int, t: np.ndarray) -> np.ndarray:
    """Pairs (u, v), u < v, of the lexicographic indices ``t`` as an int32
    (m, 2) array. ``t`` must be ascending, as every sampled block is: one
    search of each slice for the row offsets u(2n-u-1)/2 splits it into runs
    of one row u, so the decode is exact integer arithmetic."""
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (2 * n - rows - 1) // 2  # index of the pair (u, u + 1); n(n-1)/2 past the end
    out = np.empty((t.size, 2), dtype=np.int32)
    for start in range(0, t.size, _SLICE):
        part = t[start:start + _SLICE]
        first, last = np.searchsorted(offsets, part[[0, -1]], side="right") - 1
        runs = np.diff(np.searchsorted(part, offsets[first:last + 2]))
        u = np.repeat(rows[first:last + 1], runs)
        out[start:start + part.size, 0] = u
        out[start:start + part.size, 1] = part - offsets[u] + u + 1
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
    edges = _pairs(n, _bernoulli_indices(rng, total, params.p))
    edges.setflags(write=False)  # canonical and read-only: Graph keeps it as is
    return Graph(n, edges)


def gen_dnp(params: ModelParams) -> Digraph:
    """Uniformly oriented random digraph: pairs included w.p. 2p, then a fair coin
    picks the arc direction. Never produces antiparallel arcs."""
    params.validate("dnp")
    n = params.n
    rng = _rng(params.seed)
    total = n * (n - 1) // 2
    pairs = _pairs(n, _bernoulli_indices(rng, total, 2 * params.p))
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
        _orient(rng, _pairs(n, _bernoulli_indices(rng, cross, min(1.0, 2 * params.p)))),
        _pairs(n, _bernoulli_indices(rng, total - cross, params.p) + cross),
    ])
    return PlantedInstance(
        digraph=Digraph(n, arcs),
        planted=list(range(s)),
        params=params,
    )
