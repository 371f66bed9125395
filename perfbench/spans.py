"""Per-layer spans recorded from outside the library.

The tracer replaces the module attributes through which ``ihs.cli`` reaches
each layer (``ihs.cli.gen_gnp``, ``ihs.models.Graph``,
``ihs.planted.cycles_of_length``, ``ihs.generic.exact_min_hitting_set``, the
``check`` of each cycle oracle, ...) with timing wrappers. Spans stay in
memory with their instance id and parent span; a layer's self time is its
spans' duration minus the part their child spans cover. Nothing under ``src/``
is touched, and ``uninstall`` puts every attribute back.
"""

from __future__ import annotations

import dataclasses
import importlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


class TracingError(RuntimeError):
    """A wrapped attribute is missing, or an expected span recorded no call."""


# (module, attribute, span, count): count is None or (name, fn(args, result))
TARGETS = [
    ("ihs.cli", "gen_gnp", "models.gen", ("pairs_drawn", lambda a, r: r.num_edges)),
    ("ihs.cli", "gen_planted", "models.gen", ("pairs_drawn", lambda a, r: r.digraph.num_arcs)),
    ("ihs.models", "Graph", "graphs.build", ("edges_built", lambda a, r: r.num_edges)),
    ("ihs.models", "Digraph", "graphs.build", ("edges_built", lambda a, r: r.num_arcs)),
    ("ihs.cli", "is_acyclic_undirected", "graphs.validate", None),
    ("ihs.cli", "is_acyclic_directed", "graphs.validate", None),
    ("ihs.cli", "grow_induced_bfs", "bfs_growth.grow", ("levels", lambda a, r: r.stats.depth())),
    ("ihs.cli", "check_concentration_bounds", "bfs_growth.concentration", None),
    ("ihs.cli", "recover_planted_fvs", "planted.recover", None),
    ("ihs.planted", "collect_short_cycles", "planted.enumerate", None),
    ("ihs.planted", "cycles_of_length", "oracles.cycles_of_length", ("cycles_enumerated", lambda a, r: len(r))),
    ("ihs.planted", "greedy_hit_cycles", "planted.greedy", ("greedy_size", lambda a, r: len(r))),
    ("ihs.cli", "solve_implicit_hitting_set", "generic.solve", None),
    ("ihs.generic", "exact_min_hitting_set", "hitting.exact", ("family_size", lambda a, r: len(a[0]))),
]

# factories whose returned OracleContract gets its ``check`` wrapped
_MISSES = ("misses", lambda a, r: int(not r.feasible))
ORACLES = [
    ("ihs.cli", "bfs_cycle_oracle", "oracles.bfs_cycle.check", _MISSES),
    ("ihs.cli", "shortest_cycle_oracle", "oracles.shortest_cycle.check", _MISSES),
]


@dataclass
class Span:
    name: str
    instance: int
    parent: int | None
    start: float
    end: float = 0.0
    error: str = ""
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for calls made while installed; one tracer per process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance = 0
        self.build_rss_rise_mb: float | None = None
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.instance, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, span_id: int) -> Span:
        span = self.spans[span_id]
        span.end = time.perf_counter()
        self._open.pop()
        return span

    def wrap(self, fn: Callable, name: str, count: tuple | None) -> Callable:
        first_build = name == "graphs.build"

        def traced(*args, **kwargs):
            rss_before = _maxrss_mb() if first_build and self.build_rss_rise_mb is None else None
            span_id = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span_id).error = type(exc).__name__
                raise
            span = self.close(span_id)
            if rss_before is not None:
                self.build_rss_rise_mb = _maxrss_mb() - rss_before
            if count is not None:
                span.counts = {count[0]: count[1](args, result)}
            return result

        return traced

    def _wrap_oracle(self, factory: Callable, name: str, count: tuple) -> Callable:
        def traced_factory(*args, **kwargs):
            contract = factory(*args, **kwargs)
            return dataclasses.replace(contract, check=self.wrap(contract.check, name, count))

        return traced_factory

    def install(self) -> None:
        """Wrap every target; fail naming the first attribute that is missing."""
        plan = [(t, self.wrap) for t in TARGETS] + [(t, self._wrap_oracle) for t in ORACLES]
        for (module_name, attr, name, count), wrap in plan:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise TracingError(f"cannot trace: {module_name}.{attr} does not exist")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# (metric, unit, better); the order is the order of BENCHMARK.json's per_layer
LAYER_METRICS = [
    ("models.gen_s", "s", "lower"),
    ("models.pairs_drawn", "count", "lower"),
    ("graphs.build_s", "s", "lower"),
    ("graphs.build_rss_rise_mb", "MB", "lower"),
    ("graphs.edges_built", "count", "lower"),
    ("graphs.validate_s", "s", "lower"),
    ("bfs_growth.grow_s", "s", "lower"),
    ("bfs_growth.levels", "count", "lower"),
    ("bfs_growth.concentration_s", "s", "lower"),
    ("oracles.cycles_of_length_s", "s", "lower"),
    ("oracles.cycles_enumerated", "count", "lower"),
    ("oracles.bfs_cycle.check_s", "s", "lower"),
    ("oracles.shortest_cycle.check_s", "s", "lower"),
    ("oracles.calls", "count", "lower"),
    ("oracles.miss_frac", "ratio", "higher"),
    ("hitting.exact_s", "s", "lower"),
    ("hitting.exact_calls", "count", "lower"),
    ("hitting.exact_s_max", "s", "lower"),
    ("hitting.family_size", "count", "lower"),
    ("generic.swap_s", "s", "lower"),
    ("generic.queries_per_subset", "ratio", "lower"),
    ("generic.abort_frac", "ratio", "lower"),
    ("planted.enumerate_s", "s", "lower"),
    ("planted.greedy_s", "s", "lower"),
    ("planted.filter_s", "s", "lower"),
    ("planted.greedy_size", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# span -> self-time metric
_SELF_TIME = {
    "models.gen": "models.gen_s",
    "graphs.build": "graphs.build_s",
    "graphs.validate": "graphs.validate_s",
    "bfs_growth.grow": "bfs_growth.grow_s",
    "bfs_growth.concentration": "bfs_growth.concentration_s",
    "oracles.cycles_of_length": "oracles.cycles_of_length_s",
    "oracles.bfs_cycle.check": "oracles.bfs_cycle.check_s",
    "oracles.shortest_cycle.check": "oracles.shortest_cycle.check_s",
    "hitting.exact": "hitting.exact_s",
    "generic.solve": "generic.swap_s",
    "planted.enumerate": "planted.enumerate_s",
    "planted.greedy": "planted.greedy_s",
    "planted.recover": "planted.filter_s",
    "cli.main": "cli.self_s",
}

# count -> metric; each is summed over the run and divided by the instances
_PER_INSTANCE_COUNT = {
    "pairs_drawn": "models.pairs_drawn",
    "edges_built": "graphs.edges_built",
    "levels": "bfs_growth.levels",
    "cycles_enumerated": "oracles.cycles_enumerated",
    "greedy_size": "planted.greedy_size",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, expected: tuple[str, ...], overheads: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run, each a mean per traced instance unless
    it is a ratio, a maximum, or the tracing overhead.

    Raises TracingError naming the first expected span that recorded no call.
    """
    spans = tracer.spans
    seen = {s.name for s in spans}
    for name in expected:
        if name not in seen:
            raise TracingError(f"span {name} recorded zero calls on this workload")
    instances = len({s.instance for s in spans if s.name == "cli.main"})
    own = self_times(spans)

    out = {name: 0.0 for name, _, _ in LAYER_METRICS}
    for span, t in zip(spans, own):
        if span.name in _SELF_TIME:
            out[_SELF_TIME[span.name]] += t
        for key, value in span.counts.items():
            if key in _PER_INSTANCE_COUNT:
                out[_PER_INSTANCE_COUNT[key]] += value
    for name in list(_SELF_TIME.values()) + list(_PER_INSTANCE_COUNT.values()):
        out[name] = _ratio(out[name], instances)

    checks = [s for s in spans if s.name.startswith("oracles.") and s.name.endswith(".check")]
    misses = sum(s.counts.get("misses", 0) for s in checks)
    out["oracles.calls"] = _ratio(len(checks), instances)
    out["oracles.miss_frac"] = _ratio(misses, len(checks))
    out["generic.queries_per_subset"] = _ratio(len(checks), misses)

    exact = [(s, t) for s, t in zip(spans, own) if s.name == "hitting.exact"]
    out["hitting.exact_calls"] = _ratio(len(exact), instances)
    out["hitting.exact_s_max"] = max((t for _, t in exact), default=0.0)
    last_family = {s.instance: s.counts["family_size"] for s, _ in exact}
    out["hitting.family_size"] = _ratio(sum(last_family.values()), len(last_family))

    solves = [s for s in spans if s.name == "generic.solve"]
    out["generic.abort_frac"] = _ratio(sum(s.error == "SolverAbort" for s in solves), len(solves))
    out["graphs.build_rss_rise_mb"] = tracer.build_rss_rise_mb or 0.0
    out["trace.overhead_s"] = statistics.fmean(overheads) if overheads else 0.0
    return out
