"""Command-line harness: instance generation, solver drivers, and seeded
experiment sweeps with CSV reporting.

Every run emits rows with a fixed column order (header always included);
inapplicable cells are empty strings. All randomness is controlled by explicit
``--seed`` / ``--seeds`` flags; there is no wall-clock seeding. Exit codes:
0 success, 2 input error, 3 solver abort (iteration cap, cycle budget or
oracle protocol violation).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable

from .bfs_growth import (
    break_two_cycles,
    check_concentration_bounds,
    concentration_depth,
    grow_induced_bfs,
    prune_fvs,
    sample_acyclic_fraction,
)
from .generic import SolverAbort, solve_implicit_hitting_set
from .graphs import Digraph, GraphError, is_acyclic_directed, is_acyclic_undirected, shadow_undirected
from .instance_io import Instance, InstanceFormatError, read_instance, write_instance
from .models import ModelParams, gen_dnp, gen_gnp, gen_planted
from .oracles import OracleProtocolError, bfs_cycle_oracle, shortest_cycle_oracle
from .planted import CycleBudgetExceeded, recover_planted_fvs

COLUMNS = [
    "run_id", "seed", "algorithm", "n", "p", "delta", "k",
    "fvs_size", "bound_value", "acyclic_ok", "exact_match",
    "oracle_calls", "cycles_found", "runtime_ms",
]


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def make_row(**kwargs) -> dict:
    row = {c: "" for c in COLUMNS}
    for key, value in kwargs.items():
        if key not in row:
            raise KeyError(f"unknown column {key!r}")
        row[key] = value
    return row


def emit_rows(rows: list[dict], out_path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in COLUMNS])
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def fvs_upper_bound(n: int, p: float | None) -> float | None:
    """Target size n - 0.9 (1/p) ln(np); the 0.9 absorbs lower-order terms."""
    if p is None or p <= 0 or n * p <= 1:
        return None
    return n - 0.9 * (1.0 / p) * math.log(n * p)


def _parse_seeds(spec: str) -> list[int]:
    if ".." in spec:
        a, b = spec.split("..", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError(f"empty seed range {spec!r}")
        return list(range(lo, hi + 1))
    return [int(spec)]


def _generate(model: str, params: ModelParams):
    if model == "gnp":
        return gen_gnp(params), None
    if model == "dnp":
        return gen_dnp(params), None
    if model == "planted":
        inst = gen_planted(params)
        return inst.digraph, inst.planted
    raise ValueError(f"unknown model {model!r}")


def _ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


class RunAborted(Exception):
    """A solver aborted (exit 3); carries the row naming the aborted instance."""

    def __init__(self, message: str, row: dict):
        super().__init__(message, row)  # both in args, so it pickles across --jobs
        self.row = row

    def __str__(self) -> str:
        return self.args[0]


def _solve(ids: dict, fn, *args, **kwargs):
    """Call a solver; its documented aborts become RunAborted with a row of ``ids``."""
    try:
        return fn(*args, **kwargs)
    except (SolverAbort, CycleBudgetExceeded, OracleProtocolError) as exc:
        raise RunAborted(str(exc), make_row(run_id=0, **ids)) from None


@dataclass(frozen=True)
class Source:
    """Where a run's instance comes from: an instance file, or ``model`` drawn
    with ``params`` at the run's seed."""

    path: str | None = None
    model: str | None = None
    params: ModelParams | None = None

    def load(self, seed: int | None):
        """(graph, planted, params); params is None for a file without a
        params trailer."""
        if self.path is not None:
            inst = read_instance(self.path)
            return inst.graph, inst.planted, inst.params
        params = replace(self.params, seed=seed)
        return (*_generate(self.model, params), params)


def _model_params(args, model: str, seed: int = 0) -> ModelParams:
    """The params of ``model`` from ``args``. Each worker that ``--jobs``
    starts draws its own instance, so all of them must fit in memory at once."""
    if args.delta is not None and model != "planted":
        raise ValueError("--delta applies to the planted model only")
    k = getattr(args, "k", None) if model == "planted" else None
    params = ModelParams(n=args.n, p=args.p, delta=args.delta, k=k, seed=seed)
    params.validate(model, copies=_workers(args.jobs, _seeds(args)) if hasattr(args, "jobs") else 1)
    return params


def _seeds(args) -> list[int]:
    return _parse_seeds(args.seeds) if args.seeds is not None else [args.seed]


def _param(params: ModelParams | None, name: str):
    return getattr(params, name) if params is not None else None


# ----------------------------------------------------------------------------
# one runner per workload: a seed in, a row out (module level so --jobs can
# pickle them); single instances, --seeds sweeps and recipes all use these

def _run_fvs(seed, *, source: Source, root: int, prune: bool) -> dict:
    t0 = time.perf_counter()
    graph, _, params = source.load(seed)
    directed = isinstance(graph, Digraph)
    shadow = shadow_undirected(graph) if directed else graph  # one shadow for growth and --prune
    # on a digraph each step on the shadow is followed by the two-cycle repair
    repair = partial(break_two_cycles, graph) if directed else lambda fvs: fvs
    fvs = repair(grow_induced_bfs(shadow, root=root).fvs)
    algorithm = "grow-induced-bfs-shadow" if directed else "grow-induced-bfs"
    if prune:
        fvs = repair(prune_fvs(shadow, fvs))
        algorithm += "+prune"
    del shadow  # the check reads the graph only
    ok = is_acyclic_directed(graph, fvs) if directed else is_acyclic_undirected(graph, fvs)
    p = _param(params, "p")
    return make_row(
        seed=_param(params, "seed"), algorithm=algorithm, n=graph.n, p=p,
        delta=_param(params, "delta"), k=_param(params, "k"),
        fvs_size=int(fvs.size),
        bound_value=fvs_upper_bound(graph.n, p) or "",
        acyclic_ok=bool(ok), runtime_ms=_ms(t0),
    )


def _run_generic(seed, *, source: Source, oracle: str, root: int) -> dict:
    t0 = time.perf_counter()
    graph, _, params = source.load(seed)
    directed = isinstance(graph, Digraph)
    if oracle == "bfs-cycle":
        if directed:
            raise ValueError("the bfs-cycle oracle works on undirected instances")
        contract = bfs_cycle_oracle(graph, root=root)
    else:
        contract = shortest_cycle_oracle(graph)
    ids = dict(seed=_param(params, "seed"), algorithm=f"generic-{oracle}", n=graph.n,
               p=_param(params, "p"))
    cert = _solve(ids, solve_implicit_hitting_set, contract)
    solution = cert.solution.members
    acyclic = is_acyclic_directed if directed else is_acyclic_undirected
    return make_row(
        **ids, fvs_size=len(solution), acyclic_ok=bool(acyclic(graph, solution)),
        oracle_calls=cert.oracle_calls, runtime_ms=_ms(t0),
    )


def _run_planted(seed, *, source: Source, k: int | None) -> dict:
    t0 = time.perf_counter()
    graph, planted, params = source.load(seed)
    if not isinstance(graph, Digraph):
        raise ValueError("planted recovery needs a directed instance")
    k = k if k is not None else _param(params, "k")
    if k is None:
        raise ValueError("--k is required (or a params trailer carrying k)")
    delta = _param(params, "delta")
    ids = dict(seed=_param(params, "seed"), algorithm="recover-planted", n=graph.n,
               p=_param(params, "p"), delta=delta, k=k)
    report = _solve(ids, recover_planted_fvs, graph, k, planted=planted)
    return make_row(
        **ids,
        fvs_size=len(report.recovered),
        bound_value=k * math.floor(delta * graph.n) if delta is not None else "",
        acyclic_ok=bool(is_acyclic_directed(graph, report.recovered)),
        exact_match=report.exact_match,
        cycles_found=report.cycles_found,
        runtime_ms=_ms(t0),
    )


def _run_lemma(seed: int, *, source: Source, root: int) -> dict:
    t0 = time.perf_counter()
    g, _, params = source.load(seed)
    result = grow_induced_bfs(g, root=root)
    report = check_concentration_bounds(result.stats, g.n, params.p)
    return make_row(
        seed=seed, algorithm="concentration-check", n=g.n, p=params.p,
        fvs_size=int(result.fvs.size), bound_value=report.horizon,
        acyclic_ok=bool(is_acyclic_undirected(g, result.fvs)),
        exact_match=bool(report.all_pass) if report.applicable else "", runtime_ms=_ms(t0),
    )


def _run_theorem2(seed: int, *, source: Source, r: int, samples: int) -> dict:
    t0 = time.perf_counter()
    g, _, params = source.load(seed)
    fraction = sample_acyclic_fraction(g, r, samples, seed)
    # bound_value carries the measured acyclic fraction: it is the bounded quantity
    return make_row(
        seed=seed, algorithm="induced-acyclic-sampler", n=g.n, p=params.p,
        bound_value=fraction, oracle_calls=samples, runtime_ms=_ms(t0),
    )


def _workers(jobs: int, seeds: list) -> int:
    """Processes that ``--jobs`` starts for ``seeds``: no more than one per seed."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, not {jobs}")
    return min(jobs, len(seeds))


def _runs(run, seeds: list, jobs: int) -> list[dict]:
    """One row of ``run`` per seed, numbered by run_id in seed order."""
    workers = _workers(jobs, seeds)
    if workers == 1:
        rows = [run(seed) for seed in seeds]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run, seeds))  # map preserves seed order
    for i, row in enumerate(rows):
        row["run_id"] = i
    return rows


# ----------------------------------------------------------------------------
# commands

def cmd_generate(args) -> int:
    params = _model_params(args, args.model, seed=args.seed)
    graph, planted = _generate(args.model, params)
    write_instance(args.out, Instance(graph=graph, planted=planted, params=params))
    return 0


def _run_command(args, runner, models: tuple[str, ...], **options) -> int:
    """Rows of ``runner`` on the instance file once, or on ``--model`` at each seed."""
    if args.instance is not None:
        source, seeds = Source(path=args.instance), [None]
    elif args.model not in models:
        raise ValueError(f"model {args.model!r} not supported by this command")
    else:
        source, seeds = Source(model=args.model, params=_model_params(args, args.model)), _seeds(args)
    emit_rows(_runs(partial(runner, source=source, **options), seeds, args.jobs), args.out)
    return 0


def cmd_solve_fvs(args) -> int:
    return _run_command(args, _run_fvs, ("gnp", "dnp"), root=args.root, prune=args.prune)


def cmd_solve_generic(args) -> int:
    return _run_command(args, _run_generic, ("gnp", "dnp"), oracle=args.oracle, root=args.root or 0)


def cmd_solve_planted(args) -> int:
    return _run_command(args, _run_planted, ("planted", "dnp"), k=args.k)


# ----------------------------------------------------------------------------
# experiment recipes: per-seed rows of a runner, then cells of an aggregate row

def _median_size(rows: list[dict]) -> float:
    return float(statistics.median(row["fvs_size"] for row in rows))


def _theorem1_cells(args, rows: list[dict]) -> dict:
    bound = fvs_upper_bound(args.n, args.p)
    if bound is None:  # n p <= 1: no bound, so its check does not apply
        return dict(fvs_size=_median_size(rows), bound_value="", exact_match="")
    passes = sum(1 for row in rows if row["fvs_size"] <= bound)
    return dict(fvs_size=_median_size(rows), bound_value=bound, exact_match=passes / len(rows))


def _lemma1_cells(args, rows: list[dict]) -> dict:
    c = args.n * args.p
    if c - 20 * math.sqrt(c) <= 0:
        print(f"warning: c - 20 sqrt(c) = {c - 20 * math.sqrt(c):.1f} <= 0; concentration "
              "checks are not applicable at these parameters", file=sys.stderr)
    applicable = [row for row in rows if row["exact_match"] != ""]
    passes = sum(1 for row in applicable if row["exact_match"])
    return dict(fvs_size=_median_size(rows), bound_value=concentration_depth(args.n, args.p),
                exact_match=passes / len(applicable) if applicable else "")


def _theorem5_cells(args, rows: list[dict]) -> dict:
    return dict(delta=args.delta, k=args.k, fvs_size=_median_size(rows),
                bound_value=args.k * math.floor(args.delta * args.n),
                exact_match=sum(1 for row in rows if row["exact_match"]) / len(rows))


@dataclass(frozen=True)
class Recipe:
    """A paper experiment: its model, the runner of one seed, the options of
    ``RECIPE_OPTIONS`` it reads (all required but root) and its aggregate cells."""

    model: str
    runner: Callable[..., dict]
    reads: tuple[str, ...]
    cells: Callable[[argparse.Namespace, list[dict]], dict]


RECIPES = {
    "theorem1": Recipe("gnp", partial(_run_fvs, prune=False), ("seeds", "root"), _theorem1_cells),
    "lemma1": Recipe("gnp", _run_lemma, ("seeds", "root"), _lemma1_cells),
    "theorem2": Recipe("gnp", _run_theorem2, ("r", "samples", "seed"),
                       lambda args, rows: dict(bound_value=rows[0]["bound_value"])),
    "theorem5": Recipe("planted", _run_planted, ("delta", "k", "seeds"), _theorem5_cells),
}
RECIPE_OPTIONS = ("delta", "k", "r", "samples", "seed", "seeds", "root")
# an instance file carries its own graph and params
FILE_REFUSES = ("model", "n", "p", "delta", "seed", "seeds")


def cmd_experiment(args) -> int:
    recipe = RECIPES[args.recipe]
    source = Source(model=recipe.model, params=_model_params(args, recipe.model))
    options = {name: getattr(args, name) for name in recipe.reads if name in ("k", "r", "samples")}
    if "root" in recipe.reads:  # growth starts at vertex 0 unless --root says otherwise
        options["root"] = args.root or 0
    rows = _runs(partial(recipe.runner, source=source, **options), _seeds(args), args.jobs)
    rows.append(make_row(run_id="aggregate", algorithm=f"{args.recipe}-aggregate",
                         n=args.n, p=args.p, **recipe.cells(args, rows)))
    emit_rows(rows, args.out)
    return 0


def _flags(names: list[str]) -> str:
    flags = [f"--{name}" for name in names]
    return " and ".join(filter(None, [", ".join(flags[:-1]), flags[-1]]))


def check_options(args) -> None:
    """Refuse an option the command does not read, or a recipe without one it
    needs. Nothing is drawn or read here; a refusal is an input error."""
    def given(names) -> list[str]:
        return [name for name in names if getattr(args, name, None) is not None]

    if args.command == "experiment":
        recipe = RECIPES[args.recipe]
        unread = given(name for name in RECIPE_OPTIONS if name not in recipe.reads)
        if unread:
            raise ValueError(f"recipe {args.recipe} does not read {_flags(unread)}")
        missing = [name for name in recipe.reads if name != "root" and getattr(args, name) is None]
        if missing:
            note = "" if given(("seed", "seeds")) else " (no wall-clock seeding)"
            raise ValueError(f"recipe {args.recipe} requires {_flags(missing)}{note}")
    elif hasattr(args, "instance"):  # the solve commands
        if args.instance is not None and given(FILE_REFUSES):
            raise ValueError(f"an instance file takes no {_flags(given(FILE_REFUSES))}")
        if args.instance is None and args.model is None:
            raise ValueError("provide an instance file or --model with parameters")
        if args.instance is None and not given(("seed", "seeds")):
            raise ValueError("--seed is required with --model (no wall-clock seeding)")
        if args.command == "solve-generic" and args.root is not None and args.oracle != "bfs-cycle":
            raise ValueError("--root applies to the bfs-cycle oracle only")
    elif args.command == "generate" and args.k is not None and args.model != "planted":
        raise ValueError("--k applies to the planted model only")
    if len(given(("seed", "seeds"))) == 2:
        raise ValueError("give --seed or --seeds, not both")


# ----------------------------------------------------------------------------
# argument parsing

def _add_common_model(sub, planted: bool = False) -> None:
    sub.add_argument("--model", choices=["gnp", "dnp", "planted"] if planted else ["gnp", "dnp"])
    sub.add_argument("--n", type=int)
    sub.add_argument("--p", type=float)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--seeds", type=str, help="inclusive range a..b, one row per seed")
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--out", type=str, default=None)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ihs`` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="ihs", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a random instance file")
    gen.add_argument("--model", choices=["gnp", "dnp", "planted"], required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, required=True)
    gen.add_argument("--delta", type=float)
    gen.add_argument("--k", type=int)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", type=str, required=True)
    gen.set_defaults(fn=cmd_generate)

    fvs = subs.add_parser("solve-fvs", help="feedback vertex set via induced BFS growth")
    fvs.add_argument("instance", nargs="?")
    _add_common_model(fvs)
    fvs.add_argument("--root", type=int, default=0)
    fvs.add_argument("--prune", action="store_true")
    fvs.set_defaults(fn=cmd_solve_fvs)

    gnr = subs.add_parser("solve-generic", help="oracle-driven exact hitting set solver")
    gnr.add_argument("instance", nargs="?")
    _add_common_model(gnr)
    gnr.add_argument("--oracle", choices=["bfs-cycle", "shortest-cycle"], required=True)
    gnr.add_argument("--root", type=int)
    gnr.set_defaults(fn=cmd_solve_generic)

    pla = subs.add_parser("solve-planted", help="recover a planted feedback vertex set")
    pla.add_argument("instance", nargs="?")
    _add_common_model(pla, planted=True)
    pla.add_argument("--k", type=int)
    pla.set_defaults(fn=cmd_solve_planted)

    exp = subs.add_parser("experiment", help="named experiment recipes with an aggregate row")
    exp.add_argument("--recipe", choices=list(RECIPES), required=True)
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--p", type=float, required=True)
    exp.add_argument("--delta", type=float)
    for name in ("k", "r", "samples", "seed", "root"):
        exp.add_argument(f"--{name}", type=int)
    exp.add_argument("--seeds", type=str)
    exp.add_argument("--jobs", type=int, default=1)
    exp.add_argument("--out", type=str, default=None)
    exp.set_defaults(fn=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_options(args)
        return args.fn(args)
    except RunAborted as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        emit_rows([exc.row], args.out)
        return 3
    except (InstanceFormatError, GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
