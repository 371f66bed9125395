"""One benchmark run in a fresh process: import ``ihs.cli``, say ``ready``, then
drive a workload through ``ihs.cli.main`` in a closed loop with one caller.

Prints ``ready`` once the import is done (``--probe`` stops there), then one
JSON line with every instance's exit code, wall time, reference-loop times
and CSV output, the process's peak RSS and, with ``--trace 1``, the
per-layer metrics. Output checks are left to ``run.py``. Not meant to be
started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import pathlib
import platform
import resource
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # ihs is run from the checkout, not installed

import ihs.cli  # noqa: E402

# Reference-loop timings before each instance and after the last: at least
# REF_REPS, and for at least REF_SHARE of the wall time of the instance before
# (or of the same instance in the round before, if that was longer), so that
# a long instance's brackets average over the host's switches of speed.
REF_REPS = 3
REF_SHARE = 0.05


def reference_sample(reference, budget_wall_s: float) -> list[float]:
    """Timings of the workload's ``reference`` loop for at least ``REF_SHARE``
    of ``budget_wall_s``, taken after a full collection so that the garbage
    of the instance before is not collected inside them.

    On a shared host the speed of a process switches between levels up to 2x
    apart, within a second as well as over minutes. ``run.py`` divides each
    instance's wall time by the mean of the timings just before and just
    after it.
    """
    gc.collect()
    times: list[float] = []
    while len(times) < REF_REPS or sum(times) < REF_SHARE * budget_wall_s:
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return times


def run_instance(argv: list[str], tracer, reference, last_wall_s: float = 0.0) -> dict:
    """One ``ihs.cli.main`` call with its exit code, output and wall time, and
    the ``reference`` timings taken just before it, budgeted by
    ``last_wall_s``.

    An instance stands for one ``ihs`` command, which is a fresh process, so
    the garbage of earlier instances is collected first, outside the timing.
    Without that, reference cycles such as the recursive closure in
    ``cycles_of_length`` keep each instance's results alive until a full
    collection, and time and peak RSS depend on how many instances ran before.
    """
    ref_s = reference_sample(reference, last_wall_s)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
        span = tracer.open("cli.main")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = ihs.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed instance, not a failed run
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
        tracer.uninstall()
    return {"argv": argv, "rc": rc, "wall_s": wall, "ref_s": ref_s, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:], "traced": tracer is not None}


def closed_loop(rounds, seconds: float, tracer, reference) -> tuple[list[dict], list[float], list[float]]:
    """Run whole rounds until the next one, if as long as the last, would end past ``seconds``.

    Returns the instance records, the tracing overheads and every round's
    wall time. Every call is preceded by timings of the workload's
    ``reference`` loop.

    A traced run starts with one traced call of the first instance, which
    pays the process's cold first call and lets ``graphs.build_rss_rise_mb``
    see the first constructor call. After that each instance runs twice,
    traced and untraced, and the wall-time differences are the tracing
    overhead. The order alternates, because the second call of a pair reuses
    the memory the first one freed.
    """
    records: list[dict] = []
    overheads: list[float] = []
    round_s: list[float] = []
    walls: dict[str, float] = {}  # last wall time of each argv, for the reference budget
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for argv in next(rounds):
            key = " ".join(argv)
            last = max(records[-1]["wall_s"] if records else 0.0, walls.get(key, 0.0))
            call = functools.partial(run_instance, argv, reference=reference, last_wall_s=last)
            if tracer is None:
                calls = [call(None)]
            else:
                calls = [] if tracer.instance else [call(tracer)]
                tracer.instance += 1
                if tracer.instance % 2:
                    traced = call(tracer)
                    plain = call(None)
                else:
                    plain = call(None)
                    traced = call(tracer)
                overheads.append(traced["wall_s"] - plain["wall_s"])
                calls += [traced, plain]
            walls[key] = calls[-1]["wall_s"]
            records += calls
        now = time.perf_counter()
        round_s.append(now - round_start)
        if now - start + round_s[-1] > seconds:
            return records, overheads, round_s


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--ladder-seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    args = parser.parse_args()
    print("ready", flush=True)
    if args.probe:
        return 0

    import numpy

    import spans  # this script's directory leads sys.path
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    rounds = workload.rounds(args.seed, args.ladder_seed)
    try:
        records, overheads, round_s = closed_loop(rounds, args.seconds, tracer, workload.reference)
        ref_tail_s = reference_sample(workload.reference, records[-1]["wall_s"])
        layers = spans.layer_metrics(tracer, workload.spans, overheads) if tracer else None
    except spans.TracingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "instances": records,
        "round_s": round_s,
        "ref_tail_s": ref_tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
