"""Benchmark of the ihs CLI: one workload per run, one fresh process per run.

    python3 perfbench/run.py --workload gnp-lemma1 --seed 0 --seconds 40 --trace 0

Runs from the root of a checkout. It starts ``worker.py`` in a fresh Python
process with the checkout's ``src`` on ``sys.path``, which drives the workload
through ``ihs.cli.main`` one instance at a time, then checks every
instance's output against ``workloads.check``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. Any error (the package does not import, a traced
attribute is missing, the worker times out) exits non-zero without that line.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import select
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_LADDER_SEED, DEFAULT_SEED, WORKLOADS, check, load_golden  # noqa: E402

# (metric, unit, better); every workload reports all of them with --trace 0.
# Instance times are in refs: one ref is the mean time of the workload's
# reference loop (workloads.py) just before and just after the instance. The
# host's speed switches between levels up to 2x apart; a ratio of two times
# taken side by side moves far less.
END_TO_END = [
    ("instances_per_ref", "1/ref", "higher"),
    ("instance_ref_p50", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

SETUP_PROBES = 4  # extra set-ups per run; setup_s is the median with the worker's own
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _start(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time (until it prints ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], 60.0)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("worker did not start: could not import ihs.cli from src/")
    return proc, setup


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, ladder_seed: int, seconds: float, trace: bool) -> tuple[dict, list[float]]:
    """Set-up probes, then one worker run; returns its result and every set-up time."""
    started = time.perf_counter()
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = _start(["--probe"])
        _finish(proc, 30.0)
        setups.append(setup)
    proc, setup = _start(["--workload", workload, "--seed", str(seed), "--ladder-seed",
                          str(ladder_seed), "--seconds", str(seconds), "--trace", str(int(trace))])
    setups.append(setup)
    out = _finish(proc, RUN_LIMIT_S - (time.perf_counter() - started))
    return json.loads(out.strip().splitlines()[-1]), setups


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (checkout has no .git)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def summarize(result: dict, golden: dict, setups: list[float]) -> dict:
    """Check every instance and compute the end-to-end metrics of one run."""
    verdicts = [check(r["argv"], r["rc"], r["stdout"], golden) for r in result["instances"]]
    passed = sum(v.passed for v in verdicts)
    walls = [r["wall_s"] for r in result["instances"]]
    samples = [r["ref_s"] for r in result["instances"]] + [result["ref_tail_s"]]
    means = [statistics.fmean(s) for s in samples]
    refs = [(before + after) / 2 for before, after in zip(means, means[1:])]
    in_refs = [wall / ref for wall, ref in zip(walls, refs)]
    return {
        "attempted": len(verdicts),
        "failed": len(verdicts) - passed,
        "aborted": sum(v.aborted for v in verdicts),
        "problems": [(" ".join(r["argv"]), v.reason, r["stderr"].strip()[-300:])
                     for r, v in zip(result["instances"], verdicts) if not v.passed],
        "seconds": {
            "instances_per_s": passed / sum(walls),
            "instance_s_p50": statistics.median(walls),
            "ref_s_mean": statistics.fmean(means),
            "ref_loops": sum(map(len, samples)),
        },
        "metrics": {
            "instances_per_ref": passed / sum(in_refs),
            "instance_ref_p50": statistics.median(in_refs),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="first recipe seed; rotates the ladder's rung order")
    parser.add_argument("--ladder-seed", type=int, default=DEFAULT_LADDER_SEED,
                        help="G(n, p) seed of the generic ladder (held-out: 2)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        golden = load_golden()
        result, setups = run_workload(args.workload, args.seed, args.ladder_seed,
                                      args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(result, golden, setups)
    attempted, failed = summary["attempted"], summary["failed"]

    print(f"workload={args.workload} seed={args.seed} ladder_seed={args.ladder_seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"commit={_commit()} nproc={os.cpu_count()} "
          f"mem_total_mb={os.sysconf('SC_PHYS_PAGES') * os.sysconf('SC_PAGE_SIZE') / 2**20:.0f} "
          f"python={result['python']} numpy={result['numpy']}")
    print(f"instances: {attempted} attempted in {len(result['round_s'])} rounds, "
          f"{sum(result['round_s']):.2f} s, "
          f"failed_frac = {failed}/{attempted} = {failed / attempted:.4f}, "
          f"documented aborts (exit 3, passing) = {summary['aborted']}/{attempted}")
    for name, reason, stderr in summary["problems"]:
        print(f"FAILED {name}: {reason} {stderr}")
    sec = summary["seconds"]
    print(f"in seconds: instances_per_s = {sec['instances_per_s']:.6g} 1/s, "
          f"instance_s_p50 = {sec['instance_s_p50']:.6g} s over {attempted} instances, "
          f"ref = {sec['ref_s_mean']:.6g} s (mean of {sec['ref_loops']} reference loops)")
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        print(f"traced: {sum(r['traced'] for r in result['instances'])} of {attempted} calls")
    else:
        metrics = {name: {"value": summary["metrics"][name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    for name, unit, better in (LAYER_METRICS if args.trace else END_TO_END):
        print(f"  {name:32s} {metrics[name]['value']:14.6g} {unit:6s} ({better} is better)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
