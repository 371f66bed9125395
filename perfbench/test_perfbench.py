"""Tests of the benchmark's own logic: the output check, fail-loud tracing and
self-time accounting. They take a few seconds:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (first: it puts the checkout's src on sys.path)
import ihs.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = [workloads.ladder_argv(1, "bfs-cycle", 24, 0.15), workloads.ladder_argv(1, "shortest-cycle", 30, 0.15)]
ABORT = workloads.ladder_argv(1, "bfs-cycle", 60, 0.07)
REF = workloads.WORKLOADS["generic-ladder"].reference


def _result(records: list[dict]) -> dict:
    return {"instances": records, "round_s": [sum(r["wall_s"] for r in records)],
            "ref_tail_s": records[-1]["ref_s"], "peak_rss_mb": 1.0}


def test_corrupted_golden_row_raises_failed_frac():
    golden = workloads.load_golden()
    result = _result([worker.run_instance(argv, None, REF) for argv in SMALL])
    assert run.summarize(result, golden, [0.1])["failed"] == 0

    corrupted = copy.deepcopy(golden)
    corrupted[workloads.instance_key(SMALL[0])]["rows"][0]["fvs_size"] += "0"
    summary = run.summarize(result, corrupted, [0.1])
    assert (summary["failed"], summary["attempted"]) == (1, 2)
    assert summary["metrics"]["instances_per_ref"] < run.summarize(result, golden, [0.1])["metrics"]["instances_per_ref"]


def _csv(row: dict, runtime_ms: str) -> str:
    return ",".join(list(row) + ["runtime_ms"]) + "\n" + ",".join(list(row.values()) + [runtime_ms]) + "\n"


def test_documented_abort_passes_only_as_recorded_or_once_certified():
    golden = workloads.load_golden()
    recorded = golden[workloads.instance_key(ABORT)]
    assert recorded["rc"] == workloads.ABORT_EXIT
    abort_row = recorded["rows"][0]
    assert workloads.check(ABORT, 3, _csv(abort_row, ""), golden) == workloads.Verdict(True, True)
    assert not workloads.check(ABORT, 3, _csv(abort_row, ""), {}).passed

    certified = dict(abort_row, fvs_size="13", acyclic_ok="1", oracle_calls="900")
    assert workloads.check(ABORT, 0, _csv(certified, "5"), golden).passed
    assert not workloads.check(ABORT, 0, _csv(dict(certified, acyclic_ok="0"), "5"), golden).passed


def test_golden_rows_cover_default_and_held_out_seeds():
    golden = workloads.load_golden()
    for workload in workloads.WORKLOADS.values():
        for seed, ladder_seed in [(workloads.DEFAULT_SEED, workloads.DEFAULT_LADDER_SEED),
                                  (workloads.HELD_OUT_SEED, workloads.HELD_OUT_LADDER_SEED)]:
            first = next(workload.rounds(seed, ladder_seed))
            assert all(workloads.instance_key(argv) in golden for argv in first)


def test_missing_attribute_fails_loudly_and_restores_the_rest(monkeypatch):
    graph_cls = ihs.models.Graph
    monkeypatch.delattr(ihs.generic, "exact_min_hitting_set")
    with pytest.raises(spans.TracingError, match="ihs.generic.exact_min_hitting_set"):
        spans.Tracer().install()
    assert ihs.models.Graph is graph_cls


def test_expected_span_without_calls_fails_loudly():
    tracer = spans.Tracer()
    tracer.instance = 1
    worker.run_instance(SMALL[0], tracer, REF)  # bfs-cycle only
    with pytest.raises(spans.TracingError, match="oracles.shortest_cycle.check"):
        spans.layer_metrics(tracer, workloads.WORKLOADS["generic-ladder"].spans, [])


def test_self_times_sum_to_instance_wall_time():
    tracer = spans.Tracer()
    for i, argv in enumerate(SMALL, start=1):
        tracer.instance = i
        assert worker.run_instance(argv, tracer, REF)["rc"] == 0
    roots = [s for s in tracer.spans if s.name == "cli.main"]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(sum(s.end - s.start for s in roots))
    layers = spans.layer_metrics(tracer, ("cli.main", "hitting.exact"), [0.0])
    assert layers["oracles.calls"] > 0 and layers["hitting.exact_calls"] > 0
    assert layers["generic.queries_per_subset"] == pytest.approx(1 / layers["oracles.miss_frac"])
    assert ihs.cli.gen_gnp is ihs.models.gen_gnp  # uninstalled after each instance


def test_instance_times_are_divided_by_the_reference_before_and_after():
    records = [{"argv": ["x"], "rc": 1, "stdout": "", "stderr": "", "wall_s": wall, "ref_s": ref}
               for wall, ref in [(3.0, [1.0, 1.0]), (10.0, [1.0, 3.0])]]
    result = {"instances": records, "round_s": [13.0], "ref_tail_s": [3.0, 3.0, 3.0], "peak_rss_mb": 1.0}
    summary = run.summarize(result, {}, [0.1])
    assert summary["metrics"]["instance_ref_p50"] == pytest.approx((3.0 / 1.5 + 10.0 / 2.5) / 2)
    assert summary["seconds"]["instance_s_p50"] == pytest.approx(6.5)
    assert (summary["failed"], summary["metrics"]["instances_per_ref"]) == (2, 0.0)


def test_self_times_subtract_direct_children_only():
    s = [spans.Span("a", 1, None, 0.0, 10.0), spans.Span("b", 1, 0, 1.0, 5.0),
         spans.Span("c", 1, 1, 2.0, 3.0)]
    assert spans.self_times(s) == [6.0, 3.0, 1.0]


def test_benchmark_json_matches_the_metrics_the_code_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == spans.LAYER_METRICS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_run_fails_without_printing_a_result_when_ihs_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "generic-ladder",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
