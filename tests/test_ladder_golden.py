"""The benchmark's generic-ladder rungs against its golden rows.

``perfbench/golden.json`` pins each rung's exit code and CSV row, the
``oracle_calls`` cell included. Running the rungs here makes a change in the
queries the generic solver asks fail in the test suite, not only when the
benchmark runs. The golden file and the rung list are read from
``perfbench/``, never written.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import pathlib
import sys

import pytest

from ihs.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture(scope="module")
def golden():
    return json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("ladder_seed", [workloads.DEFAULT_LADDER_SEED, workloads.HELD_OUT_LADDER_SEED])
@pytest.mark.parametrize("rung", workloads.LADDER, ids=lambda rung: "-".join(map(str, rung)))
def test_ladder_rung_matches_golden_rows(golden, rung, ladder_seed):
    argv = workloads.ladder_argv(ladder_seed, *rung)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    want = golden[workloads.instance_key(argv)]
    assert (rc, workloads.csv_rows(out.getvalue())) == (want["rc"], want["rows"])
