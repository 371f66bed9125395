"""Golden CSV rows of every CLI entry point at small fixed parameters.

Each case runs ``ihs.cli.main`` and compares its exit code and CSV rows,
``runtime_ms`` dropped, with ``golden_rows.json``. A refactor of a code path
must leave these rows byte-identical. Re-record (only for an intended change
of output) with::

    PYTHONPATH=src python tests/test_golden_rows.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from ihs.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_rows.json")
FILE = "{file}"  # replaced by the instance written by the case's generate argv

PLANTED_100 = ["--n", "100", "--p", "0.6", "--delta", "0.1", "--k", "3"]

# name -> (generate argv or None, command argv)
CASES = {
    "solve-fvs gnp file": (
        ["--model", "gnp", "--n", "80", "--p", "0.08", "--seed", "3"], ["solve-fvs", FILE]),
    "solve-fvs planted file": (
        ["--model", "planted", "--n", "60", "--p", "0.2", "--delta", "0.1", "--k", "3", "--seed", "2"],
        ["solve-fvs", FILE]),
    "solve-fvs gnp model": (None, ["solve-fvs", "--model", "gnp", "--n", "80", "--p", "0.08", "--seed", "4"]),
    "solve-fvs dnp model": (None, ["solve-fvs", "--model", "dnp", "--n", "80", "--p", "0.05", "--seed", "4"]),
    "solve-fvs gnp sweep": (None, ["solve-fvs", "--model", "gnp", "--n", "80", "--p", "0.08", "--seeds", "0..2"]),
    "solve-fvs dnp sweep": (None, ["solve-fvs", "--model", "dnp", "--n", "80", "--p", "0.05", "--seeds", "0..2"]),
    "solve-fvs gnp prune": (
        None, ["solve-fvs", "--model", "gnp", "--n", "80", "--p", "0.08", "--seed", "5", "--prune"]),
    "solve-fvs dnp prune sweep": (
        None, ["solve-fvs", "--model", "dnp", "--n", "80", "--p", "0.05", "--seeds", "0..1", "--prune"]),
    "solve-planted file": (
        ["--model", "planted", *PLANTED_100, "--seed", "2"], ["solve-planted", FILE]),
    "solve-planted model": (None, ["solve-planted", "--model", "planted", *PLANTED_100, "--seed", "1"]),
    "solve-planted sweep": (None, ["solve-planted", "--model", "planted", *PLANTED_100, "--seeds", "0..1"]),
    "solve-planted dnp model": (
        None, ["solve-planted", "--model", "dnp", "--n", "60", "--p", "0.1", "--k", "3", "--seed", "1"]),
    "solve-generic bfs-cycle": (
        None, ["solve-generic", "--model", "gnp", "--n", "24", "--p", "0.15", "--seed", "1", "--oracle", "bfs-cycle"]),
    "solve-generic shortest-cycle": (
        None, ["solve-generic", "--model", "gnp", "--n", "24", "--p", "0.15", "--seed", "1",
               "--oracle", "shortest-cycle"]),
    "solve-generic shortest-cycle dnp": (
        None, ["solve-generic", "--model", "dnp", "--n", "20", "--p", "0.15", "--seed", "2",
               "--oracle", "shortest-cycle"]),
    "solve-generic file": (
        ["--model", "gnp", "--n", "16", "--p", "0.2", "--seed", "5"],
        ["solve-generic", FILE, "--oracle", "bfs-cycle"]),
    "experiment lemma1 applicable": (
        None, ["experiment", "--recipe", "lemma1", "--n", "13000", "--p", "0.03125", "--seeds", "0..0"]),
    "experiment lemma1 n2000": (
        None, ["experiment", "--recipe", "lemma1", "--n", "2000", "--p", "0.01", "--seeds", "0..1"]),
    "experiment theorem2 r40": (
        None, ["experiment", "--recipe", "theorem2", "--n", "300", "--p", "0.02", "--r", "40",
               "--samples", "50", "--seed", "0"]),
    "experiment theorem1": (
        None, ["experiment", "--recipe", "theorem1", "--n", "500", "--p", "0.02", "--seeds", "0..2"]),
    "experiment lemma1": (
        None, ["experiment", "--recipe", "lemma1", "--n", "3000", "--p", "0.01", "--seeds", "0..1"]),
    "experiment theorem2": (
        None, ["experiment", "--recipe", "theorem2", "--n", "300", "--p", "0.02", "--r", "30",
               "--samples", "50", "--seed", "1"]),
    "experiment theorem5": (
        None, ["experiment", "--recipe", "theorem5", *PLANTED_100, "--seeds", "0..1"]),
    "experiment theorem5 k4": (
        None, ["experiment", "--recipe", "theorem5", "--n", "60", "--p", "0.3", "--delta", "0.1",
               "--k", "4", "--seeds", "0..1"]),
}


def run_case(name: str, workdir: pathlib.Path) -> dict:
    """Exit code and CSV lines of one case, with the runtime_ms column cut off."""
    generate, argv = CASES[name]
    if generate is not None:
        path = str(workdir / "instance.txt")
        assert main(["generate", *generate, "--out", path]) == 0
        argv = [path if a == FILE else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    lines = out.getvalue().splitlines()
    assert all(line.count(",") == 13 for line in lines)
    return {"exit": code, "rows": [line.rsplit(",", 1)[0] for line in lines]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_rows(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(name, tmp_path) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: run_case(name, pathlib.Path(tmp)) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
