import csv
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ihs
import ihs.cli as cli
import ihs.models as models
from ihs.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"
REPRODUCE = README.parent / "scripts" / "reproduce_experiments.py"


def run_cli(capsys, *argv) -> tuple[int, list[dict]]:
    code = main(list(argv))
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out))) if out else []
    return code, rows


def run_cli_with_err(capsys, *argv) -> tuple[int, list[dict], str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(captured.out))) if captured.out else []
    return code, rows, captured.err


def strip_runtime(rows):
    return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]


def test_generate_round_trip_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code, _ = run_cli(
            capsys, "generate", "--model", "planted", "--n", "40", "--p", "0.3",
            "--delta", "0.2", "--k", "3", "--seed", "7", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    trailer = a.read_text().splitlines()
    assert trailer[-2].startswith("planted 8 0 1 2 3 4 5 6 7")
    assert trailer[-1] == "params delta=0.2 p=0.3 k=3 seed=7"


def test_generate_gnp_p_zero(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, _ = run_cli(
        capsys, "generate", "--model", "gnp", "--n", "10", "--p", "0", "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "ihs-graph 1 undirected 10 0"


def test_generate_rejects_bad_params(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "generate", "--model", "dnp", "--n", "10", "--p", "0.7", "--seed", "1",
        "--out", str(tmp_path / "x.txt"),
    )
    assert code == 2


def triangle_file(tmp_path) -> str:
    path = tmp_path / "tri.txt"
    path.write_text("ihs-graph 1 undirected 3 3\n0 1\n0 2\n1 2\n")
    return str(path)


def test_solve_fvs_on_triangle(tmp_path, capsys):
    code, rows = run_cli(capsys, "solve-fvs", triangle_file(tmp_path))
    assert code == 0
    assert rows[0]["fvs_size"] == "1"
    assert rows[0]["acyclic_ok"] == "1"
    assert rows[0]["algorithm"] == "grow-induced-bfs"


def test_solve_generic_on_triangle(tmp_path, capsys):
    code, rows = run_cli(
        capsys, "solve-generic", triangle_file(tmp_path), "--oracle", "bfs-cycle"
    )
    assert code == 0
    assert rows[0]["fvs_size"] == "1"
    assert int(rows[0]["oracle_calls"]) >= 1
    assert rows[0]["acyclic_ok"] == "1"


def test_solve_planted_file_reports_exact_match(tmp_path, capsys):
    path = tmp_path / "planted.txt"
    code, _ = run_cli(
        capsys, "generate", "--model", "planted", "--n", "120", "--p", "0.6",
        "--delta", "0.1", "--k", "3", "--seed", "3", "--out", str(path),
    )
    assert code == 0
    code, rows = run_cli(capsys, "solve-planted", str(path))
    assert code == 0
    assert rows[0]["exact_match"] in ("0", "1")
    assert rows[0]["k"] == "3"
    assert rows[0]["cycles_found"] != ""


def test_solve_planted_cycle_budget_abort(monkeypatch, capsys):
    import ihs.cli as cli_mod

    def explode(*args, **kwargs):
        raise cli_mod.CycleBudgetExceeded("too many")

    monkeypatch.setattr(cli_mod, "recover_planted_fvs", explode)
    code, rows = run_cli(
        capsys, "solve-planted", "--model", "planted", "--n", "50", "--p", "0.5",
        "--delta", "0.1", "--k", "3", "--seed", "1",
    )
    assert code == 3
    assert rows[0]["fvs_size"] == ""


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    code, _ = run_cli(capsys, "solve-fvs", str(bad))
    assert code == 2


def test_solve_fvs_seed_sweep_rows(capsys):
    code, rows = run_cli(
        capsys, "solve-fvs", "--model", "gnp", "--n", "60", "--p", "0.1",
        "--seeds", "0..4",
    )
    assert code == 0
    assert [row["seed"] for row in rows] == ["0", "1", "2", "3", "4"]
    assert all(row["acyclic_ok"] == "1" for row in rows)


def test_model_requires_seed(capsys):
    code, _ = run_cli(capsys, "solve-fvs", "--model", "gnp", "--n", "10", "--p", "0.1")
    assert code == 2


def test_rows_deterministic_modulo_runtime(capsys):
    args = ["solve-fvs", "--model", "gnp", "--n", "80", "--p", "0.08", "--seeds", "0..3"]
    _, rows_a = run_cli(capsys, *args)
    _, rows_b = run_cli(capsys, *args)
    assert strip_runtime(rows_a) == strip_runtime(rows_b)


def test_jobs_parallel_matches_serial(capsys):
    base = ["solve-fvs", "--model", "gnp", "--n", "50", "--p", "0.1", "--seeds", "0..3"]
    _, serial = run_cli(capsys, *base, "--jobs", "1")
    _, parallel = run_cli(capsys, *base, "--jobs", "2")
    assert strip_runtime(serial) == strip_runtime(parallel)


def test_check_lemma1_rows(capsys):
    # c = 500 with 16 p <= 1/2: the smallest scale where the checks apply
    code, rows = run_cli(
        capsys, "experiment", "--recipe", "lemma1", "--n", "16000", "--p", "0.03125", "--seeds", "0..1"
    )
    rows = rows[:-1]  # the per-seed rows; the aggregate is judged elsewhere
    assert code == 0
    assert len(rows) == 2
    assert all(row["exact_match"] in ("0", "1") for row in rows)
    assert all(row["bound_value"] == "1" for row in rows)  # horizon


def test_check_lemma1_warns_when_not_applicable(capsys):
    code, rows, err = run_cli_with_err(
        capsys, "experiment", "--recipe", "lemma1", "--n", "1000", "--p", "0.1", "--seeds", "0..0"
    )
    rows = rows[:-1]
    assert code == 0
    assert rows[0]["exact_match"] == ""
    assert "not applicable" in err


def test_scan_lowerbound_r1(capsys):
    code, rows = run_cli(
        capsys, "experiment", "--recipe", "theorem2", "--n", "200", "--p", "0.05", "--r", "1",
        "--samples", "50", "--seed", "0",
    )
    rows = rows[:-1]
    assert code == 0
    assert rows[0]["bound_value"] == "1.0"


def test_experiment_theorem2_requires_seed(capsys):
    code, _ = run_cli(
        capsys, "experiment", "--recipe", "theorem2", "--n", "100", "--p", "0.05",
        "--r", "1", "--samples", "10",
    )
    assert code == 2


def test_experiment_theorem5_rows(capsys):
    code, rows = run_cli(
        capsys, "experiment", "--recipe", "theorem5", "--n", "100", "--p", "0.6",
        "--delta", "0.1", "--k", "3", "--seeds", "0..2",
    )
    assert code == 0
    assert rows[-1]["run_id"] == "aggregate"
    assert rows[-1]["bound_value"] == "30"
    frac = float(rows[-1]["exact_match"])
    assert 0.0 <= frac <= 1.0


def test_experiment_theorem1_aggregate(capsys):
    code, rows = run_cli(
        capsys, "experiment", "--recipe", "theorem1", "--n", "500", "--p", "0.05",
        "--seeds", "0..2",
    )
    assert code == 0
    agg = rows[-1]
    assert agg["run_id"] == "aggregate"
    assert agg["algorithm"] == "theorem1-aggregate"
    assert agg["bound_value"] != ""


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, rows = run_cli(
        capsys, "solve-fvs", "--model", "gnp", "--n", "30", "--p", "0.1",
        "--seed", "0", "--out", str(out),
    )
    assert code == 0
    assert rows == []  # rows went to the file
    content = out.read_text().splitlines()
    assert content[0].startswith("run_id,seed,algorithm")
    assert len(content) == 2


def child_env() -> dict:
    """The environment of a child interpreter that imports the same ihs
    package as this process."""
    pkg_parent = str(Path(ihs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [pkg_parent, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ihs", "solve-fvs", triangle_file(tmp_path)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("run_id,")


@pytest.mark.parametrize("extra", [[], ["--prune"]])
def test_solve_fvs_breaks_directed_two_cycles(tmp_path, capsys, extra):
    # the shadow sees 0<->1 as one edge; pruning the shadow would put 1 back
    path = tmp_path / "two.txt"
    path.write_text("ihs-graph 1 directed 4 5\n0 1\n1 0\n1 2\n2 3\n3 1\n")
    code, rows = run_cli(capsys, "solve-fvs", str(path), *extra)
    assert code == 0
    assert rows[0]["acyclic_ok"] == "1"
    assert rows[0]["fvs_size"] == "2"


def test_experiment_theorem5_cycle_budget_abort(monkeypatch, capsys):
    import ihs.cli as cli_mod

    def explode(*args, **kwargs):
        raise cli_mod.CycleBudgetExceeded("too many")

    monkeypatch.setattr(cli_mod, "recover_planted_fvs", explode)
    code, rows, err = run_cli_with_err(
        capsys, "experiment", "--recipe", "theorem5", "--n", "50", "--p", "0.5",
        "--delta", "0.1", "--k", "3", "--seeds", "0..1",
    )
    assert code == 3
    assert len(rows) == 1 and rows[0]["fvs_size"] == ""
    assert rows[0]["algorithm"] == "recover-planted"
    assert "solver abort" in err


def test_verify_planted_cycle_budget_abort(monkeypatch, capsys):
    import ihs.cli as cli_mod

    def explode(*args, **kwargs):
        raise cli_mod.CycleBudgetExceeded("too many")

    monkeypatch.setattr(cli_mod, "planted_diagnostics", explode)
    code, rows = run_cli(
        capsys, "verify-planted", "--model", "planted", "--n", "50", "--p", "0.5",
        "--delta", "0.1", "--k", "3", "--seed", "1",
    )
    assert code == 3
    assert rows[0]["algorithm"] == "verify-planted"
    assert rows[0]["fvs_size"] == ""


def test_solve_generic_oracle_protocol_abort(monkeypatch, capsys):
    import ihs.cli as cli_mod

    def explode(*args, **kwargs):
        raise cli_mod.OracleProtocolError("bad verdict")

    monkeypatch.setattr(cli_mod, "solve_implicit_hitting_set", explode)
    code, rows = run_cli(
        capsys, "solve-generic", "--model", "gnp", "--n", "12", "--p", "0.3",
        "--seed", "1", "--oracle", "shortest-cycle",
    )
    assert code == 3
    assert rows[0]["algorithm"] == "generic-shortest-cycle"
    assert rows[0]["fvs_size"] == ""


def test_solve_generic_repeated_subset_abort(monkeypatch, tmp_path, capsys):
    # an oracle that misses the same subset twice, past the verdict validation
    import ihs.cli as cli_mod
    import ihs.generic as generic_mod
    from ihs import OracleContract, OracleVerdict

    monkeypatch.setattr(generic_mod, "_validated", lambda verdict, query, universe_size: verdict)
    def same_miss(g, root=0):
        return OracleContract(check=lambda h: OracleVerdict.miss((0, 1, 2)), universe_size=g.n)

    monkeypatch.setattr(cli_mod, "bfs_cycle_oracle", same_miss)
    code, rows, err = run_cli_with_err(
        capsys, "solve-generic", triangle_file(tmp_path), "--oracle", "bfs-cycle"
    )
    assert code == 3
    assert rows[0]["fvs_size"] == ""
    assert "repeated" in err


def test_solve_generic_out_of_universe_abort(monkeypatch, tmp_path, capsys):
    # a missed vertex id equal to the vertex count breaks the oracle contract
    from ihs import OracleContract, OracleVerdict

    def outside(g, root=0):
        return OracleContract(check=lambda h: OracleVerdict.miss((g.n,)), universe_size=g.n)

    monkeypatch.setattr(cli, "bfs_cycle_oracle", outside)
    code, rows, err = run_cli_with_err(
        capsys, "solve-generic", triangle_file(tmp_path), "--oracle", "bfs-cycle"
    )
    assert code == 3
    assert rows[0]["fvs_size"] == ""
    assert "outside" in err


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_planted_rejects_fewer_than_one_sample(capsys, samples):
    code, rows, err = run_cli_with_err(
        capsys, "verify-planted", "--model", "planted", "--n", "100", "--p", "0.6",
        "--delta", "0.1", "--k", "3", "--seed", "1", "--samples", samples,
    )
    assert code == 2
    assert rows == []
    assert "sample" in err and "recovery regime" not in err


def test_params_trailer_out_of_range_exits_2(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("ihs-graph 1 undirected 3 3\n0 1\n0 2\n1 2\nparams p=nan seed=0\n")
    code, rows, err = run_cli_with_err(capsys, "solve-fvs", str(path))
    assert code == 2
    assert rows == []
    assert err.startswith("error:") and "p must lie in [0, 1]" in err


def test_solve_generic_rejects_negative_ymax(tmp_path, capsys):
    code, rows, err = run_cli_with_err(
        capsys, "solve-generic", triangle_file(tmp_path), "--oracle", "bfs-cycle", "--ymax", "-1"
    )
    assert code == 2
    assert rows == []
    assert "max_swap_out" in err


def test_instance_too_large_for_memory_exits_2(monkeypatch, capsys):
    import ihs.cli as cli_mod
    import ihs.models as models_mod

    monkeypatch.setattr(models_mod, "available_memory", lambda: 1 << 20)
    monkeypatch.setattr(cli_mod, "gen_gnp", None)  # never reached
    monkeypatch.setattr(cli_mod, "gen_planted", None)
    code, _, err = run_cli_with_err(
        capsys, "experiment", "--recipe", "lemma1", "--n", "3000", "--p", "0.2", "--seeds", "0..0"
    )
    assert code == 2
    assert "needs about" in err and "MB is available" in err
    code, _, err = run_cli_with_err(
        capsys, "solve-fvs", "--model", "dnp", "--n", "3000", "--p", "0.2", "--seed", "0"
    )
    assert code == 2 and "MB is available" in err
    for recipe in (["theorem1"], ["theorem5", "--delta", "0.1", "--k", "3"]):
        code, rows, err = run_cli_with_err(
            capsys, "experiment", "--recipe", *recipe, "--n", "3000", "--p", "0.2", "--seeds", "0..0"
        )
        assert code == 2 and rows == []
        assert "needs about" in err and "MB is available" in err


def test_instance_file_too_large_for_memory_exits_2(monkeypatch, capsys, tmp_path):
    # the header alone sizes the instance, so it is refused before anything
    # is allocated; the shrunk memory keeps a broken guard at a few megabytes
    import ihs.models as models_mod

    monkeypatch.setattr(models_mod, "available_memory", lambda: 1 << 20)
    path = tmp_path / "big.txt"
    path.write_text("ihs-graph 1 directed 100000 0\n")
    code, _, err = run_cli_with_err(capsys, "solve-fvs", str(path))
    assert code == 2
    assert "needs about" in err and "MB is available" in err


# replaced by instance files the tests write: the undirected triangle, a
# directed triangle, and the directed triangle with a planted trailer only
FILE, DIRECTED, PLANTED = "{file}", "{directed}", "{planted}"
GNP = ["--model", "gnp", "--n", "30", "--p", "0.1"]
THEOREM1 = ["experiment", "--recipe", "theorem1", "--n", "50", "--p", "0.1", "--seeds", "0..1"]
THEOREM2 = ["experiment", "--recipe", "theorem2", "--n", "50", "--p", "0.05", "--r", "5",
            "--samples", "5", "--seed", "0"]
THEOREM5 = ["experiment", "--recipe", "theorem5", "--n", "60", "--p", "0.3", "--delta", "0.1",
            "--k", "3", "--seeds", "0..0"]

# commands whose options the command does not read, or cannot run together
REFUSED = {
    "theorem2 --seeds": [*THEOREM2, "--seeds", "0..9"],
    "theorem1 --delta --k": [*THEOREM1, "--delta", "0.3", "--k", "9"],
    "experiment --jobs 0": [*THEOREM1, "--jobs", "0"],
    "file --model --n --seed": ["solve-fvs", FILE, "--model", "dnp", "--n", "99", "--seed", "5"],
    "file --model": ["solve-fvs", FILE, "--model", "gnp"],
    "file --n": ["solve-generic", FILE, "--oracle", "bfs-cycle", "--n", "99"],
    "file --seed": ["solve-fvs", FILE, "--seed", "5"],
    "gnp --delta": ["solve-fvs", *GNP, "--seed", "0", "--delta", "0.3"],
    "dnp --delta": ["solve-generic", "--model", "dnp", "--n", "20", "--p", "0.1", "--seed", "0",
                    "--oracle", "shortest-cycle", "--delta", "0.3"],
    "solve-planted dnp --delta": ["solve-planted", "--model", "dnp", "--n", "30", "--p", "0.1",
                                  "--k", "3", "--seed", "0", "--delta", "0.3"],
    "generate gnp --delta": ["generate", *GNP, "--seed", "0", "--delta", "0.3", "--out", FILE],
    "--seed --seeds": ["solve-fvs", *GNP, "--seed", "0", "--seeds", "0..9"],
    "--jobs 0": ["solve-fvs", *GNP, "--seeds", "0..1", "--jobs", "0"],
    "--jobs -1": ["solve-fvs", *GNP, "--seeds", "0..1", "--jobs", "-1"],
    "theorem2 --root": [*THEOREM2, "--root", "7"],
    "theorem5 --root": [*THEOREM5, "--root", "7"],
}

# commands whose option values or instance the command cannot run on
UNRUNNABLE = {
    "--seeds 5..3": ["solve-fvs", *GNP, "--seeds", "5..3"],
    "bfs-cycle dnp": ["solve-generic", "--model", "dnp", "--n", "20", "--p", "0.1", "--seed", "0",
                      "--oracle", "bfs-cycle"],
    "bfs-cycle directed file": ["solve-generic", DIRECTED, "--oracle", "bfs-cycle"],
    "solve-planted dnp no --k": ["solve-planted", "--model", "dnp", "--n", "30", "--p", "0.1",
                                 "--seed", "0"],
    "solve-planted undirected file": ["solve-planted", FILE],
    "verify-planted no planted trailer": ["verify-planted", FILE],
    "verify-planted no params trailer": ["verify-planted", PLANTED],
}


def instance_files(tmp_path) -> dict[str, str]:
    """The file behind each placeholder of ``REFUSED`` and ``UNRUNNABLE``."""
    directed = tmp_path / "directed.txt"
    directed.write_text("ihs-graph 1 directed 3 3\n0 1\n1 2\n2 0\n")
    planted = tmp_path / "planted.txt"
    planted.write_text("ihs-graph 1 directed 3 3\n0 1\n1 2\n2 0\nplanted 1 0\n")
    return {FILE: triangle_file(tmp_path), DIRECTED: str(directed), PLANTED: str(planted)}


@pytest.mark.parametrize("argv", [*REFUSED.values(), *UNRUNNABLE.values()],
                         ids=[*REFUSED, *UNRUNNABLE])
def test_refused_options_exit_2(tmp_path, capsys, argv):
    files = instance_files(tmp_path)
    code, rows, err = run_cli_with_err(capsys, *[files.get(a, a) for a in argv])
    assert code == 2
    assert rows == []
    assert err.startswith("error:") and "Traceback" not in err


def refusal(argv: list[str]) -> str | None:
    """The input error ``argv`` draws from its options alone, else None. No
    instance is drawn or read."""
    args = build_parser().parse_args(argv)
    model = cli.RECIPES[args.recipe].model if args.command == "experiment" else args.model
    try:
        cli.check_options(args)
        if model is not None and getattr(args, "instance", None) is None:
            cli._model_params(args, model)
    except ValueError as exc:
        return str(exc)
    return None


def reproduce_argvs(monkeypatch, tmp_path, *flags) -> list[list[str]]:
    """The ``ihs`` argv lists the reproduction script hands to the CLI, recorded
    instead of run."""
    spec = importlib.util.spec_from_file_location("reproduce_experiments", REPRODUCE)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    recorded: list[list[str]] = []
    monkeypatch.setattr(script, "cli_main", lambda argv: recorded.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", [str(REPRODUCE), "--outdir", str(tmp_path), *flags])
    assert script.main() == 0
    return recorded


def test_readme_names_only_live_commands_and_scripts(monkeypatch, tmp_path):
    text = README.read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines() if line.startswith("ihs ")]
    assert len(commands) >= 6
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(argv)}")
    scripts = re.findall(r"scripts/[\w./-]+", text)
    assert scripts
    for path in scripts:
        assert (README.parent / path).is_file(), path

    # no README command and no reproduction run carries an option its command
    # refuses; the memory guard is off, as it depends on the machine
    monkeypatch.setattr(models, "available_memory", lambda: None)
    runs = [argv[1:] for argv in commands]
    for flags in ((), ("--full",)):
        runs += reproduce_argvs(monkeypatch, tmp_path, *flags)
    assert len(runs) == len(commands) + 8
    for argv in runs:
        assert refusal(argv) is None, (argv, refusal(argv))
    assert refusal([*THEOREM5, "--root", "7"]) is not None


def test_readme_library_example_runs():
    block = README.read_text().split("\n## Library example\n", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "optimal FVS size" in proc.stdout
