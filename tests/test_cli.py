import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import c5, k3, k4, petersen
from covdex import cli, format_graph, write_graph
from covdex.cli import main
from covdex.oracle import FuzzConfig, random_multigraph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k4_path(tmp_path):
    path = tmp_path / "k4.graph"
    write_graph(k4(), str(path))
    return str(path)


@pytest.fixture
def c5_path(tmp_path):
    path = tmp_path / "c5.graph"
    write_graph(c5(), str(path))
    return str(path)


def test_bound_payload(capsys, k4_path):
    code, out, err = run_cli(capsys, "bound", k4_path)
    assert code == 0
    assert json.loads(out) == {"delta": 3, "codensity": "3/1", "k": 2}
    report = json.loads(err)
    assert report["outcome"] == "ok"
    assert report["command"] == "bound"
    assert len(report["input_sha256"]) == 64


def test_codensity_payload(capsys, c5_path):
    code, out, _ = run_cli(capsys, "codensity", c5_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["codensity"] == "5/3"
    assert payload["witness"] == [0, 1, 2, 3, 4]


def test_color_found_and_impossible(capsys, k4_path):
    code, out, _ = run_cli(capsys, "color", k4_path, "-m", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert len(payload["assignment"]) == 6
    code, out, _ = run_cli(capsys, "color", k4_path, "-m", "2")
    assert code == 0
    assert json.loads(out)["status"] == "impossible"


def test_color_budget_exit_code(capsys, tmp_path):
    path = tmp_path / "petersen.graph"
    write_graph(petersen(), str(path))
    code, out, _ = run_cli(capsys, "color", str(path), "-m", "3", "--budget", "5")
    assert code == 3
    assert json.loads(out)["status"] == "budget"


def test_python_dash_m_runs_the_cli(capsys, tmp_path):
    path = tmp_path / "k3.graph"
    write_graph(k3(), str(path))
    code, expected, _ = run_cli(capsys, "bound", str(path))
    assert code == 0
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "covdex", "bound", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_decompose_writes_covers_that_verify(capsys, tmp_path, c5_path):
    covers_path = tmp_path / "covers.json"
    code, out, _ = run_cli(capsys, "decompose", c5_path, "--json", str(covers_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 1
    assert json.loads(covers_path.read_text()) == payload

    code, out, _ = run_cli(capsys, "verify", c5_path, str(covers_path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_rejects_bad_covers(capsys, tmp_path, k4_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 2, "covers": [[0, 1], [0, 2]]}))
    code, out, _ = run_cli(capsys, "verify", k4_path, str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["problems"]


@pytest.mark.parametrize("data", [[1, 2], {"covers": [1, 2]}, {}, {"covers": [["0"]]}])
def test_verify_rejects_a_malformed_covers_file(capsys, tmp_path, k4_path, data):
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", k4_path, str(path))
    assert code == 2
    assert out == ""
    assert "list of lists" in json.loads(err)["payload"]["message"]


def test_verify_accepts_no_covers(capsys, tmp_path, k4_path):
    # The payload of a k = 0 decomposition.
    path = tmp_path / "covers.json"
    path.write_text(json.dumps({"k": 0, "covers": []}))
    code, out, _ = run_cli(capsys, "verify", k4_path, str(path))
    assert code == 0
    assert json.loads(out) == {"ok": True, "problems": []}


def test_xi_payload(capsys, k4_path):
    code, out, _ = run_cli(capsys, "xi", k4_path)
    assert code == 0
    assert json.loads(out) == {"xi": 3}


def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "bogus-command")
    assert code == 2
    assert out == ""
    assert "usage" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "bound", "/nonexistent/g.graph")
    assert code == 2


def test_malformed_graph_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("v 2\ne 0 0\n")
    code, _, err = run_cli(capsys, "bound", str(path))
    assert code == 2
    assert "GraphFormatError" in err


def test_binary_graph_file_exit_code(capsys, tmp_path):
    path = tmp_path / "binary.graph"
    path.write_bytes(b"\xff\xfe\x00\x81v 3\n")
    code, out, err = run_cli(capsys, "bound", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["payload"]["error"] == "UnicodeDecodeError"


def test_directory_as_graph_exit_code(capsys, tmp_path):
    code, out, err = run_cli(capsys, "bound", str(tmp_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["payload"]["error"] == "IsADirectoryError"


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, k4_path):
    def broken(args, report):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "bound", broken)
    code, out, err = run_cli(capsys, "bound", k4_path)
    assert code == 5
    assert out == ""
    report = json.loads(err)
    error = report["payload"]
    assert report["outcome"] == "internal-error"
    assert error["error"] == "RuntimeError" and error["message"] == "boom"
    assert "RuntimeError: boom" in error["traceback"]


def test_too_large_exit_code(capsys, tmp_path, k4_path):
    code, _, err = run_cli(capsys, "codensity", k4_path, "--cap", "2")
    assert code == 3
    assert "TooLarge" in err


@pytest.mark.parametrize("command", ["codensity", "bound", "decompose"])
def test_huge_vertex_count_exits_too_large(capsys, tmp_path, command):
    # Past 2^63 vertices len(range(n)) overflows; the cap check must still
    # refuse the graph with exit 3, not end in an internal error.
    path = tmp_path / "huge.graph"
    path.write_text("v 99999999999999999999999\n")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 3 and out == ""
    error = json.loads(err.splitlines()[-1])["payload"]
    assert error == {
        "error": "TooLarge",
        "message": "odd-subset enumeration over 99999999999999999999999 vertices exceeds cap 24",
    }


def test_fuzz_summary_and_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "fuzz", "--n", "5", "--count", "15", "--seed", "42",
        "--report", str(report),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["instances"] == 15
    assert summary["anomalies"] == 0
    data = json.loads(report.read_text())
    assert len(data["records"]) == 15
    assert data["summary"] == summary


def test_fuzz_records_a_crash_and_finishes_the_campaign(capsys, tmp_path, monkeypatch):
    # --seed 42 runs seeds 42..49; the instance with seed 44 crashes.
    doomed = random_multigraph(
        FuzzConfig(n=5, max_multiplicity=2, edge_probability=0.5, seed=44)
    )
    real = cli.decompose

    def flaky(g, options=None):
        if g == doomed:
            raise RuntimeError("boom")
        return real(g, options)

    monkeypatch.setattr(cli, "decompose", flaky)
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "fuzz", "--n", "5", "--count", "8", "--seed", "42",
        "--jobs", "1", "--report", str(report),
    )
    assert code == 1  # a crash is an anomaly
    summary = json.loads(out)
    assert summary["instances"] == 8
    assert summary["anomalies"] == 1
    records = json.loads(report.read_text())["records"]
    crashed = [r for r in records if "crash" in r]
    assert [r["seed"] for r in crashed] == [44]
    assert crashed[0]["crash"] == {"error": "RuntimeError", "message": "boom"}
    assert all(r["decompose_ok"] for r in records if "crash" not in r)


def test_fuzz_parallel_jobs_matches_serial(capsys):
    serial = run_cli(capsys, "fuzz", "--n", "5", "--count", "12", "--seed", "5")
    parallel = run_cli(
        capsys, "fuzz", "--n", "5", "--count", "12", "--seed", "5", "--jobs", "2"
    )
    assert serial[0] == parallel[0] == 0
    assert serial[1] == parallel[1]  # deterministic merge, ordered by index


def test_fuzz_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("COVDEX_SEED", "77")
    code, out, _ = run_cli(capsys, "fuzz", "--n", "4", "--count", "5", "--seed", "1")
    assert code == 0
    assert json.loads(out)["seed"] == 77


@pytest.mark.parametrize(
    "argv, env_seed",
    [
        (["--jobs", "0"], None),
        (["--count", "-3"], None),
        (["--count", "0"], None),
        ([], "abc"),
    ],
)
def test_fuzz_rejects_bad_counts_and_seeds(capsys, monkeypatch, argv, env_seed):
    if env_seed is not None:
        monkeypatch.setenv("COVDEX_SEED", env_seed)
    code, out, err = run_cli(capsys, "fuzz", "--n", "4", *argv)
    assert code == 2
    assert out == ""
    report = json.loads(err)
    error = report["payload"]
    assert report["outcome"] == "error"
    assert error["error"] == "usage" and "traceback" not in error


@pytest.mark.parametrize(
    "argv, option",
    [
        (["color", "GRAPH", "-m", "-1"], "-m/--colors"),
        (["color", "GRAPH", "-m", "3", "--budget", "-5"], "--budget"),
        (["decompose", "GRAPH", "--budget", "-1"], "--budget"),
        (["decompose", "GRAPH", "--cap", "-1"], "--cap"),
        (["bound", "GRAPH", "--cap", "-1"], "--cap"),
        (["xi", "GRAPH", "--cap", "-1"], "--cap"),
        (["fuzz", "--edge-prob", "1.5"], "--edge-prob"),
        (["fuzz", "--edge-prob", "nan"], "--edge-prob"),
        (["fuzz", "--n", "-1"], "--n"),
        (["fuzz", "--max-mult", "0"], "--max-mult"),
    ],
)
def test_out_of_range_numbers_are_usage_errors(capsys, k4_path, argv, option):
    argv = [k4_path if a == "GRAPH" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    report = json.loads(err)
    error = report["payload"]
    assert report["outcome"] == "error"
    assert error["error"] == "usage" and "traceback" not in error
    assert error["message"].startswith(f"argument {option}:")


def test_range_edges_are_accepted(capsys, k4_path):
    code, out, _ = run_cli(capsys, "color", k4_path, "-m", "0")
    assert code == 0 and json.loads(out)["status"] == "impossible"
    code, out, _ = run_cli(capsys, "color", k4_path, "-m", "3", "--budget", "0")
    assert code == 3 and json.loads(out)["status"] == "budget"
    code, out, _ = run_cli(capsys, "fuzz", "--n", "4", "--count", "2", "--edge-prob", "1")
    assert code == 0 and json.loads(out)["instances"] == 2


def test_fuzz_workers_are_bounded_by_jobs_count_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli._fuzz_workers(8, 100) == 4
    assert cli._fuzz_workers(3, 100) == 3
    assert cli._fuzz_workers(8, 2) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._fuzz_workers(8, 100) == 1


def test_pretty_flag(capsys, k4_path):
    code, out, _ = run_cli(capsys, "--pretty", "bound", k4_path)
    assert code == 0
    assert out.count("\n") > 1
    assert json.loads(out)["k"] == 2


def test_stdout_is_byte_identical_across_runs(capsys, k4_path, c5_path):
    for argv in (
        ["bound", k4_path],
        ["codensity", c5_path],
        ["decompose", c5_path],
        ["xi", k4_path],
        ["color", k4_path, "-m", "4"],
        ["fuzz", "--n", "5", "--count", "10", "--seed", "9"],
    ):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second, argv


def test_dot_export(capsys, tmp_path, c5_path):
    dot_dir = tmp_path / "dots"
    code, _, _ = run_cli(capsys, "decompose", c5_path, "--dot", str(dot_dir))
    assert code == 0
    files = list(dot_dir.iterdir())
    assert len(files) == 1
    text = files[0].read_text()
    assert text.startswith("digraph") and "->" in text


def test_decompose_dump_on_fail(capsys, tmp_path):
    # an instance outside both hypotheses that fails at the degree bound
    from covdex import random_multigraph
    from covdex.oracle import FuzzConfig

    g = random_multigraph(
        FuzzConfig(n=5, max_multiplicity=5, edge_probability=0.7, seed=200000)
    )
    path = tmp_path / "hard.graph"
    write_graph(g, str(path))
    dump_dir = tmp_path / "dumps"
    code, out, _ = run_cli(
        capsys, "decompose", str(path), "--dump-on-fail", str(dump_dir)
    )
    assert code == 4  # counterexample candidate: hypotheses do not hold
    payload = json.loads(out)
    assert payload["failed_stage"] == "special-coloring"
    dumps = list(dump_dir.iterdir())
    assert len(dumps) == 1
    state = json.loads(dumps[0].read_text())
    assert "original" in state and "contracted" in state


DECOMPOSE_STAGES = [
    "bound", "regularize", "puncture", "chi-prime", "contract",
    "special-coloring", "lift", "augment", "map-back", "verify",
]


@pytest.mark.parametrize(
    "graph,flags,last_stage",
    [
        (c5(), [], "verify"),
        (random_multigraph(
            FuzzConfig(n=5, max_multiplicity=5, edge_probability=0.7, seed=200000)
        ), [], "special-coloring"),
        (k3().without_edge(0), [], "bound"),  # a path: k = 0
        # Capped runs (exit 3, nothing on stdout) still report their run.
        (c5(), ["--budget", "1"], "chi-prime"),
        (c5(), ["--cap", "2"], "bound"),
    ],
    ids=[
        "graph0-verify", "graph1-special-coloring", "graph2-bound",
        "graph3-budget-chi-prime", "graph4-cap-bound",
    ],
)
def test_decompose_run_report(capsys, tmp_path, graph, flags, last_stage):
    path = tmp_path / "g.graph"
    write_graph(graph, str(path))
    code, first, err = run_cli(capsys, "decompose", str(path), *flags)
    _, second, _ = run_cli(capsys, "decompose", str(path), *flags)
    assert first == second  # no timing reaches stdout
    run = json.loads(err.splitlines()[0])["run"]  # the run report's line
    if flags:
        assert code == 3 and first == ""
    elif code != 0:
        assert json.loads(first)["failed_stage"] == last_stage
    reached = DECOMPOSE_STAGES[: DECOMPOSE_STAGES.index(last_stage) + 1]
    assert sorted(run["spans_ns"]) == sorted(reached)
    assert all(isinstance(ns, int) and ns >= 0 for ns in run["spans_ns"].values())
    if "chi-prime" in reached:
        assert run["counters"]["nodes"] > 0
    else:
        assert run["counters"] == {}
