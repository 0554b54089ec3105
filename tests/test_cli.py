"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.analysis.tools import TOOLS
from repro.cli import EXIT_FINDINGS, build_parser, main
from repro.trace import PHASES, EventLog

TESTS = Path(__file__).resolve().parent


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for artifact in ("fig2", "fig5", "fig8", "table2", "table3", "fig9"):
        assert artifact in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_light_experiment(capsys):
    assert main(["run", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "FIG5" in out
    assert "speculation" in out


def test_run_writes_output_file(tmp_path, capsys):
    target = tmp_path / "fig6.txt"
    assert main(["run", "fig6", "--out", str(target)]) == 0
    assert target.exists()
    assert "FIG6" in target.read_text()


def test_nbody_command(capsys):
    rc = main([
        "nbody", "--p", "2", "--fw", "1",
        "--particles", "100", "--iterations", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wall                :" in out and "virtual s" in out
    assert "makespan" not in out  # one number, printed once
    assert "rejected speculation" in out


def test_nbody_small_blocks_on_the_jittered_bus(capsys):
    """Compute comparable to the 5 ms jittered endpoint latency: X(t+1)
    used to reach the wire before X(t) (``OutOfOrderArrival: got t=1
    after t=2``) until the networks clamped each channel to FIFO."""
    assert main(["nbody", "--p", "4", "--particles", "64", "--iterations", "6"]) == 0
    assert "wall                :" in capsys.readouterr().out


def test_nbody_shares_run_flags(capsys):
    rc = main([
        "nbody", "--p", "2", "--particles", "64", "--iterations", "3",
        "--backend", "loopback", "--fw", "1",
    ])
    assert rc == 0
    assert "rounds" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["des", "loopback", "mp"])
def test_nbody_prints_one_report_on_every_backend(backend, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    rc = main([
        "nbody", "-p", "2", "--particles", "64", "--iterations", "3",
        "--backend", backend, "--record-trace", str(trace),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"events written to {trace})" in out
    assert len(EventLog.load(trace)) > 0
    labels = [
        line.split(":")[0].strip()
        for line in out.splitlines() if line.startswith("  ")
    ]
    expected = ["wall", "phase timings", "time/iteration", "compute / comm",
                "spec / check / corr", "rejected speculation (messages)"]
    if backend != "mp":  # on mp the workers' program copies did the counting
        expected.append("rejected speculation (particles)")
    assert labels == expected
    # Every line is in the backend's own clock, named once per line.
    unit = {"des": "virtual s", "loopback": "rounds", "mp": "wall s"}[backend]
    assert out.count(unit) >= 2
    assert all(phase + "=" in out for phase in PHASES)


def test_mp_only_flags_rejected_off_mp(capsys):
    # --latency must be a usage error on a clockless backend, not a
    # silent no-op.
    rc = main([
        "nbody", "--p", "2", "--particles", "64", "--iterations", "3",
        "--backend", "loopback", "--latency", "0.05",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--latency" in err
    assert "--backend mp" in err

    rc = main(["jacobi", "-p", "2", "--jitter", "0.5"])
    assert rc == 2
    assert "--jitter" in capsys.readouterr().err


@pytest.fixture
def no_workers(monkeypatch):
    """Fail the test if any worker process is started."""
    import multiprocessing.process

    def no_start(self):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_nonpositive_timeout_is_a_usage_error(timeout, no_workers, capsys):
    rc = main([
        "nbody", "--p", "2", "--particles", "64", "--iterations", "3",
        "--backend", "mp", "--timeout", timeout,
    ])
    assert rc == 2
    assert "timeout must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["nbody", "-p", "0"],
        ["nbody", "-p", "17"],
        ["nbody", "--iterations", "0"],
        ["nbody", "--theta", "-1"],
        ["jacobi", "--iterations", "0"],
        ["jacobi", "--seed", "-1"],
        ["chaos", "--iterations", "0"],
    ],
    ids=" ".join,
)
def test_bad_run_flag_is_a_usage_error(argv, capsys):
    """A flag the program or platform rejects exits 2 with one line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {argv[0]}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nbody", "--adaptive", "--fw", "5"], "initial fw must lie within"),
        (["nbody", "--seed", "-1"], "seed must be >= 0"),
        (["chaos", "--straggler", "5:2"], "fault plan names rank(s) [5]"),
    ],
    ids=["fw-outside-policy", "negative-seed", "missing-rank"],
)
def test_mp_run_config_error_exits_before_any_worker(argv, message, no_workers, capsys):
    rc = main([*argv, "-p", "2", "--iterations", "3", "--backend", "mp"])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_jacobi_command(capsys):
    rc = main([
        "jacobi", "-p", "4", "-n", "48", "--iterations", "10",
        "--backend", "loopback", "--sanitize",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "residual" in out
    assert "rejected speculation" in out


def test_chaos_command_verifies_bit_identical(capsys):
    rc = main([
        "chaos", "-p", "4", "-n", "32", "--iterations", "10",
        "--backend", "loopback", "--fw", "1",
        "--drop", "0.1", "--straggler", "1:2.0", "--fault-seed", "7",
        "--verify",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "injected" in out
    assert "0 outstanding" in out
    assert "bit-identical" in out


def test_chaos_plan_file(tmp_path, capsys):
    from repro.faults import EdgeFault, FaultPlan

    plan = FaultPlan(seed=7, edges=(EdgeFault(kind="drop", rate=0.1),))
    path = tmp_path / "plan.json"
    plan.save(str(path))
    rc = main([
        "chaos", "-p", "4", "-n", "32", "--iterations", "10",
        "--backend", "loopback", "--fw", "1", "--plan", str(path),
    ])
    assert rc == 0
    assert "injected" in capsys.readouterr().out


def test_chaos_plan_excludes_inline_flags(capsys):
    rc = main([
        "chaos", "-p", "2", "--plan", "whatever.json", "--drop", "0.1",
    ])
    assert rc == 2


def test_chaos_unrecovered_loss_reported(capsys):
    rc = main([
        "chaos", "-p", "2", "-n", "16", "--iterations", "4",
        "--backend", "loopback", "--fw", "1",
        "--drop", "1.0", "--no-retransmit",
    ])
    assert rc == 1
    assert "unrecovered loss" in capsys.readouterr().out


def test_chaos_crash_reported(capsys):
    rc = main([
        "chaos", "-p", "2", "-n", "16", "--iterations", "8",
        "--backend", "loopback", "--fw", "1", "--crash", "1:3",
    ])
    assert rc == 1
    assert "planned crash" in capsys.readouterr().out


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_run_writes_json(tmp_path, capsys):
    import json

    target = tmp_path / "fig5.json"
    assert main(["run", "fig5", "--json", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["experiment_id"] == "FIG5"
    assert len(data["rows"]) == 16
    assert all(isinstance(v, (int, float)) for v in data["rows"][0])


# ------------------------------------------------------ the analyzer registry
@pytest.mark.parametrize(
    "tool,fmt",
    [(tool, fmt) for tool in TOOLS for fmt in tool.formats],
    ids=lambda value: getattr(value, "cli", value),
)
def test_every_tool_reports_its_fixture_tree_in_every_format(tool, fmt, capsys):
    fixtures = TESTS / f"{tool.name}_fixtures"
    assert main([tool.cli, str(fixtures), "--format", fmt]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    if fmt == "text":
        assert out.splitlines()[-1].startswith(f"{tool.name}: ")
        return
    doc = json.loads(out)
    if fmt == "json":
        assert doc["tool"] == tool.name
        assert set(tool.rules) <= set(doc["rules"])
        assert doc["summary"]["total"] == len(doc["diagnostics"]) > 0
    else:
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == tool.name
        advertised = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert set(tool.rules) <= advertised
        assert run["results"]
        for result in run["results"]:
            assert result["ruleId"] in advertised
            assert "speclint/v1" in result["partialFingerprints"]

