"""The trace header: every recorded trace carries the run parameters its
judges read, on every backend and from ``repro mc --emit-trace``, and a
file without one is refused."""

import json
from pathlib import Path

import pytest

from repro.analysis.modelcheck import McConfig, emit_trace
from repro.api import RunConfig, run
from repro.cli import EXIT_USAGE, main
from repro.engine.core import default_hist_cap
from repro.harness.toys import IncrementalConstantProgram
from repro.policy import CostWindow
from repro.trace.events import EventLog, TraceHeader

GOLDEN_TRACE = Path(__file__).parent / "golden" / "jacobi_p4_fw1.jsonl"

PROGRAM = IncrementalConstantProgram(nprocs=2, iterations=3)

#: ``RunConfig`` settings -> the header the run must record.
CASES = {
    "default": (
        {"fw": 2},
        TraceHeader(p=2, iterations=3, max_fw=2,
                    hist_cap=default_hist_cap(PROGRAM)),
    ),
    "explicit-bw": ({"fw": 1, "bw": 5}, TraceHeader(2, 3, 1, 5)),
    "adaptive": (
        {"fw": 1, "window_policy": CostWindow(max_fw=3)},
        TraceHeader(2, 3, 3, default_hist_cap(PROGRAM)),
    ),
    "receive-driven": (
        {"receive_driven": True},
        TraceHeader(2, 3, 0, default_hist_cap(PROGRAM)),
    ),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("backend", ["des", "loopback", "mp"])
def test_header_is_the_runs_config(backend, case):
    settings, header = CASES[case]
    report = run(RunConfig(PROGRAM, backend=backend, record_trace=True,
                           timeout=60, **settings))
    assert report.event_log.header == header
    assert len(report.event_log) > 0


@pytest.mark.parametrize(
    "config, max_fw",
    [
        (McConfig(p=2, fw=1, bw=1, iters=3), 1),
        (McConfig(p=3, fw=0, bw=2, iters=2), 0),
        (McConfig(p=2, fw=1, bw=0, iters=3, window="cost"), 2),
    ],
    ids=["static", "blocking", "cost-window"],
)
def test_emitted_counterexample_header_is_its_mc_config(config, max_fw, tmp_path):
    path = tmp_path / "ce.jsonl"
    emit_trace(config, [], path)
    assert EventLog.load(path).header == TraceHeader(
        p=config.p, iterations=config.iters, max_fw=max_fw,
        hist_cap=config.bw + 2,
    )


def test_cli_mc_emit_trace_records_the_header(tmp_path, capsys):
    trace = tmp_path / "ce.jsonl"
    assert main([
        "mc", "--p", "2", "--fw", "1", "--bw", "2", "--iters", "3",
        "--mutate", "no-seq-floor", "--emit-trace", str(trace),
    ]) == 1
    capsys.readouterr()
    assert EventLog.load(trace).header == TraceHeader(2, 3, 1, 4)


def test_save_load_round_trip(tmp_path):
    log = EventLog(header=TraceHeader(p=3, iterations=7, max_fw=2, hist_cap=5))
    log.record("send", 0, 0.5, 1, "vars", 1)
    log.record("compute", 2, 1.0, iteration=1, args=(0, 2))
    path = tmp_path / "trace.jsonl"
    log.save(path)
    first = json.loads(path.read_text().splitlines()[0])
    assert first == {
        "format": 2, "p": 3, "iterations": 7, "max_fw": 2, "hist_cap": 5,
    }
    loaded = EventLog.load(path)
    assert loaded.header == log.header
    assert loaded.events == sorted(log.events)


def test_a_log_without_a_header_is_not_saved(tmp_path):
    with pytest.raises(ValueError, match="header"):
        EventLog().save(tmp_path / "trace.jsonl")


def test_a_file_without_a_header_is_a_usage_error(tmp_path, capsys):
    """A headerless file (the events alone) has no reader left."""
    events = tmp_path / "events.jsonl"
    events.write_text("".join(GOLDEN_TRACE.read_text().splitlines(True)[1:]))
    with pytest.raises(ValueError, match="header"):
        EventLog.load(events)
    good = Path(__file__).parent / "specflow_fixtures" / "good_protocol.py"
    assert main(["analyze", str(good), "--trace", str(events)]) == EXIT_USAGE
    assert "cannot read trace" in capsys.readouterr().err


def test_a_record_whose_args_do_not_fit_its_kind_is_a_usage_error(
    tmp_path, capsys
):
    """Each kind carries what its sanitizer hook reads; a file whose
    ``compute`` record lacks ``(verified_upto, fw)`` cannot be replayed."""
    lines = GOLDEN_TRACE.read_text().splitlines(True)
    assert '"args": [0, 1], ' in lines[1]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(lines[0] + lines[1].replace('"args": [0, 1], ', ""))
    with pytest.raises(ValueError, match="'compute' record carries args"):
        EventLog.load(bad)
    good = Path(__file__).parent / "specflow_fixtures" / "good_protocol.py"
    assert main(["analyze", str(good), "--trace", str(bad)]) == EXIT_USAGE
    assert "cannot read trace" in capsys.readouterr().err
