"""Tests for the occupancy contracts: the bound table, the verdicts a
recorded trace draws, and ``repro analyze --trace``, which prints them
after the protocol verdicts; and ``repro check --stats``, which times
each family's pass."""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CONFIRMED, REFUTED, UNOBSERVED, TraceView
from repro.analysis.bounds import (
    OCCUPANCY_BOUNDS,
    check_occupancy,
    observed_cascade_depth,
    observed_inbox_depths,
    observed_inflight_sends,
)
from repro.analysis.tools import TOOLS
from repro.api import RunConfig, run
from repro.apps.jacobi import JacobiSolver, diagonally_dominant_system
from repro.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.core.speculators import PolynomialExtrapolation
from repro.engine.core import default_hist_cap
from repro.trace.events import EventLog, TraceHeader

from tests.toy_programs import CoupledIncrement

FIXTURES = Path(__file__).parent / "specflow_fixtures"
CLEAN = Path(__file__).parent / "speclint_fixtures" / "good_protocol.py"


# ------------------------------------------------------------ bound table


PARAMS = ("p", "fw", "iters")

ENVS = st.fixed_dictionaries(
    {
        "p": st.integers(min_value=1, max_value=16),
        "fw": st.integers(min_value=0, max_value=8),
        "iters": st.integers(min_value=1, max_value=64),
    }
)


def _bound(metric, env):
    _text, formula = OCCUPANCY_BOUNDS[metric]
    return formula(*(env[name] for name in PARAMS))


@given(env=ENVS)
@settings(max_examples=80, deadline=None)
def test_bound_constructors_match_reference_formulas(env):
    p, fw, iters = env["p"], env["fw"], env["iters"]
    assert _bound("inbox", env) == 2 * max(fw, 1)
    assert _bound("in-flight", env) == (p - 1) * 2 * max(fw, 1)
    assert _bound("cascade", env) == max(fw, 1)
    assert _bound("events", env) == p * iters * (6 + (p - 1) * (2 * fw + 6))


def test_expr_operator_sugar_and_render():
    assert {metric: text for metric, (text, _) in OCCUPANCY_BOUNDS.items()} == {
        "inbox": "2 * max(fw, 1)",
        "in-flight": "(p - 1) * 2 * max(fw, 1)",
        "cascade": "max(fw, 1)",
        "events": "p * iters * (6 + (p - 1) * (2 * fw + 6))",
    }


@given(env=ENVS, other=ENVS)
@settings(max_examples=80, deadline=None)
def test_expr_params_and_hashability(env, other):
    """A row's value moves only with the parameters its printed text
    names: the text and the formula cannot drift apart."""
    for metric, (text, _formula) in OCCUPANCY_BOUNDS.items():
        named = set(re.findall(r"[a-z]+", text))
        for name in PARAMS:
            if name not in named:
                assert _bound(metric, {**env, name: other[name]}) == _bound(
                    metric, env
                )


@pytest.mark.parametrize("bw", range(1, 9))
def test_history_ring_row_is_the_engines_default_capacity(bw):
    """The ring capacity a trace records is the one the engines had."""
    program = CoupledIncrement(
        2, 3, speculator=PolynomialExtrapolation(order=bw - 1)
    )
    report = run(RunConfig(program, backend="loopback", record_trace=True))
    assert report.event_log.header.hist_cap == default_hist_cap(program)


# --------------------------------------------------------------- contracts

#: The header of the hand-built two-rank logs below.
HEADER = TraceHeader(p=2, iterations=4, max_fw=1, hist_cap=4)


def _healthy_log():
    """Two ranks exchanging three tagged iterations, one correction."""
    log = EventLog(header=HEADER)
    for t in range(1, 4):
        base = float(t)
        log.record("send", 0, base, 1, "vars", t)
        log.record("send", 1, base, 0, "vars", t)
        log.record("recv", 0, base + 0.4, 1, "vars", t)
        log.record("recv", 1, base + 0.4, 0, "vars", t)
    log.record("correct", 0, 4.0, peer=1, family="vars", iteration=3,
               args=(3,))
    return log


def _flooded_log(depth=5):
    """Rank 0 fires `depth` sends at rank 1 before a single recv."""
    log = EventLog(header=HEADER)
    for t in range(1, depth + 1):
        log.record("send", 0, float(t), 1, "vars", t)
    log.record("recv", 1, float(depth + 1), 0, "vars", 1)
    return log


def test_healthy_log_confirms_every_contract():
    verdicts = check_occupancy(TraceView(_healthy_log()))
    # 2 per-rank metrics x 2 ranks + run-scoped cascade + events.
    assert len(verdicts) == 6
    assert {v.status for v in verdicts} == {CONFIRMED}


def test_flooded_inbox_refutes_the_fw_bound():
    verdicts = check_occupancy(TraceView(_flooded_log(depth=5)))
    by_key = {(v.rule, v.where): v for v in verdicts}
    inbox = by_key[("inbox", "[rank 1]")]
    assert inbox.status == REFUTED
    assert inbox.observed == 5 and inbox.bound == 2
    # The same flood shows up as the sender's in-flight excess.
    assert by_key[("in-flight", "[rank 0]")].status == REFUTED
    # A wide enough window would have made it legal.
    flood = _flooded_log(5)
    flood.header = dataclasses.replace(HEADER, max_fw=4)
    wide = {(v.rule, v.where): v for v in check_occupancy(TraceView(flood))}
    assert wide[("inbox", "[rank 1]")].status == CONFIRMED


def test_verdicts_keep_their_textual_order_past_ten_ranks():
    log = EventLog(header=dataclasses.replace(HEADER, p=11))
    for rank in range(11):
        log.record("compute", rank, 0.0, args=(0, 1))
    inbox = [
        v.where for v in check_occupancy(TraceView(log)) if v.rule == "inbox"
    ]
    assert inbox[:4] == ["[rank 0]", "[rank 1]", "[rank 10]", "[rank 2]"]


def test_untagged_log_is_unobserved_not_refuted():
    log = EventLog(header=HEADER)
    log.record("compute", 0, 0.0, args=(0, 1))
    by_rule = {v.rule: v for v in check_occupancy(TraceView(log))}
    # The header sizes the event envelope; nothing else was exercised.
    assert by_rule.pop("events").status == CONFIRMED
    assert {v.status for v in by_rule.values()} == {UNOBSERVED}
    assert all(v.observed == 0 for v in by_rule.values())


def test_observed_inbox_depth_is_per_family():
    log = EventLog()
    log.record("send", 0, 1.0, 1, "vars", 1)
    log.record("send", 0, 2.0, 1, "barrier", 1)
    log.record("recv", 1, 3.0, 0, "vars", 1)
    # One outstanding message per family, never two on one channel.
    view = TraceView(log)
    assert observed_inbox_depths(view) == {1: 1}
    assert observed_inflight_sends(view) == {0: 1}


def test_observed_cascade_depth_counts_consecutive_corrections():
    log = EventLog()
    args = {"correct": (0,), "compute": (0, 1)}
    for iteration, kind in enumerate(["correct", "correct", "compute", "correct"]):
        log.record(kind, 0, float(iteration), family="vars", iteration=iteration,
                   args=args[kind])
    assert observed_cascade_depth(TraceView(log)) == 2
    assert observed_cascade_depth(TraceView(EventLog())) is None


def test_verdict_format_text_shape():
    verdicts = check_occupancy(TraceView(_flooded_log(depth=5)))
    refuted = [v for v in verdicts if v.status == REFUTED]
    assert refuted[0].format_text() == (
        "occupancy-contract in-flight [rank 0]: REFUTED — "
        "observed 5 vs bound 2 = (p - 1) * 2 * max(fw, 1)"
    )


@pytest.mark.parametrize("cascade", ["recompute", "none"])
@pytest.mark.parametrize("fw", range(5))
@pytest.mark.parametrize("p", [2, 4])
def test_correct_runs_refute_no_occupancy_contract(p, fw, cascade):
    """At theta = 0 every speculation is rejected, so the window runs
    as far ahead as it may: inbox depth reaches the bound exactly."""
    a, b = diagonally_dominant_system(16, seed=3)
    program = JacobiSolver(a, b, capacities=[1000.0] * p, iterations=20,
                           threshold=0.0)
    report = run(RunConfig(program, backend="loopback", fw=fw,
                           cascade=cascade, record_trace=True))
    verdicts = check_occupancy(TraceView(report.event_log))
    assert [v.format_text() for v in verdicts if v.status == REFUTED] == []
    inbox = max(v.observed for v in verdicts if v.rule == "inbox")
    assert inbox == 2 * max(fw, 1)


# --------------------------------------------------------------------- CLI


def _drained_flood(depth=5):
    """:func:`_flooded_log`, after which rank 1 receives the rest: no
    message leaks, only the inbox outgrows its bound."""
    log = _flooded_log(depth)
    for t in range(2, depth + 1):
        log.record("recv", 1, float(depth + t), 0, "vars", t)
    return log


def test_cli_bounds_trace_contracts(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _healthy_log().save(trace)
    assert main(
        ["analyze", str(FIXTURES / "good_protocol.py"), "--trace", str(trace)]
    ) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "occupancy contracts:" in out
    assert "CONFIRMED" in out and "REFUTED" not in out

    assert main(
        ["analyze", str(FIXTURES), "--trace", str(tmp_path / "nope.jsonl")]
    ) == EXIT_USAGE


def test_cli_bounds_trace_reports_both_contract_sets(tmp_path, capsys):
    """The protocol verdicts first, then the occupancy verdicts."""
    trace = tmp_path / "trace.jsonl"
    _healthy_log().save(trace)
    assert main(
        ["analyze", str(FIXTURES / "bad_spf111_race.py"), "--trace", str(trace)]
    ) == EXIT_FINDINGS  # the static finding gates
    lines = capsys.readouterr().out.splitlines()
    protocol = [i for i, line in enumerate(lines)
                if line.startswith("protocol-contract")]
    header = next(i for i, line in enumerate(lines)
                  if line.startswith("occupancy contracts:"))
    occupancy = [i for i, line in enumerate(lines)
                 if line.startswith("occupancy-contract")]
    assert protocol and occupancy
    assert protocol[-1] < header < occupancy[0]
    assert len(occupancy) == 6  # inbox, in-flight x 2 ranks; cascade; events


def test_cli_analyze_trace_refutes_a_flooded_inbox(tmp_path, capsys):
    """A refuted bound alone fails a clean tree with a clean replay."""
    trace = tmp_path / "flooded.jsonl"
    _drained_flood(depth=5).save(trace)
    clean = str(FIXTURES / "good_protocol.py")
    assert main(["analyze", clean, "--trace", str(trace)]) == EXIT_FINDINGS
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if line.startswith("trace rank")]
    assert (
        "occupancy-contract inbox [rank 1]: REFUTED — "
        "observed 5 vs bound 2 = 2 * max(fw, 1)"
    ) in lines
    assert main(
        ["analyze", clean, "--format", "json", "--trace", str(trace)]
    ) == EXIT_FINDINGS
    doc = json.loads(capsys.readouterr().out)
    refuted = [line for line in doc["trace"]["report"] if ": REFUTED — " in line]
    assert doc["trace"]["failing"] == len(refuted) == 2  # inbox, in-flight


def test_cli_check_stats_lines(capsys):
    assert main(
        ["check", str(CLEAN), "--stats"]
    ) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "repro check stats:" in out
    assert "1 file(s)" in out
    for tool in TOOLS:
        assert tool.name in out


def test_cli_check_stats_json(capsys):
    assert main(
        ["check", str(CLEAN), "--stats",
         "--format", "json"]
    ) == EXIT_CLEAN
    doc = json.loads(capsys.readouterr().out)
    stats = doc["stats"]
    assert stats["files_parsed"] == 1
    assert stats["syntax_failures"] == 0
    assert set(stats["tool_seconds"]) == {tool.name for tool in TOOLS}
