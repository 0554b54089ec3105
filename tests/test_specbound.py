"""Tests for specbound: the occupancy bound table, the SPB rule pack,
trace-validated occupancy contracts, the EventLog cap, and the
``repro bounds`` / ``repro check`` CLIs."""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CONFIRMED, REFUTED, UNOBSERVED, Severity, TraceView
from repro.analysis.baselines import load_baselines
from repro.analysis.bounds import (
    OCCUPANCY_BOUNDS,
    check_occupancy,
    observed_cascade_depth,
    observed_inbox_depths,
    observed_inflight_sends,
)
from repro.analysis.linter import parse_suppressions
from repro.analysis.tools import TOOLS
from repro.api import RunConfig, run
from repro.apps.jacobi import JacobiSolver, diagonally_dominant_system
from repro.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.core.speculators import PolynomialExtrapolation
from repro.engine.core import default_hist_cap
from repro.trace.events import EventLog, TraceHeader

from tests.toy_programs import CoupledIncrement

SPECBOUND = next(tool for tool in TOOLS if tool.name == "specbound")
analyze_paths = SPECBOUND.analyze_paths
analyze_source = SPECBOUND.analyze_source

FIXTURES = Path(__file__).parent / "specbound_fixtures"
SRC = Path(__file__).parent.parent / "src"

ALL_CODES = ["SPB402", "SPB405", "SPB406", "SPB407", "SPB408"]


def _codes_of(path):
    return [d.code for d in analyze_paths([path])]


# --------------------------------------------------------------- registry


def test_all_spb_rules_registered():
    assert list(SPECBOUND.rules) == ALL_CODES
    for code in ALL_CODES:
        assert SPECBOUND.rules[code].severity is Severity.WARNING


# --------------------------------------------------------------- fixtures


@pytest.mark.parametrize(
    "name, code",
    [
        ("bad_literal_trim.py", "SPB402"),
        ("bad_unclamped_widen.py", "SPB405"),
        ("bad_event_buffer.py", "SPB406"),
        ("bad_unguarded_cascade.py", "SPB407"),
        ("bad_iteration_dict.py", "SPB408"),
    ],
)
def test_each_bad_fixture_fires_only_its_rule(name, code):
    assert _codes_of(FIXTURES / name) == [code]


@pytest.mark.parametrize(
    "name", ["good_ring_window.py", "good_trimmed_inbox.py"]
)
def test_good_fixtures_are_clean(name):
    assert _codes_of(FIXTURES / name) == []


def test_whole_fixture_dir_fires_every_rule():
    codes = {d.code for d in analyze_paths([FIXTURES])}
    assert codes == set(ALL_CODES)


def test_select_restricts_rules():
    diags = analyze_paths([FIXTURES], select=["SPB405"])
    assert {d.code for d in diags} == {"SPB405"}


def test_suppression_directive_silences_a_finding():
    source = (FIXTURES / "bad_event_buffer.py").read_text()
    assert [d.code for d in analyze_source(source, path="<t>")] == ["SPB406"]
    silenced = source.replace(
        "self.events.append((src, t, block))",
        "self.events.append((src, t, block))  # specbound: disable=SPB406",
    )
    assert analyze_source(silenced, path="<t>") == []


def test_any_family_spelling_carries_spb_codes():
    source = "x = 1  # speclint: disable=SPB408\n# spectaint: disable-file=SPB407\n"
    per_line, file_wide = parse_suppressions(source)
    assert per_line == {1: {"SPB408"}}
    assert file_wide == {"SPB407"}


@pytest.mark.parametrize(
    "clamp, fires",
    [
        ("    def cap():\n        return max_fw\n", True),
        ("    cap = lambda: max_fw\n", False),
        ("    class Limits:\n        cap = max_fw\n", False),
    ],
    ids=["nested-def", "lambda", "class-body"],
)
def test_spb405_clamp_scope(clamp, fires):
    """A ``max_fw`` in a nested ``def`` is another function's clamp;
    one in a lambda or a class body is this function's."""
    source = f"def widen(fw):\n{clamp}    return fw + 1\n"
    codes = [d.code for d in analyze_source(source, path="<t>")]
    assert codes == (["SPB405"] if fires else [])


def test_syntax_error_yields_spb000():
    diags = analyze_source("def broken(:\n", path="<t>")
    assert [d.code for d in diags] == ["SPB000"]


def test_src_tree_is_clean():
    assert analyze_paths([SRC]) == []


def test_analysis_is_deterministic_over_fixtures():
    assert analyze_paths([FIXTURES]) == analyze_paths([FIXTURES])


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
        log.record_message("send", 0, base, peer=1, tag=("vars", t))
        log.record_message("send", 1, base, peer=0, tag=("vars", t))
        log.record_message("recv", 0, base + 0.4, peer=1, tag=("vars", t))
        log.record_message("recv", 1, base + 0.4, peer=0, tag=("vars", t))
    log.record("correct", 0, 4.0, peer=1, family="vars", iteration=3,
               args=(3,))
    return log


def _flooded_log(depth=5):
    """Rank 0 fires `depth` sends at rank 1 before a single recv."""
    log = EventLog(header=HEADER)
    for t in range(1, depth + 1):
        log.record_message("send", 0, float(t), peer=1, tag=("vars", t))
    log.record_message("recv", 1, float(depth + 1), peer=0, tag=("vars", 1))
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
    log.record_message("send", 0, 1.0, peer=1, tag=("vars", 1))
    log.record_message("send", 0, 2.0, peer=1, tag=("barrier", 1))
    log.record_message("recv", 1, 3.0, peer=0, tag=("vars", 1))
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


# ------------------------------------------------------------ EventLog cap


def test_event_log_cap_drops_newest_and_counts():
    log = EventLog(max_events=3)
    for t in range(5):
        log.record("compute", 0, float(t), iteration=t, args=(t, 1))
    assert len(log) == 3
    assert log.dropped == 2
    # The stored prefix keeps contiguous per-rank sequence numbers.
    assert [ev.seq for ev in log.for_rank(0)] == [0, 1, 2]
    assert [ev.iteration for ev in log.for_rank(0)] == [0, 1, 2]


def test_event_log_extend_respects_cap():
    source = EventLog()
    for t in range(4):
        source.record("compute", 1, float(t), iteration=t, args=(t, 1))
    capped = EventLog(max_events=2)
    capped.extend(source.events)
    assert len(capped) == 2 and capped.dropped == 2


def test_event_log_summary_shape():
    log = EventLog(max_events=8)
    log.record_message("send", 0, 1.0, peer=1, tag=("vars", 1))
    log.record_message("recv", 1, 1.5, peer=0, tag=("vars", 1))
    log.record("compute", 0, 2.0, iteration=1, args=(1, 1))
    assert log.summary() == {
        "events": 3,
        "ranks": [0, 1],
        "kinds": {"compute": 1, "recv": 1, "send": 1},
        "max_events": 8,
        "dropped": 0,
    }


def test_event_log_negative_cap_rejected():
    with pytest.raises(ValueError, match="max_events"):
        EventLog(max_events=-1)


def test_event_log_uncapped_is_unchanged(tmp_path):
    log = _healthy_log()
    assert log.max_events is None and log.dropped == 0
    path = tmp_path / "trace.jsonl"
    log.save(path)
    reloaded = EventLog.load(path)
    assert reloaded.events == sorted(log.events)
    assert reloaded.summary()["dropped"] == 0


# --------------------------------------------------------------------- CLI


def test_cli_bounds_exit_codes():
    assert main(["bounds", str(FIXTURES)]) == EXIT_FINDINGS
    assert main(["bounds", str(FIXTURES / "good_ring_window.py")]) == EXIT_CLEAN
    assert main(["bounds", "no/such/path.py"]) == EXIT_USAGE


def test_cli_bounds_json_document(capsys):
    assert main(["bounds", str(FIXTURES), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "specbound"
    assert set(ALL_CODES) <= set(doc["rules"])
    assert doc["summary"]["total"] >= len(ALL_CODES)


def test_cli_bounds_sarif_document(capsys):
    assert main(["bounds", str(FIXTURES), "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "specbound"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == set(ALL_CODES)
    for result in run["results"]:
        assert "speclint/v1" in result["partialFingerprints"]


def test_cli_bounds_baseline_flow(tmp_path):
    baseline = tmp_path / "baselines.json"
    assert main(
        ["bounds", str(FIXTURES), "--write-baseline", str(baseline)]
    ) == EXIT_CLEAN
    assert "specbound" in load_baselines(baseline)
    assert main(
        ["bounds", str(FIXTURES), "--baseline", str(baseline)]
    ) == EXIT_CLEAN
    assert main(
        ["bounds", str(FIXTURES), "--baseline", str(tmp_path / "none.json")]
    ) == EXIT_USAGE


def test_cli_bounds_trace_contracts(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _healthy_log().save(trace)
    assert main(
        [
            "bounds", str(FIXTURES / "good_ring_window.py"),
            "--trace", str(trace),
        ]
    ) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "occupancy contracts:" in out
    assert "CONFIRMED" in out and "REFUTED" not in out

    flooded = tmp_path / "flooded.jsonl"
    _flooded_log(depth=5).save(flooded)
    assert main(
        [
            "bounds", str(FIXTURES / "good_ring_window.py"),
            "--trace", str(flooded),
        ]
    ) == EXIT_FINDINGS  # a refuted contract gates even a clean tree
    assert "REFUTED" in capsys.readouterr().out

    assert main(
        ["bounds", str(FIXTURES), "--trace", str(tmp_path / "nope.jsonl")]
    ) == EXIT_USAGE


def test_cli_check_exit_parity_with_bounds(capsys):
    dirty = str(FIXTURES / "bad_unclamped_widen.py")
    clean = str(FIXTURES / "good_trimmed_inbox.py")
    assert main(["check", dirty]) == main(["bounds", dirty]) == EXIT_FINDINGS
    assert main(["check", clean]) == main(["bounds", clean]) == EXIT_CLEAN
    capsys.readouterr()


def test_cli_check_merged_sarif_includes_specbound(tmp_path, capsys):
    sarif = tmp_path / "merged.sarif"
    assert main(["check", str(FIXTURES), "--sarif", str(sarif)]) == 1
    capsys.readouterr()
    doc = json.loads(sarif.read_text())
    names = [r["tool"]["driver"]["name"] for r in doc["runs"]]
    assert names == [
        "specbound", "specflow", "speclint", "specperf", "spectaint"
    ]
    spb_run = doc["runs"][names.index("specbound")]
    assert {r["ruleId"] for r in spb_run["results"]} == set(ALL_CODES)


def test_cli_check_stats_lines(capsys):
    assert main(
        ["check", str(FIXTURES / "good_ring_window.py"), "--stats"]
    ) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "repro check stats:" in out
    assert "1 file(s)" in out
    for tool in ("specbound", "specflow", "speclint", "specperf", "spectaint"):
        assert tool in out


def test_cli_check_stats_json(capsys):
    assert main(
        ["check", str(FIXTURES / "good_ring_window.py"), "--stats",
         "--format", "json"]
    ) == EXIT_CLEAN
    doc = json.loads(capsys.readouterr().out)
    stats = doc["stats"]
    assert stats["files_parsed"] == 1
    assert stats["syntax_failures"] == 0
    assert set(stats["tool_seconds"]) == {
        "specbound", "specflow", "speclint", "specperf", "spectaint"
    }
