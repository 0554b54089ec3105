"""Tests for specbound: phase attribution, the occupancy bound table,
the SPB and SPP rule pack, trace-validated occupancy and phase-cost
contracts, the EventLog cap, and the ``repro bounds`` / ``repro check``
CLIs."""

import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CONFIRMED, REFUTED, UNOBSERVED, Severity, TraceView
from repro.analysis.bounds import (
    OCCUPANCY_BOUNDS,
    PHASE_OF_RULE,
    check_contracts,
    check_occupancy,
    measure_phase_shares,
    model_phase_shares,
    observed_cascade_depth,
    observed_inbox_depths,
    observed_inflight_sends,
)
from repro.analysis.bounds.attribution import HOT_SEATS, build_attribution
from repro.analysis.bounds.contracts import observed_phases
from repro.analysis.cfg import CallGraph, ModuleGraphs
from repro.analysis.linter import parse_suppressions
from repro.analysis.program import ProgramIndex
from repro.analysis.tools import TOOLS
from repro.api import RunConfig, run
from repro.apps.jacobi import JacobiSolver, diagonally_dominant_system
from repro.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.core.speculators import PolynomialExtrapolation
from repro.engine.core import default_hist_cap
from repro.trace.events import EventLog, TraceHeader
from repro.trace.phases import PHASES

from tests.toy_programs import CoupledIncrement

SPECBOUND = next(tool for tool in TOOLS if tool.name == "specbound")


def analyze_source(tmp_path, source, name="t.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return SPECBOUND.analyze(ProgramIndex([path]))


def analyze_paths(paths):
    return SPECBOUND.analyze(ProgramIndex(paths))


FIXTURES = Path(__file__).parent / "specbound_fixtures"
SRC = Path(__file__).parent.parent / "src"

SPB_CODES = ["SPB405", "SPB406", "SPB408"]
SPP_CODES = ["SPP204"]
ALL_CODES = SPB_CODES + SPP_CODES


def _codes_of(path):
    return [d.code for d in analyze_paths([path])]


# --------------------------------------------------------------- registry


def test_all_spp_rules_registered():
    assert list(PHASE_OF_RULE) == SPP_CODES
    for code in SPP_CODES:
        assert SPECBOUND.rules[code].severity in (Severity.ERROR, Severity.WARNING)
        assert PHASE_OF_RULE[code] in PHASES


# ------------------------------------------------------------ attribution


def _attribution(source, path="<fixture>"):
    module = ModuleGraphs.from_source(source, path=path)
    return module, build_attribution(CallGraph([module]))


def test_attribution_seeds_by_terminal_name():
    module, attr = _attribution(
        "def send(proc, dst, value):\n"
        "    pass\n"
        "def compute(state):\n"
        "    pass\n"
    )
    assert attr.phases_of(("<fixture>", "send")) == {"send"}
    assert attr.phases_of(("<fixture>", "compute")) == {"compute"}


def test_attribution_propagates_caller_to_callee():
    module, attr = _attribution(
        "def helper(x):\n"
        "    return x + 1\n"
        "def compute(state):\n"
        "    return helper(state)\n"
        "def unrelated(x):\n"
        "    return x\n"
    )
    assert "compute" in attr.phases_of(("<fixture>", "helper"))
    assert attr.phases_of(("<fixture>", "unrelated")) == frozenset()


def test_attribution_is_transitive_and_merges_phases():
    module, attr = _attribution(
        "def deep(x):\n"
        "    return x\n"
        "def helper(x):\n"
        "    return deep(x)\n"
        "def compute(state):\n"
        "    return helper(state)\n"
        "def verify(a, b):\n"
        "    return helper(a) == b\n"
    )
    assert attr.phases_of(("<fixture>", "deep")) == {"compute", "check"}


def test_attribution_ignores_generic_container_names():
    # `extend` is a defined function AND a list method name: the call
    # edge through `.extend` must not leak the compute phase into it.
    module, attr = _attribution(
        "def extend(log, events):\n"
        "    log.events += events\n"
        "def compute(state, out):\n"
        "    out.extend(state)\n"
    )
    assert attr.phases_of(("<fixture>", "extend")) == frozenset()


def test_every_hot_seat_is_defined_in_the_package():
    # Seats are matched by terminal name, so a renamed or moved per-rank
    # entry point would silently drop out of the hot set.
    defined = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
    assert not HOT_SEATS - defined, sorted(HOT_SEATS - defined)


def test_hot_reachability_from_run_seat():
    module, attr = _attribution(
        "def kernel(x):\n"
        "    return x * 2\n"
        "def run(state):\n"
        "    return kernel(state)\n"
        "def cold(x):\n"
        "    return x\n"
    )
    assert attr.is_hot(("<fixture>", "kernel"))
    assert not attr.is_hot(("<fixture>", "cold"))


# --------------------------------------------------------------- fixtures


@pytest.mark.parametrize(
    "name, code",
    [
        ("bad_unclamped_widen.py", "SPB405"),
        ("bad_event_buffer.py", "SPB406"),
        ("bad_iteration_dict.py", "SPB408"),
        ("bad_spp204_ringscan.py", "SPP204"),
    ],
)
def test_each_bad_fixture_fires_only_its_rule(name, code):
    assert _codes_of(FIXTURES / name) == [code]


@pytest.mark.parametrize(
    "name", ["good_ring_window.py", "good_trimmed_inbox.py", "good_hot_path.py"]
)
def test_good_fixtures_are_clean(name):
    assert _codes_of(FIXTURES / name) == []


def test_whole_fixture_dir_fires_every_rule():
    codes = {d.code for d in analyze_paths([FIXTURES])}
    assert codes == set(ALL_CODES)


def test_any_family_spelling_carries_spb_codes():
    source = "x = 1  # speclint: disable=SPB408\n# spectaint: disable-file=SPB405\n"
    per_line, file_wide = parse_suppressions(source)
    assert per_line == {1: {"SPB408"}}
    assert file_wide == {"SPB405"}


@pytest.mark.parametrize(
    "clamp, fires",
    [
        ("    def cap():\n        return max_fw\n", True),
        ("    cap = lambda: max_fw\n", False),
        ("    class Limits:\n        cap = max_fw\n", False),
    ],
    ids=["nested-def", "lambda", "class-body"],
)
def test_spb405_clamp_scope(tmp_path, clamp, fires):
    """A ``max_fw`` in a nested ``def`` is another function's clamp;
    one in a lambda or a class body is this function's."""
    source = f"def widen(fw):\n{clamp}    return fw + 1\n"
    codes = [d.code for d in analyze_source(tmp_path, source)]
    assert codes == (["SPB405"] if fires else [])


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


# ---------------------------------------------------------- cost contracts


def _synthetic_log(header=TraceHeader(p=2, iterations=2, max_fw=1, hist_cap=4),
                   verify=True, check_end=10.5):
    """Two ranks; rank 0: compute-heavy, rank 1: waits on a recv."""
    log = EventLog(header=header)
    # rank 0: send at t=0, compute 0->10, verify at 10, next compute.
    log.record("send", 0, 0.0, peer=1, family="vars", iteration=0)
    log.record("compute", 0, 0.0, iteration=0, args=(0, 1))
    if verify:
        log.record("verify", 0, 10.0, peer=1, family="vars", iteration=0)
    log.record("compute", 0, check_end, iteration=1, args=(0, 1))
    # rank 1: blocked on the message from t=0 to t=4.
    log.record("send", 1, 0.0, peer=0, family="vars", iteration=0)
    log.record("recv", 1, 4.0, peer=0, family="vars", iteration=0)
    log.record("compute", 1, 4.0, iteration=0, args=(0, 1))
    log.record("compute", 1, 9.0, iteration=1, args=(0, 1))
    return log


def test_measure_phase_shares_attributes_gaps():
    shares = measure_phase_shares(TraceView(_synthetic_log()))
    assert shares["compute"] == pytest.approx(15.0 / 19.5)
    assert shares["comm"] == pytest.approx(4.0 / 19.5)
    assert shares["check"] == pytest.approx(0.5 / 19.5)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_measure_phase_shares_empty_log_is_all_zero():
    shares = measure_phase_shares(TraceView(EventLog()))
    assert set(shares) == set(PHASES)
    assert all(v == 0.0 for v in shares.values())


def test_observed_phases_follow_event_kinds():
    assert observed_phases(TraceView(_synthetic_log())) == {"compute", "comm", "check"}


def test_model_phase_shares_normalise_and_degenerate_to_serial():
    shares = model_phase_shares(8)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["compute"] > 0
    serial = model_phase_shares(1)
    assert serial["compute"] == 1.0
    assert serial["comm"] == 0.0


def test_check_contracts_verdict_statuses():
    diags = analyze_paths([FIXTURES])
    measured, modeled, verdicts = check_contracts(
        diags, TraceView(_synthetic_log())
    )
    assert [v.rule for v in verdicts] == SPP_CODES
    # check measured within TOL of the model's budget: refuted.
    assert verdicts[0].status == REFUTED
    # A verification four units long overruns the check budget: confirmed.
    measured, modeled, verdicts = check_contracts(
        diags, TraceView(_synthetic_log(check_end=14.0))
    )
    (spp204,) = verdicts
    assert spp204.status == CONFIRMED
    line = spp204.format_text()
    assert line.startswith("cost-contract SPP204 [check]: CONFIRMED — measured ")
    assert spp204.observed == measured["check"]
    assert spp204.bound == modeled["check"]
    # No verify event: the check phase never ran, so it is unobserved.
    _m, _b, unverified = check_contracts(
        diags, TraceView(_synthetic_log(verify=False))
    )
    assert {v.rule: v.status for v in unverified}["SPP204"] == UNOBSERVED


def test_check_contracts_is_deterministic():
    diags = analyze_paths([FIXTURES])
    view = TraceView(_synthetic_log())
    a = check_contracts(diags, view)
    b = check_contracts(diags, view)
    assert a == b


@pytest.mark.parametrize("p", [2, 16, 20])
def test_share_table_names_the_p_the_budget_was_evaluated_at(p, tmp_path, capsys):
    """The model covers p <= 16: a wider trace is judged at 16, and the
    table says so; a trace it covers prints the plain header."""
    trace = tmp_path / "trace.jsonl"
    _synthetic_log(TraceHeader(p=p, iterations=2, max_fw=1, hist_cap=4)).save(trace)
    main(["bounds", str(FIXTURES / "bad_spp204_ringscan.py"), "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if line.startswith("phase "))
    if p <= 16:
        assert header == "phase      measured    model"
    else:
        assert header == f"phase      measured    model at p=16 (trace p={p})"


# ------------------------------------------------------------ EventLog cap


def test_event_log_cap_drops_newest_and_counts():
    log = EventLog(max_events=3)
    for t in range(5):
        log.record("compute", 0, float(t), iteration=t, args=(t, 1))
    assert len(log) == 3
    assert log.dropped == 2
    # The stored prefix keeps contiguous per-rank sequence numbers.
    assert [(ev.rank, ev.seq, ev.iteration) for ev in log] == [(0, 0, 0), (0, 1, 1), (0, 2, 2)]


def test_event_log_extend_respects_cap():
    source = EventLog()
    for t in range(4):
        source.record("compute", 1, float(t), iteration=t, args=(t, 1))
    capped = EventLog(max_events=2)
    capped.extend(source.events)
    assert len(capped) == 2 and capped.dropped == 2


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
    assert reloaded.dropped == 0


# --------------------------------------------------------------------- CLI


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


def test_cli_bounds_trace_reports_both_contract_sets(tmp_path, capsys):
    """Occupancy first, then the cost share table and cost verdicts; a
    CONFIRMED cost overrun fails the run as a REFUTED bound does."""
    trace = tmp_path / "trace.jsonl"
    _synthetic_log(check_end=14.0).save(trace)
    assert main(["bounds", str(FIXTURES), "--trace", str(trace)]) == EXIT_FINDINGS
    lines = capsys.readouterr().out.splitlines()
    occupancy = [i for i, line in enumerate(lines) if line.startswith("occupancy-contract")]
    costs = [i for i, line in enumerate(lines) if line.startswith("cost-contract")]
    table = lines.index("phase      measured    model")
    assert occupancy and costs and occupancy[-1] < table < costs[0]
    assert "cost-contract SPP204 [check]: CONFIRMED" in "\n".join(lines)
    # A clean tree + trace: nothing to cross-reference, exit 0.
    clean = str(FIXTURES / "good_hot_path.py")
    assert main(["bounds", clean, "--trace", str(trace)]) == EXIT_CLEAN
    assert "no static SPP findings" in capsys.readouterr().out
    assert main(["bounds", clean, "--select", "SPP204"]) == EXIT_CLEAN
    assert main(["bounds", clean, "--select", "SPP201"]) == EXIT_USAGE
    capsys.readouterr()


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
    assert names == ["specbound", "specflow", "speclint", "spectaint"]
    spb_run = doc["runs"][names.index("specbound")]
    assert {r["ruleId"] for r in spb_run["results"]} == set(ALL_CODES)


def test_cli_check_stats_lines(capsys):
    assert main(
        ["check", str(FIXTURES / "good_ring_window.py"), "--stats"]
    ) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "repro check stats:" in out
    assert "1 file(s)" in out
    for tool in ("specbound", "specflow", "speclint", "spectaint"):
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
        "specbound", "specflow", "speclint", "spectaint"
    }
