"""Tests for specperf: attribution, the SPP rule pack, suppressions,
cost contracts and the ``repro perf-lint`` CLI."""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import CONFIRMED, REFUTED, UNOBSERVED, Severity, TraceView
from repro.analysis.cfg import CallGraph, ModuleGraphs
from repro.analysis.perf import (
    build_attribution,
    check_contracts,
    measure_phase_shares,
    model_phase_shares,
)
from repro.analysis.perf.attribution import HOT_SEATS
from repro.analysis.perf.contracts import PHASE_OF_RULE, observed_phases
from repro.analysis.tools import TOOLS
from repro.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.trace.events import EventLog
from repro.trace.phases import PHASES

SPECPERF = next(tool for tool in TOOLS if tool.name == "specperf")
analyze_paths = SPECPERF.analyze_paths
analyze_source = SPECPERF.analyze_source

FIXTURES = Path(__file__).parent / "specperf_fixtures"
SRC = Path(__file__).parent.parent / "src"

ALL_CODES = [f"SPP20{i}" for i in (1, 2, 3, 4, 5, 7, 8)]


def _attribution(source, path="<fixture>"):
    module = ModuleGraphs.from_source(source, path=path)
    return module, build_attribution(CallGraph([module]))


# --------------------------------------------------------------- registry


def test_all_spp_rules_registered():
    assert list(SPECPERF.rules) == ALL_CODES
    for code in ALL_CODES:
        assert SPECPERF.rules[code].severity in (Severity.ERROR, Severity.WARNING)
        assert PHASE_OF_RULE[code] in PHASES


# ------------------------------------------------------------ attribution


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


# -------------------------------------------------------------- rule pack


@pytest.mark.parametrize("code", ALL_CODES)
def test_each_rule_fires_exactly_once_on_its_fixture(code):
    fixture = next(FIXTURES.glob(f"bad_{code.lower()}_*.py"))
    diagnostics = analyze_paths([fixture])
    assert [d.code for d in diagnostics] == [code]
    assert diagnostics[0].path == str(fixture)


def test_good_fixture_is_clean():
    assert analyze_paths([FIXTURES / "good_hot_path.py"]) == []


def test_whole_fixture_dir_yields_one_finding_per_rule():
    diagnostics = analyze_paths([FIXTURES])
    assert sorted(d.code for d in diagnostics) == ALL_CODES


def test_spp201_respects_immutability_guard():
    clean = (
        "import copy\n"
        "def _is_immutable(v):\n"
        "    return isinstance(v, tuple)\n"
        "def isolate_payload(v):\n"
        "    if _is_immutable(v):\n"
        "        return v\n"
        "    return copy.deepcopy(v)\n"
    )
    assert analyze_source(clean) == []


def test_spp201_fires_on_pre_fastpath_isolate_payload():
    # A deep copy on every send: isolate_payload before its fast path.
    legacy = (
        "import copy\n"
        "def isolate_payload(value):\n"
        "    return copy.deepcopy(value)\n"
    )
    diags = analyze_source(legacy)
    assert [d.code for d in diags] == ["SPP201"]
    assert diags[0].severity is Severity.ERROR


def test_select_restricts_rules():
    diags = analyze_paths([FIXTURES], select=["SPP203"])
    assert [d.code for d in diags] == ["SPP203"]


def test_suppression_directive_silences_a_finding():
    source = (
        "import copy\n"
        "def isolate_payload(value):\n"
        "    return copy.deepcopy(value)  # specperf: disable=SPP201\n"
    )
    assert analyze_source(source) == []
    file_wide = "# specperf: disable-file=SPP201\n" + (
        "import copy\n"
        "def isolate_payload(value):\n"
        "    return copy.deepcopy(value)\n"
    )
    assert analyze_source(file_wide) == []


def test_syntax_error_yields_spp000():
    diags = analyze_source("def broken(:\n")
    assert [d.code for d in diags] == ["SPP000"]


def test_src_tree_is_clean():
    assert analyze_paths([SRC]) == []


def test_analysis_is_deterministic_over_src():
    first = SPECPERF.render(analyze_paths([SRC]), "json")
    second = SPECPERF.render(analyze_paths([SRC]), "json")
    assert first == second


# ---------------------------------------------------------- cost contracts


def _synthetic_log():
    """Two ranks; rank 0: compute-heavy, rank 1: waits on a recv."""
    log = EventLog()
    # rank 0: send at t=0, compute 0->10, verify at 10, next compute.
    log.record("send", 0, 0.0, peer=1, family="vars", iteration=0)
    log.record("compute", 0, 0.0, iteration=0)
    log.record("verify", 0, 10.0, peer=1, family="vars", iteration=0)
    log.record("compute", 0, 10.5, iteration=1)
    # rank 1: blocked on the message from t=0 to t=4.
    log.record("send", 1, 0.0, peer=0, family="vars", iteration=0)
    log.record("recv", 1, 4.0, peer=0, family="vars", iteration=0)
    log.record("compute", 1, 4.0, iteration=0)
    log.record("compute", 1, 9.0, iteration=1)
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
        diags, TraceView(_synthetic_log()), p=2
    )
    by_code = {v.rule: v for v in verdicts}
    assert set(by_code) == set(ALL_CODES)
    # comm measured ~20.5% vs model 0% exposed comm at p=2: confirmed.
    assert by_code["SPP201"].status == CONFIRMED
    # spec/correct never appear in the synthetic log: unobserved.
    assert by_code["SPP202"].status == UNOBSERVED
    # compute measured below the model's budget: refuted.
    assert by_code["SPP203"].status == REFUTED
    line = by_code["SPP201"].format_text()
    assert line.startswith("cost-contract SPP201 [comm]: CONFIRMED — measured ")
    assert by_code["SPP201"].observed == measured["comm"]
    assert by_code["SPP201"].bound == modeled["comm"]


def test_check_contracts_is_deterministic():
    diags = analyze_paths([FIXTURES])
    view = TraceView(_synthetic_log())
    a = check_contracts(diags, view, p=2)
    b = check_contracts(diags, view, p=2)
    assert a == b


# -------------------------------------------------------------------- CLI


def test_cli_perf_lint_exit_codes():
    assert main(["perf-lint", str(FIXTURES)]) == EXIT_FINDINGS
    assert main(["perf-lint", str(FIXTURES / "good_hot_path.py")]) == EXIT_CLEAN
    assert main(["perf-lint", "no/such/path.py"]) == EXIT_USAGE


def test_cli_perf_lint_json_document(capsys):
    assert main(["perf-lint", str(FIXTURES), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "specperf"
    assert doc["summary"]["total"] == 7
    assert set(ALL_CODES) <= set(doc["rules"])


def test_cli_perf_lint_sarif_document(capsys):
    assert main(["perf-lint", str(FIXTURES), "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "specperf"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert set(ALL_CODES) <= rule_ids
    assert len(run["results"]) == 7
    for result in run["results"]:
        assert "speclint/v1" in result["partialFingerprints"]


def test_cli_perf_lint_baseline_flow(tmp_path):
    baseline = tmp_path / "specperf-baseline.json"
    assert main(
        ["perf-lint", str(FIXTURES), "--write-baseline", str(baseline)]
    ) == EXIT_CLEAN
    assert main(
        ["perf-lint", str(FIXTURES), "--baseline", str(baseline)]
    ) == EXIT_CLEAN
    assert main(
        ["perf-lint", str(FIXTURES), "--baseline", str(tmp_path / "none.json")]
    ) == EXIT_USAGE


def test_cli_perf_lint_trace_contracts(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _synthetic_log().save(trace)
    assert main(["perf-lint", str(FIXTURES), "--trace", str(trace)]) == 1
    out = capsys.readouterr().out
    assert "cost-contract" in out
    assert "CONFIRMED" in out
    assert "phase      measured    model" in out
    # A clean tree + trace: nothing to cross-reference, exit 0.
    assert main(
        ["perf-lint", str(FIXTURES / "good_hot_path.py"), "--trace", str(trace)]
    ) == 0
    assert "no specperf findings" in capsys.readouterr().out
    assert main(
        ["perf-lint", str(FIXTURES), "--trace", str(tmp_path / "nope.jsonl")]
    ) == EXIT_USAGE


def test_cli_perf_lint_tol_flag_relaxes_confirmation(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _synthetic_log().save(trace)
    assert main(
        ["perf-lint", str(FIXTURES / "bad_spp203_alloc.py"),
         "--trace", str(trace), "--tol", "1.0"]
    ) == 1  # the static finding still fails the run
    out = capsys.readouterr().out
    assert "REFUTED" in out and "CONFIRMED" not in out
