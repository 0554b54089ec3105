"""Tests for spectaint: the taint lattice, the SPT rule pack,
commit-point annotations, trace-replay verdicts and the ``repro
taint`` / ``repro check`` CLIs."""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (
    CONFIRMED,
    REFUTED,
    UNOBSERVED,
    TraceView,
    cfg,
    taint,
)
from repro.analysis.cfg import CallGraph, ModuleGraphs
from repro.analysis.linter import parse_suppressions
from repro.analysis.program import ProgramIndex
from repro.analysis.taint import (
    commit_lines_of,
    declared_commit_points,
    solve_taint,
    unconfirmed,
)
from repro.analysis.taint import lattice
from repro.analysis.taint.lattice import COMMITTED, SPEC
from repro.analysis.tools import TOOLS
from repro.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.engine.core import COMMITS_ATTR, commits
from repro.trace.events import EventLog, TraceHeader

SPECTAINT = next(tool for tool in TOOLS if tool.name == "spectaint")


def analyze_source(source, path="<string>"):
    return SPECTAINT.analyze(ProgramIndex(sources={path: source}))


def analyze_paths(paths):
    return SPECTAINT.analyze(ProgramIndex(paths))


def find_escapes(log):
    return taint.find_escapes(TraceView(log))


def check_taint(diagnostics, log):
    """The verdicts alone; the witnesses are ``find_escapes``'s."""
    return taint.check_taint(diagnostics, TraceView(log))[1]


FIXTURES = Path(__file__).parent / "spectaint_fixtures"

ALL_CODES = ["SPT301", "SPT302"]


def _codes_of(path):
    return [d.code for d in analyze_paths([path])]


def _modules(*sources):
    return [
        ModuleGraphs.from_source(src, path=f"<m{i}>")
        for i, src in enumerate(sources)
    ]


# ---------------------------------------------------------------- lattice


def test_unconfirmed_is_spec_without_committed():
    assert unconfirmed(frozenset({SPEC}))
    assert not unconfirmed(frozenset({SPEC, COMMITTED}))
    assert not unconfirmed(frozenset())


def test_commit_lines_of_finds_directive():
    source = "x = 1\ny = guess  # spectaint: commit — justified\nz = 2\n"
    assert commit_lines_of(source) == frozenset({2})


def test_declared_commit_points_finds_decorator():
    modules = _modules(
        "def commits(f):\n    return f\n\n"
        "@commits\ndef adopt(store, v):\n    store.x = v\n"
    )
    assert ("<m0>", "adopt") in declared_commit_points(modules)


def test_commits_decorator_marks_function():
    @commits
    def adopt(value):
        return value

    assert getattr(adopt, COMMITS_ATTR) is True
    assert adopt(3) == 3  # the wrapper is the function itself

    def plain(value):
        return value

    assert not hasattr(plain, COMMITS_ATTR)


def test_summaries_propagate_returns_and_sinks():
    modules = _modules(
        "def emit(value):\n    print(value)\n\n"
        "def relay(value):\n    emit(value)\n\n"
        "def make(history):\n    return speculate(history)\n"
    )
    summaries = solve_taint(CallGraph(modules), frozenset(), {}).summaries
    assert summaries[("<m0>", "make")].returns_spec
    assert summaries[("<m0>", "emit")].sink_params == {0: "SPT301"}
    # The sink taints relay's parameter transitively.
    assert summaries[("<m0>", "relay")].sink_params == {0: "SPT301"}


def test_rule_pass_solves_nothing_the_fixpoint_did_not(monkeypatch):
    """``findings`` solves each non-``@commits`` function once per
    fixpoint round: the rule pass reads the final round's states."""
    solves = Counter()
    initial = lattice.TaintAnalysis.initial

    def counting(self):  # called exactly once per solve
        solves[self.cfg.path, self.cfg.qualname] += 1
        return initial(self)

    monkeypatch.setattr(lattice.TaintAnalysis, "initial", counting)
    index = ProgramIndex([FIXTURES])
    commit_points = declared_commit_points(index.modules)
    solve_taint(
        index.callgraph,
        commit_points,
        {m.path: commit_lines_of(m.source) for m in index.modules},
    )
    functions = set(index.callgraph.functions()) - commit_points
    assert set(solves) == functions
    (rounds,) = set(solves.values())
    assert rounds == 2  # one round grows the summaries, one changes nothing

    solves.clear()
    assert list(taint.findings(index))
    assert sum(solves.values()) == rounds * len(functions)


# --------------------------------------------------------------- fixtures


@pytest.mark.parametrize(
    "name, code, count",
    [
        ("bad_spt301_io.py", "SPT301", 2),
        ("bad_spt302_send.py", "SPT302", 2),
    ],
)
def test_each_bad_fixture_fires_only_its_rule(name, code, count):
    codes = _codes_of(FIXTURES / name)
    assert codes == [code] * count


def test_interprocedural_escape_through_two_calls():
    diags = analyze_paths([FIXTURES / "bad_interproc_chain.py"])
    assert [d.code for d in diags] == ["SPT301"]
    # The finding lands on the call in `produce`, where the taint enters
    # the chain — not inside `emit`, which is clean in isolation.
    assert diags[0].line == 21
    assert "relay" in diags[0].message


@pytest.mark.parametrize(
    "name",
    ["good_commit_point.py", "good_confirmed.py", "good_reclaimed_ledger.py"],
)
def test_good_fixtures_are_clean(name):
    assert _codes_of(FIXTURES / name) == []


def test_whole_fixture_dir_fires_every_rule():
    codes = {d.code for d in analyze_paths([FIXTURES])}
    assert codes == set(ALL_CODES)


def test_commit_line_directive_sanctions_a_sink():
    clean = (
        "def step(history):\n"
        "    guess = speculate(history)\n"
        "    print(guess)  # spectaint: commit — confirmed upstream\n"
    )
    assert analyze_source(clean, path="<t>") == []
    dirty = clean.replace("  # spectaint: commit — confirmed upstream", "")
    assert [d.code for d in analyze_source(dirty, path="<t>")] == ["SPT301"]


# ----------------------------------------------------- multi-tool parsing


def test_suppression_parser_accepts_all_four_spellings():
    source = (
        "a = 1  # speclint: disable=SPL101\n"
        "b = 2  # specflow: disable=SPF201\n"
        "c = 3  # specbound: disable=SPP203\n"
        "d = 4  # spectaint: disable=SPT301\n"
        "# specbound: disable-file=SPP204\n"
    )
    per_line, file_wide = parse_suppressions(source)
    assert per_line == {
        1: {"SPL101"},
        2: {"SPF201"},
        3: {"SPP203"},
        4: {"SPT301"},
    }
    assert file_wide == {"SPP204"}


def test_one_directive_suppresses_codes_across_families():
    # One spelling may carry any family's ids: a single directive on the
    # offending line silences both the speclint and the spectaint finding.
    source = (
        "def step(history):\n"
        "    guess = speculate(history)\n"
        "    print(guess)  # speclint: disable=SPT301, SPF202\n"
    )
    per_line, _ = parse_suppressions(source)
    assert per_line == {3: {"SPT301", "SPF202"}}
    assert analyze_source(source, path="<t>") == []


# ---------------------------------------------------------------- verdicts


#: The header of the hand-built logs below (spectaint reads none of it).
HEADER = TraceHeader(p=2, iterations=4, max_fw=1, hist_cap=4)


def _escape_log():
    log = EventLog(header=HEADER)
    log.record("speculate", rank=0, time=1.0, family="vars", iteration=3)
    log.record("send", rank=0, time=2.0, peer=1, family="vars", iteration=3)
    log.record("verify", rank=0, time=3.0, family="vars", iteration=3)
    return log


def _clean_log():
    log = EventLog(header=HEADER)
    log.record("speculate", rank=0, time=1.0, family="vars", iteration=3)
    log.record("verify", rank=0, time=2.0, family="vars", iteration=3)
    log.record("send", rank=0, time=3.0, peer=1, family="vars", iteration=3)
    return log


def test_find_escapes_flags_send_in_open_window():
    witnesses = find_escapes(_escape_log())
    assert len(witnesses) == 1
    assert witnesses[0].rank == 0 and witnesses[0].open_specs == 1
    assert "vars@3" in witnesses[0].format_text()


def test_find_escapes_clean_ordering_has_no_witness():
    assert find_escapes(_clean_log()) == []


def test_windows_are_per_rank():
    log = EventLog()
    log.record("speculate", rank=0, time=1.0, family="vars", iteration=1)
    # Rank 1's send is not covered by rank 0's open window.
    log.record("send", rank=1, time=2.0, peer=0, family="vars", iteration=1)
    assert find_escapes(log) == []


def test_check_taint_escape_verdicts():
    diags = analyze_paths([FIXTURES / "bad_spt301_io.py"])
    confirmed = check_taint(diags, _escape_log())
    assert {v.status for v in confirmed} == {CONFIRMED}
    assert "escape witness" in confirmed[0].detail

    refuted = check_taint(diags, _clean_log())
    assert {v.status for v in refuted} == {REFUTED}

    unobserved = check_taint(diags, EventLog())
    assert {v.status for v in unobserved} == {UNOBSERVED}


def test_verdict_text_shape():
    fixture = FIXTURES / "bad_spt301_io.py"
    verdict = check_taint(analyze_paths([fixture]), _escape_log())[0]
    assert verdict.format_text().startswith(
        f"taint-verdict SPT301 @ {fixture}:{verdict.where.rsplit(':', 1)[1]}: "
        "CONFIRMED — 1 escape witness(es); first: rank 0 seq 1: "
    )
    assert (verdict.kind, verdict.rule) == ("taint-verdict", "SPT301")


# --------------------------------------------------------------------- CLI


def test_cli_taint_trace_verdicts(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _escape_log().save(trace)
    assert main(
        ["taint", str(FIXTURES / "bad_spt301_io.py"), "--trace", str(trace)]
    ) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "escape witness(es)" in out
    assert "CONFIRMED" in out

    clean = tmp_path / "clean.jsonl"
    _clean_log().save(clean)
    assert main(
        ["taint", str(FIXTURES / "bad_spt301_io.py"), "--trace", str(clean)]
    ) == EXIT_FINDINGS  # static findings still gate even when refuted
    assert "REFUTED" in capsys.readouterr().out

    # A clean tree + trace: nothing to cross-reference, exit 0.
    assert main(
        ["taint", str(FIXTURES / "good_confirmed.py"), "--trace", str(trace)]
    ) == EXIT_CLEAN
    assert "no static SPT findings" in capsys.readouterr().out

    assert main(
        ["taint", str(FIXTURES), "--trace", str(tmp_path / "nope.jsonl")]
    ) == EXIT_USAGE


def test_cli_check_exit_codes_match_individual_tools(capsys):
    dirty = str(FIXTURES)
    clean = str(FIXTURES / "good_commit_point.py")
    assert main(["check", dirty]) == main(["taint", dirty]) == EXIT_FINDINGS
    assert main(["check", clean]) == main(["taint", clean]) == EXIT_CLEAN
    assert main(["check", "no/such/path.py"]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_check_text_summary(capsys):
    assert main(["check", str(FIXTURES / "good_commit_point.py")]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "repro check:" in out
    assert "1 file(s) parsed once" in out


def test_cli_check_merged_sarif_has_one_run_per_tool(tmp_path, capsys):
    sarif = tmp_path / "merged.sarif"
    assert main(["check", str(FIXTURES), "--sarif", str(sarif)]) == 1
    capsys.readouterr()
    doc = json.loads(sarif.read_text())
    names = [r["tool"]["driver"]["name"] for r in doc["runs"]]
    assert names == ["specbound", "specflow", "speclint", "spectaint"]
    spt_run = doc["runs"][names.index("spectaint")]
    assert {r["ruleId"] for r in spt_run["results"]} == set(ALL_CODES)


# ------------------------------------------------------------- parse once


def test_check_parses_each_file_exactly_once(monkeypatch, capsys):
    parsed = []
    original = ModuleGraphs.from_source.__func__

    def counting(cls, source, path="<string>"):
        parsed.append(path)
        return original(cls, source, path=path)

    monkeypatch.setattr(cfg.ModuleGraphs, "from_source", classmethod(counting))
    assert main(["check", str(FIXTURES)]) == EXIT_FINDINGS
    capsys.readouterr()
    files = sorted(str(p) for p in FIXTURES.glob("*.py"))
    assert sorted(parsed) == files  # each file parsed exactly once
    assert len(parsed) == len(set(parsed))


def test_program_index_shares_one_callgraph():
    index = ProgramIndex([FIXTURES])
    assert index.callgraph is index.callgraph
    assert {Path(m.path).name for m in index.modules} == {
        p.name for p in FIXTURES.glob("*.py")
    }
