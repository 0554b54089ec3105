"""Tests for specflow: CFGs, SPF rules, trace events and replay.

Static half: every ``bad_spf11*`` fixture in ``tests/specflow_fixtures``
must fire exactly its rule and the ``good_protocol`` fixtures must stay
silent.  Dynamic half: synthetic event logs drive each replay mirror,
and a real two-worker multiprocessing run with injected latency must
produce a trace whose happens-before edges are consistent (matched
sends precede their receives, speculations precede their
verifications).  The differential test records a simulator run and
cross-references it against the static findings over ``src/``.
"""

import json
import pathlib

import pytest

from repro.analysis import (
    CONFIRMED,
    REFUTED,
    UNOBSERVED,
    Diagnostic,
    Severity,
    TraceView,
    apply_baseline,
    cross_reference,
    fingerprint,
    replay,
)
from repro.analysis.baselines import baseline_for, set_baseline
from repro.analysis.cfg import CallGraph, ModuleGraphs
from repro.analysis.races import build_static_hb, collect_comm_sites
from repro.analysis.replay import build_dynamic_hb, event_key
from repro.analysis.tools import TOOLS
from repro.api import RunConfig, run
from repro.cli import main
from repro.trace import EventLog, TraceEvent, split_tag

from tests.toy_programs import CoupledIncrement

SPECFLOW = next(tool for tool in TOOLS if tool.name == "specflow")
SPF_RULES = SPECFLOW.rules
analyze_paths = SPECFLOW.analyze_paths
analyze_source = SPECFLOW.analyze_source

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).resolve().parent / "specflow_fixtures"
SPL_FIXTURES = pathlib.Path(__file__).resolve().parent / "speclint_fixtures"


def analyze_fixture(name):
    path = FIXTURES / name
    return analyze_source(path.read_text(), path=str(path))


def codes(diagnostics):
    return sorted({d.code for d in diagnostics})


# ------------------------------------------------------------ rule registry
def test_spf_registry_catalogue():
    assert list(SPF_RULES) == ["SPF110", "SPF111"]
    for code, info in SPF_RULES.items():
        assert info.code == code
        assert info.summary
        assert info.severity in (Severity.ERROR, Severity.WARNING)


# ----------------------------------------------------------------- the CFG
def test_cfg_orders_straight_line_code():
    mod = ModuleGraphs.from_source(
        "def f(proc):\n"
        "    a = proc.recv()\n"
        "    proc.send(1, a, tag=('vars', 0))\n"
    )
    cfg = mod.cfgs["f"]
    nodes = list(cfg.stmt_nodes())
    assert cfg.strictly_ordered(nodes[0].uid, nodes[1].uid)
    assert not cfg.strictly_ordered(nodes[1].uid, nodes[0].uid)


def test_cfg_loop_statements_are_unordered():
    mod = ModuleGraphs.from_source(
        "def f(xs):\n"
        "    for x in xs:\n"
        "        a = x + 1\n"
        "        b = a + 1\n"
    )
    cfg = mod.cfgs["f"]
    body = [n for n in cfg.stmt_nodes() if n.label == "assign"]
    # Inside a loop both orders can execute across iterations.
    assert not cfg.strictly_ordered(body[0].uid, body[1].uid)
    assert not cfg.strictly_ordered(body[1].uid, body[0].uid)


def test_cfg_branches_are_unordered():
    mod = ModuleGraphs.from_source(
        "def f(c):\n"
        "    if c:\n"
        "        a = 1\n"
        "    else:\n"
        "        b = 2\n"
    )
    cfg = mod.cfgs["f"]
    arms = [n for n in cfg.stmt_nodes() if n.label == "assign"]
    assert not cfg.strictly_ordered(arms[0].uid, arms[1].uid)
    assert not cfg.strictly_ordered(arms[1].uid, arms[0].uid)


def test_cfg_covers_nested_and_decorated_functions():
    mod = ModuleGraphs.from_source(
        "import functools\n"
        "@functools.lru_cache\n"
        "def outer():\n"
        "    def inner():\n"
        "        async def deepest():\n"
        "            pass\n"
        "    class C:\n"
        "        def method(self):\n"
        "            pass\n"
    )
    assert set(mod.cfgs) == {
        "outer", "outer.inner", "outer.inner.deepest", "outer.C.method",
    }


# -------------------------------------------------------- per-rule fixtures
@pytest.mark.parametrize(
    "fixture, code, count",
    [
        ("bad_spf110_orphan.py", "SPF110", 2),
        ("bad_spf111_race.py", "SPF111", 1),
    ],
)
def test_bad_fixture_fires_exactly_its_rule(fixture, code, count):
    diags = analyze_fixture(fixture)
    assert codes(diags) == [code]
    assert len(diags) == count
    severity = SPF_RULES[code].severity
    assert all(d.severity == severity for d in diags)


def test_good_protocol_fixture_is_clean():
    assert analyze_fixture("good_protocol.py") == []


def test_speclint_good_fixture_is_specflow_clean():
    path = SPL_FIXTURES / "good_protocol.py"
    assert analyze_source(path.read_text(), path=str(path)) == []


def test_select_restricts_rules():
    path = FIXTURES / "bad_spf110_orphan.py"
    src = path.read_text()
    assert codes(analyze_source(src, select=["SPF111"])) == []
    assert codes(analyze_source(src, select=["SPF110"])) == ["SPF110"]


def test_specflow_suppression_directive():
    path = FIXTURES / "bad_spf110_orphan.py"
    src = "# specflow: disable-file=SPF110\n" + path.read_text()
    assert analyze_source(src) == []


def test_syntax_error_yields_spf000():
    diags = analyze_source("def broken(:\n", path="broken.py")
    assert codes(diags) == ["SPF000"]


def test_repo_src_has_no_spf_errors():
    """Whatever the baseline accepts must be warnings, not errors."""
    diags = analyze_paths([str(REPO_ROOT / "src")])
    assert [d for d in diags if d.severity == Severity.ERROR] == []


# ------------------------------------------------------- static HB plumbing
def test_comm_sites_and_hb_graph():
    mod = ModuleGraphs.from_source(
        (FIXTURES / "bad_spf111_race.py").read_text(),
        path="race.py",
    )
    sites = collect_comm_sites(mod)
    assert sorted(s.kind for s in sites) == ["recv", "send", "send"]
    wildcard = [s for s in sites if s.kind == "recv"][0]
    assert wildcard.wildcard_tag and wildcard.wildcard_src
    graph, all_sites = build_static_hb([mod], CallGraph([mod]))
    sends = [s for s in all_sites if s.kind == "send"]
    assert graph.unordered(sends[0].key, sends[1].key)
    # Communication edge: each send happens-before the matching recv.
    assert graph.ordered(sends[0].key, wildcard.key)


# ------------------------------------------------------------- trace events
def test_eventlog_assigns_per_rank_sequence():
    log = EventLog()
    e0 = log.record("send", rank=0, time=0.0, peer=1, family="vars", iteration=0)
    e1 = log.record("compute", rank=0, time=1.0)
    e2 = log.record("recv", rank=1, time=0.5, peer=0, family="vars", iteration=0)
    assert (e0.seq, e1.seq, e2.seq) == (0, 1, 0)
    with pytest.raises(ValueError):
        log.record("teleport", rank=0, time=2.0)


def test_split_tag_families():
    assert split_tag(("vars", 3)) == ("vars", 3)
    assert split_tag(("gather", ("x", 1))) == ("gather", None)
    assert split_tag("barrier-in") == ("barrier-in", None)
    assert split_tag(None) == (None, None)


def test_eventlog_jsonl_roundtrip(tmp_path):
    log = EventLog()
    log.record_message("send", rank=0, time=0.25, peer=1, tag=("vars", 2))
    log.record("speculate", rank=1, time=0.5, peer=0, iteration=2, family="vars")
    path = tmp_path / "trace.jsonl"
    log.save(path)
    loaded = EventLog.load(path)
    assert sorted(loaded.events) == sorted(log.events)
    assert loaded.ranks() == [0, 1]
    # Appending after load continues each rank's sequence.
    nxt = loaded.record("verify", rank=1, time=1.0, peer=0, iteration=2)
    assert nxt.seq == 1


# ---------------------------------------------------------- replay mirrors
def _msg(log, src, dst, iteration, *, recv=True):
    log.record("send", rank=src, time=0.0, peer=dst, family="vars",
               iteration=iteration)
    if recv:
        log.record("recv", rank=dst, time=0.0, peer=src, family="vars",
                   iteration=iteration)


def test_replay_clean_log_has_no_findings():
    log = EventLog()
    _msg(log, 0, 1, 0)
    log.record("speculate", rank=1, time=0.0, peer=0, family="vars", iteration=1)
    log.record("verify", rank=1, time=0.0, peer=0, family="vars", iteration=1)
    report = replay(TraceView(log))
    assert report.findings == []
    assert report.matched_messages == 1


def test_replay_flags_unverified_speculation():
    log = EventLog()
    log.record("speculate", rank=1, time=0.0, peer=0, family="vars", iteration=3)
    report = replay(TraceView(log))
    assert [f.code for f in report.findings] == ["SPF101"]


def test_replay_flags_stale_speculation():
    log = EventLog()
    log.record("compute", rank=0, time=0.0, iteration=9)
    log.record("speculate", rank=0, time=0.0, peer=1, family="vars", iteration=2)
    log.record("verify", rank=0, time=0.0, peer=1, family="vars", iteration=2)
    report = replay(TraceView(log), backward_window=4)
    assert [f.code for f in report.findings] == ["SPF102"]
    # A wide-enough window accepts the same trace.
    assert replay(TraceView(log), backward_window=10).findings == []


def test_replay_flags_descending_corrections():
    log = EventLog()
    log.record("correct", rank=0, time=0.0, peer=1, iteration=5)
    log.record("correct", rank=0, time=0.0, peer=1, iteration=4)
    report = replay(TraceView(log))
    assert [f.code for f in report.findings] == ["SPF103"]


def test_replay_flags_unmatched_messages():
    log = EventLog()
    _msg(log, 0, 1, 0, recv=False)
    log.record("recv", rank=0, time=0.0, peer=1, family="acks", iteration=0)
    report = replay(TraceView(log))
    assert [f.code for f in report.findings] == ["SPF110", "SPF110"]
    assert report.unmatched_sends == 1
    assert report.unmatched_recvs == 1


def test_replay_flags_message_overtaking():
    log = EventLog()
    log.record("send", rank=0, time=0.0, peer=1, family="vars", iteration=0)
    log.record("send", rank=0, time=0.0, peer=1, family="vars", iteration=1)
    # Rank 1 sees iteration 1 *before* iteration 0: overtaking.
    log.record("recv", rank=1, time=0.0, peer=0, family="vars", iteration=1)
    log.record("recv", rank=1, time=0.0, peer=0, family="vars", iteration=0)
    report = replay(TraceView(log))
    assert [f.code for f in report.findings] == ["SPF111"]


# ------------------------------------------------------ differential verdicts
def _diag(code):
    return Diagnostic(
        path="x.py", line=1, col=0, code=code,
        severity=SPF_RULES[code].severity, message="m",
    )


def test_cross_reference_confirmed_and_refuted():
    log = EventLog()
    _msg(log, 0, 1, 0, recv=False)   # unmatched send: SPF110 witnessed
    report, verdicts = cross_reference(
        [_diag("SPF110"), _diag("SPF111")], TraceView(log)
    )
    by_code = {v.rule: v.status for v in verdicts}
    assert by_code["SPF110"] == CONFIRMED
    assert by_code["SPF111"] == REFUTED   # sends exercised, no overtaking
    assert report.findings
    assert verdicts[0].format_text().startswith(
        "protocol-contract SPF110: CONFIRMED — "
    )


def test_cross_reference_unobserved():
    log = EventLog()
    log.record("compute", rank=0, time=0.0, iteration=0)
    _, verdicts = cross_reference([_diag("SPF110")], TraceView(log))
    assert [v.status for v in verdicts] == [UNOBSERVED]


# ------------------------------------- two-worker ordering regression test
def test_two_worker_trace_records_hb_edges():
    """A delayed message must still yield consistent HB edges.

    With 50 ms injected latency and FW=1 the workers speculate instead
    of blocking; the merged trace must (a) pair every send with its
    receive, (b) order each send strictly before its receive in the
    dynamic happens-before graph, and (c) order every speculation
    before the verification of the same (peer, iteration).
    """
    prog = CoupledIncrement(nprocs=2, iterations=4, coupling=0.2, threshold=0.0)
    result = run(RunConfig(prog, backend="mp", fw=1, latency=0.05,
                           record_trace=True, timeout=60))
    log = result.event_log
    assert log.ranks() == [0, 1]
    assert len(log.of_kind("speculate")) > 0   # the delay forced speculation

    view = TraceView(log)
    graph, report = build_dynamic_hb(view)
    assert report.matched_messages > 0
    assert report.unmatched_sends == 0
    assert report.unmatched_recvs == 0
    pairs, _, _ = view.matching
    for send, recv in pairs:
        assert graph.ordered(event_key(send), event_key(recv))
        assert not graph.ordered(event_key(recv), event_key(send))

    for rank in log.ranks():
        events = log.for_rank(rank)
        verified = {
            (ev.peer, ev.iteration): ev.seq
            for ev in events if ev.kind == "verify"
        }
        for ev in events:
            if ev.kind == "speculate":
                key = (ev.peer, ev.iteration)
                assert key in verified, f"speculation never verified: {ev}"
                assert ev.seq < verified[key]

    # The protocol replay finds nothing wrong with a healthy run.
    assert replay(view).findings == []


def test_runs_without_recording_produce_empty_logs():
    prog = CoupledIncrement(nprocs=2, iterations=2)
    result = run(RunConfig(prog, backend="mp", fw=0, timeout=60))
    assert result.event_log is None


# ---------------------------------------------- simulator differential run
def test_trace_replay_cross_references_static_findings(tmp_path):
    """Record a simulator run and judge the static findings against it."""
    from repro.harness import run_nbody

    _, report = run_nbody(p=2, fw=1, iterations=4, n_particles=40,
                          threshold=0.01, record_trace=True)
    log = report.event_log
    assert len(log) > 0
    assert set(ev.kind for ev in log) >= {"send", "recv", "compute"}

    # The SPF111 driver-variant race was fixed at the source — the
    # engine refactor left exactly one send site, stamped with
    # per-destination sequence numbers — so the production tree is
    # clean, not baselined.
    static = analyze_paths([str(REPO_ROOT / "src")])
    assert codes(static) == []

    # Cross-referencing still works: take a known-racy fixture's
    # findings and judge them against the healthy recorded run.
    fixture = analyze_fixture("bad_spf111_race.py")
    assert "SPF111" in codes(fixture)
    report, verdicts = cross_reference(fixture, TraceView(log))
    spf111 = next(v for v in verdicts if v.rule == "SPF111")
    # A healthy 2-rank run exercises the send path without overtaking:
    # the static warning is refuted (or, if the netsim reorders,
    # confirmed) — either way the verdict is decisive, not unobserved.
    assert spf111.status in (CONFIRMED, REFUTED)


# --------------------------------------------------------- SARIF + baseline
def test_sarif_document_shape():
    diags = analyze_fixture("bad_spf110_orphan.py")
    doc = json.loads(SPECFLOW.render(diags, "sarif"))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"SPL001", "SPF110", "SPF111"} <= rule_ids
    assert [r["ruleId"] for r in run["results"]] == ["SPF110", "SPF110"]
    for res in run["results"]:
        assert res["partialFingerprints"]["speclint/v1"]
        region = res["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_fingerprints_are_line_stable():
    a = Diagnostic("p.py", 10, 0, "SPF110", Severity.ERROR, "msg")
    b = Diagnostic("p.py", 99, 4, "SPF110", Severity.ERROR, "msg")
    c = Diagnostic("p.py", 10, 0, "SPF111", Severity.ERROR, "msg")
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)


def test_baseline_roundtrip(tmp_path):
    diags = analyze_fixture("bad_spf110_orphan.py")
    baseline = tmp_path / "baseline.json"
    set_baseline("specflow", frozenset(fingerprint(d) for d in diags), baseline)
    accepted = baseline_for("specflow", baseline)
    assert len(accepted) == 2
    assert apply_baseline(diags, accepted) == []
    fresh = _diag("SPF111")
    assert apply_baseline(diags + [fresh], accepted) == [fresh]


def test_checked_in_baseline_covers_src():
    baseline = REPO_ROOT / ".speclint" / "baselines.json"
    accepted = baseline_for("specflow", baseline)
    diags = analyze_paths([str(REPO_ROOT / "src")])
    assert apply_baseline(diags, accepted) == []


# ------------------------------------------------------------------ the CLI
def test_cli_analyze_exit_codes(capsys):
    assert main(["analyze", str(FIXTURES)]) == 1
    captured = capsys.readouterr()
    for code in SPF_RULES:
        assert code in captured.out
    assert main(["analyze", str(FIXTURES / "good_protocol.py")]) == 0
    assert main(["analyze", "no/such/path.py"]) == 2


def test_cli_analyze_baseline_flow(tmp_path, capsys):
    baseline = tmp_path / "b.json"
    assert main(["analyze", str(FIXTURES), "--write-baseline", str(baseline)]) == 0
    assert main(["analyze", str(FIXTURES), "--baseline", str(baseline)]) == 0
    assert main(["analyze", str(FIXTURES), "--baseline",
                 str(tmp_path / "missing.json")]) == 2


def test_cli_analyze_trace_flags_replay_findings(tmp_path, capsys):
    log = EventLog()
    _msg(log, 0, 1, 0, recv=False)   # leaked message
    trace = tmp_path / "trace.jsonl"
    log.save(trace)
    good = str(FIXTURES / "good_protocol.py")
    assert main(["analyze", good, "--trace", str(trace)]) == 1
    out = capsys.readouterr().out
    assert "SPF110" in out and "trace replay" in out
    assert main(["analyze", good, "--trace", str(tmp_path / "nope.jsonl")]) == 2


def test_cli_lint_and_analyze_share_exit_codes():
    from repro.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE

    assert (EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE) == (0, 1, 2)
    assert main(["lint", "no/such/path.py"]) == EXIT_USAGE
    assert main(["lint", str(SPL_FIXTURES / "good_protocol.py")]) == EXIT_CLEAN
