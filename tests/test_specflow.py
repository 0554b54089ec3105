"""Tests for specflow: CFGs, SPF rules, trace events and replay.

Static half: every ``bad_spf11*`` fixture in ``tests/specflow_fixtures``
must fire exactly its rule and the ``good_protocol`` fixtures must stay
silent.  Dynamic half: synthetic event logs drive each replay check;
recorded runs on every backend replay clean and each specmc mutation's
trace names the invariant specmc raised (replay is the sanitizer run
offline); and a real two-worker multiprocessing run with injected latency must
produce a trace whose happens-before edges are consistent (matched
sends precede their receives, speculations precede their
verifications).  The differential test records a simulator run and
cross-references it against the static findings over ``src/``.
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.analysis import (
    CONFIRMED,
    REFUTED,
    UNOBSERVED,
    Diagnostic,
    ProgramIndex,
    Severity,
    TraceView,
    cross_reference,
    fingerprint,
    replay,
)
from repro.analysis.cfg import CallGraph, ModuleGraphs
from repro.analysis.modelcheck import MUTATIONS, McConfig, emit_trace, explore
from repro.analysis.races import build_static_hb, collect_comm_sites
from repro.analysis.replay import RUN_END, build_dynamic_hb, event_key
from repro.analysis.tools import TOOLS
from repro.api import RunConfig, run
from repro.cli import main
from repro.trace import EventLog, TraceEvent
from repro.trace.events import TraceHeader

from tests.toy_programs import CoupledIncrement

SPECFLOW = next(tool for tool in TOOLS if tool.name == "specflow")
SPF_RULES = SPECFLOW.rules


def analyze_source(tmp_path, source, name="t.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return SPECFLOW.analyze(ProgramIndex([path]))


def analyze_paths(paths):
    return SPECFLOW.analyze(ProgramIndex(paths))


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).resolve().parent / "specflow_fixtures"
SPL_FIXTURES = pathlib.Path(__file__).resolve().parent / "speclint_fixtures"


def analyze_fixture(name):
    return analyze_paths([FIXTURES / name])


def codes(diagnostics):
    return sorted({d.code for d in diagnostics})


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
    assert analyze_paths([SPL_FIXTURES / "good_protocol.py"]) == []


def test_specflow_suppression_directive(tmp_path):
    path = FIXTURES / "bad_spf111_race.py"
    src = "# specflow: disable-file=SPF111\n" + path.read_text()
    assert analyze_source(tmp_path, src) == []


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
    e1 = log.record("compute", rank=0, time=1.0, args=(0, 1))
    e2 = log.record("recv", rank=1, time=0.5, peer=0, family="vars", iteration=0)
    assert (e0.seq, e1.seq, e2.seq) == (0, 1, 0)
    with pytest.raises(ValueError):
        log.record("teleport", rank=0, time=2.0)
    # A record whose args do not fit its kind is refused.
    for kind, args in (("compute", ()), ("send", (1,)), ("recv", (1, 2))):
        with pytest.raises(ValueError, match="args"):
            log.record(kind, rank=0, time=2.0, args=args)
    with pytest.raises(ValueError, match="args"):  # loaded or merged: ints only
        log.extend([TraceEvent(0, 3, "correct", 2.0, 1, "vars", 1, (True,))])
    assert len(log) == 3


#: The header of the hand-built logs saved below.
HEADER = TraceHeader(p=2, iterations=4, max_fw=1, hist_cap=4)


def test_eventlog_jsonl_roundtrip(tmp_path):
    log = EventLog(header=HEADER)
    log.record("send", rank=0, time=0.25, peer=1, family="vars", iteration=2)
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
    assert [(f.code, f.rank) for f in report.findings] == [
        ("eventual-verification", RUN_END)]
    assert report.findings[0].format_text().startswith(
        "trace run end: eventual-verification 1 speculation(s) never verified")


def test_replay_flags_stale_speculation():
    """A speculation for iteration 2 while computing 9 means iteration
    2 was unverified at compute 9: past any window narrower than 7, so
    the sanitizer's window bound is what a stale speculation breaks."""
    log = EventLog(header=HEADER)
    log.record("compute", rank=0, time=0.0, iteration=9, args=(1, 1))
    log.record("speculate", rank=0, time=0.0, peer=1, family="vars", iteration=2)
    log.record("verify", rank=0, time=0.0, peer=1, family="vars", iteration=2)
    report = replay(TraceView(log))
    assert [(f.code, f.rank, f.seq) for f in report.findings] == [
        ("forward-window-bound", 0, 0)]
    # A wide-enough window accepts the same trace.
    wide = EventLog(header=HEADER)
    wide.extend([replace(ev, args=(1, 7)) if ev.kind == "compute" else ev
                 for ev in log.events])
    assert replay(TraceView(wide)).findings == []


def test_replay_flags_descending_corrections():
    log = EventLog()
    log.record("correct", rank=0, time=0.0, peer=1, iteration=5, args=(5,))
    log.record("correct", rank=0, time=0.0, peer=1, iteration=4, args=(5,))
    report = replay(TraceView(log))
    assert [(f.code, f.seq) for f in report.findings] == [("cascade-order", 1)]
    # The same two repairs, each opening its own cascade, are legal.
    log = EventLog()
    log.record("correct", rank=0, time=0.0, peer=1, iteration=5, args=(5,))
    log.record("correct", rank=0, time=0.0, peer=1, iteration=4, args=(4,))
    assert replay(TraceView(log)).findings == []


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
    _msg(log, 0, 1, 0)
    _msg(log, 0, 1, 1)
    _, verdicts = cross_reference([_diag("SPF111")], TraceView(log))
    assert [v.status for v in verdicts] == [REFUTED]  # sends, no overtaking
    log = EventLog()
    log.record("send", rank=0, time=0.0, peer=1, family="vars", iteration=0)
    log.record("send", rank=0, time=0.0, peer=1, family="vars", iteration=1)
    log.record("recv", rank=1, time=0.0, peer=0, family="vars", iteration=1)
    log.record("recv", rank=1, time=0.0, peer=0, family="vars", iteration=0)
    report, verdicts = cross_reference([_diag("SPF111")], TraceView(log))
    assert report.findings
    assert verdicts[0].format_text().startswith(
        "protocol-contract SPF111: CONFIRMED — "
    )


def test_cross_reference_unobserved():
    log = EventLog()
    log.record("compute", rank=0, time=0.0, iteration=0, args=(0, 1))
    _, verdicts = cross_reference([_diag("SPF111")], TraceView(log))
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
    assert any(ev.kind == "speculate" for ev in log)  # the delay forced speculation

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
        events = [ev for ev in log if ev.rank == rank]
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


# ------------------------------------------- offline = online, differentially
#: Clean recorded runs: one per backend, and a chaos run (1 % loss and
#: a 3x straggler) on each whose retransmits heal -- on loopback and mp
#: by the wire seq of a ``recv``, on the DES by the ``fault`` record.
CHAOS = ["chaos", "-p", "2", "-n", "32", "--iterations", "12", "--fw", "1",
         "--drop", "0.01", "--straggler", "1:3.0", "--fault-seed", "1"]
CLEAN_RUNS = {
    "des": ["nbody", "-p", "4", "--fw", "2", "--particles", "40",
            "--iterations", "4"],
    "loopback": ["jacobi", "-p", "3", "--fw", "1", "--backend", "loopback"],
    "mp": ["nbody", "--backend", "mp", "-p", "2", "--particles", "32",
           "--iterations", "3", "--latency", "0.02"],
    "des-chaos": [*CHAOS, "--backend", "des"],
    "loopback-chaos": [*CHAOS, "--backend", "loopback"],
    "mp-chaos": [*CHAOS, "--backend", "mp"],
}
#: How a trace names what specmc caught: by its invariant id, but for
#: the history ring's own raise, which the trace shows as the
#: overtaking arrival the ring raised on.
OFFLINE_NAME = {"history-ring-bound": "SPF111"}


@pytest.mark.parametrize("case", sorted(CLEAN_RUNS) + sorted(MUTATIONS))
def test_replay_names_what_the_live_seat_names(case, tmp_path, capsys):
    """Replaying a recorded trace is running the sanitizer over it: a
    clean run on any backend replays with no finding, and each specmc
    mutation's counterexample trace names the invariant specmc raised
    (SPF110's unreceived sends aside: a violating trace is a prefix)."""
    trace = tmp_path / "trace.jsonl"
    if case in CLEAN_RUNS:
        assert main([*CLEAN_RUNS[case], "--record-trace", str(trace)]) == 0
        expected = set()
    else:
        config = McConfig(p=2, fw=0 if case == "ungated-window" else 1,
                          iters=3)
        caught = explore(config, mutation=case).violation
        emit_trace(config, caught.schedule, trace, mutation=case)
        expected = {OFFLINE_NAME.get(caught.invariant, caught.invariant)}
        assert caught.invariant == MUTATIONS[case].expected_invariant
    log = EventLog.load(trace)
    if "chaos" in case:
        assert any(ev.kind == "retransmit" for ev in log)  # the gaps this run healed
    report = replay(TraceView(log))
    assert {f.code for f in report.findings} - {"SPF110"} == expected
    capsys.readouterr()
    rc = main(["analyze", str(REPO_ROOT / "src/repro/engine"),
               "--trace", str(trace)])
    out = capsys.readouterr().out
    assert rc == (1 if expected else 0)
    assert all(code in out for code in expected)


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


# --------------------------------------------------------------------- SARIF
def test_sarif_document_shape():
    diags = analyze_fixture("bad_spf111_race.py")
    doc = json.loads(SPECFLOW.render(diags, "sarif"))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == ["SPF111"]
    assert [r["ruleId"] for r in run["results"]] == ["SPF111"]
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


# ------------------------------------------------------------------ the CLI
def test_cli_analyze_trace_flags_replay_findings(tmp_path, capsys):
    log = EventLog(header=HEADER)
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
