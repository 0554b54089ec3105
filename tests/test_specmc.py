"""Tests for specmc — the exhaustive interleaving model checker.

Covers the whole pipeline: exhaustive exploration of bounded configs,
the schedule-independence (determinism) property, mutation-injected
bugs caught with their expected invariant ids, ddmin shrinking,
counterexample emission (replayable trace + generated regression
test), the pinned historical SPF111 counterexample, and the ``repro
mc`` CLI surface.
"""

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.analysis.modelcheck import (
    MUTATIONS,
    Action,
    Budget,
    Execution,
    McConfig,
    McViolation,
    build_program,
    emit_test,
    emit_trace,
    explore,
    render_json,
    render_sarif_mc,
    replay_schedule,
    schedule_from_json,
    schedule_to_json,
    shrink_schedule,
)
from repro.api import RunConfig, run
from repro.cli import main
from repro.trace.events import EventLog

SMALL = McConfig(p=2, fw=1, bw=1, iters=3)


# ------------------------------------------------------------- exploration
def _state_space(result):
    return (result.explored, result.deduped, result.sleep_pruned,
            result.transitions, result.executions, result.max_depth)


def test_exhaustive_exploration_small_config_is_clean():
    result = explore(SMALL)
    assert result.violation is None
    assert result.exhausted
    # explored / deduped (fingerprint dedup) / sleep-pruned (DPOR) /
    # transitions / executions / max depth, exactly: a change to the
    # fingerprint classes or the enabled-action order moves them.
    assert _state_space(result) == (55, 19, 33, 74, 28, 10)


def test_state_space_is_pinned_with_a_policy_and_at_three_ranks():
    for config, expected in (
        (McConfig(p=2, fw=1, bw=1, iters=3, window="cost"),
         (86, 25, 44, 113, 40, 10)),
        (McConfig(p=3, fw=1, bw=1, iters=2),
         (228, 223, 406, 543, 275, 12)),
    ):
        result = explore(config)
        assert result.violation is None and result.exhausted, config
        assert _state_space(result) == expected, config


def test_exploration_covers_both_scenarios_and_cascades():
    for scenario in ("drift", "constant"):
        for cascade in ("recompute", "none"):
            config = McConfig(p=2, fw=1, bw=1, iters=2,
                              scenario=scenario, cascade=cascade)
            result = explore(config)
            assert result.violation is None, (scenario, cascade)
            assert result.exhausted


def test_budget_limits_the_search():
    budget = Budget(max_states=5)
    result = explore(McConfig(p=3, fw=1, bw=1, iters=3), budget=budget)
    assert not result.exhausted
    assert result.explored <= 6  # the check runs per expansion


def test_budget_parse():
    assert Budget.parse("60s").max_seconds == 60.0
    assert Budget.parse("2m").max_seconds == 120.0
    assert Budget.parse("500ms").max_seconds == 0.5
    assert Budget.parse("5000").max_states == 5000
    with pytest.raises(ValueError):
        Budget.parse("one eternity")


def test_config_bounds_are_enforced():
    with pytest.raises(ValueError):
        McConfig(p=4)
    with pytest.raises(ValueError):
        McConfig(p=2, fw=3)
    with pytest.raises(ValueError):
        McConfig(p=2, iters=9)
    with pytest.raises(ValueError):
        McConfig(p=2, scenario="chaotic")


# ------------------------------------------- determinism (schedule freedom)
@dataclass
class ScheduleSample:
    """One complete random-walk execution."""

    schedule: Tuple[Action, ...]
    finals: Dict[int, Any]
    violation: Optional[McViolation]


def random_schedules(config, n, seed=0):
    """``n`` complete executions under uniformly random scheduling:
    each walk picks uniformly among the enabled actions until every
    rank finishes, so each schedule is a path :func:`explore` can take."""
    rng = random.Random(seed)
    samples = []
    for _ in range(n):
        ex = Execution(config)
        while ex.violation is None and not ex.is_done:
            actions = ex.enabled_actions()
            if not actions:
                ex.check_deadlock()
                break
            ex.apply(rng.choice(actions))
        samples.append(ScheduleSample(tuple(ex.schedule), dict(ex.finals),
                                      ex.violation))
    return samples


@pytest.mark.parametrize("scenario", ["drift", "constant"])
def test_random_schedules_replay_bit_identical_to_loopback(scenario):
    """25 random explored schedules must all land on the canonical
    round-robin finals bit for bit (theta = 0, FW <= 1 exactness)."""
    config = McConfig(p=3, fw=1, bw=1, iters=3, scenario=scenario)
    canonical = run(RunConfig(build_program(config), backend="loopback", fw=config.fw,
                              cascade=config.cascade)).results
    samples = random_schedules(config, n=25, seed=7)
    assert len(samples) == 25
    seen = set()
    for sample in samples:
        assert sample.violation is None
        assert sample.finals == canonical  # exact float equality
        seen.add(sample.schedule)
    assert len(seen) > 1  # the walks genuinely differ


def test_replay_is_deterministic():
    sample = random_schedules(SMALL, n=1, seed=3)[0]
    once = replay_schedule(SMALL, sample.schedule)
    twice = replay_schedule(SMALL, sample.schedule)
    assert once.finals == twice.finals
    assert once.violation is None and twice.violation is None


# ---------------------------------------------------------------- mutations
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_mutation_is_caught_with_its_expected_invariant(name):
    mutation = MUTATIONS[name]
    config = (
        McConfig(p=2, fw=0, bw=1, iters=2)
        if name == "ungated-window"
        else SMALL
    )
    result = explore(config, mutation=name)
    assert result.violation is not None, name
    assert result.violation.invariant == mutation.expected_invariant


def test_a_scenario_program_must_keep_the_default_correct(monkeypatch):
    """The fingerprint settles owed repairs through ``correct``; an
    override could change the program's state as a side effect."""
    from repro.analysis.modelcheck import model

    class Incremental(type(build_program(SMALL))):
        def correct(self, rank, next_block, inputs, rejected, t):
            return next_block

    monkeypatch.setattr(model, "build_program", lambda config: Incremental(config.p, config.iters))
    with pytest.raises(TypeError, match="default correct"):
        explore(SMALL)


def test_unknown_mutation_is_rejected():
    with pytest.raises(ValueError):
        explore(SMALL, mutation="not-a-mutation")


# ----------------------------------------------------------------- shrinking
def test_shrunk_schedule_still_reproduces_and_is_smaller():
    result = explore(SMALL, mutation="no-seq-floor")
    assert result.violation is not None
    original = result.violation.schedule
    shrunk = shrink_schedule(
        SMALL, original, result.violation.invariant, mutation="no-seq-floor"
    )
    assert len(shrunk) <= len(original)
    outcome = replay_schedule(SMALL, shrunk, mutation="no-seq-floor")
    assert outcome.violation is not None
    assert outcome.violation.invariant == result.violation.invariant


# -------------------------------------------------- counterexample emission
def test_emit_trace_is_replayable_jsonl(tmp_path):
    result = explore(SMALL, mutation="no-seq-floor")
    schedule = result.violation.schedule
    path = tmp_path / "ce.jsonl"
    outcome = emit_trace(SMALL, schedule, path, mutation="no-seq-floor")
    assert outcome.violation is not None
    log = EventLog.load(path)
    assert len(log) > 0
    kinds = {event.kind for event in log}
    assert "send" in kinds and "recv" in kinds


def test_emitted_trace_confirms_spf111_via_dynamic_replay(tmp_path):
    """The model checker's counterexample is the same artifact class a
    recorded run produces: ``repro analyze --trace`` must flag the
    overtaking delivery (the SPF111 dynamic mirror)."""
    from repro.analysis import TraceView, cross_reference

    result = explore(SMALL, mutation="no-seq-floor")
    path = tmp_path / "ce.jsonl"
    emit_trace(SMALL, result.violation.schedule, path, mutation="no-seq-floor")
    report, _verdicts = cross_reference([], TraceView(EventLog.load(path)))
    assert any("SPF111" in f.format_text() for f in report.findings), [
        f.format_text() for f in report.findings
    ]


def test_emit_test_generates_failing_then_passing_regression(tmp_path):
    """The generated pytest fails while the bug exists (mutated replay)
    and the same schedule is clean on the fixed (real) engine."""
    result = explore(SMALL, mutation="no-seq-floor")
    schedule = result.violation.schedule
    path = tmp_path / "test_ce_regress.py"
    source = emit_test(
        SMALL, schedule, result.violation.invariant, path,
        mutation="no-seq-floor", details=result.violation.details,
    )
    assert path.read_text() == source
    namespace: dict = {}
    exec(compile(source, str(path), "exec"), namespace)
    test_fn = next(v for k, v in namespace.items() if k.startswith("test_"))
    with pytest.raises(AssertionError, match="history-ring-bound"):
        test_fn()  # bug "present": the pinned interleaving violates
    # The fixed engine (no mutation) survives the same interleaving.
    clean = replay_schedule(SMALL, schedule, mutation=None)
    assert clean.violation is None


# ------------------------------------- pinned historical SPF111 counterexample
#: The shrunk counterexample specmc finds for the pre-fix engine
#: (per-destination sequence stamps ignored at the receiver): rank 1
#: skips past its first TryRecv polls, then receives rank 0's
#: iteration-2 block *before* its iteration-1 block.  Pinned so the
#: shrinker/replay pipeline and the engine fix are both regression-
#: locked end to end.
PINNED_SPF111_SCHEDULE = (
    Action("skip", 0),
    Action("skip", 0),
    Action("skip", 0),
    Action("skip", 1),
    Action("skip", 1),
    Action("deliver", 0, src=1),
    Action("deliver", 1, src=0, idx=1),
)


def test_pinned_spf111_counterexample_reproduces_on_prefix_engine():
    outcome = replay_schedule(
        SMALL, PINNED_SPF111_SCHEDULE, mutation="no-seq-floor"
    )
    assert outcome.violation is not None
    assert outcome.violation.invariant == "history-ring-bound"
    assert "SPF111" in outcome.violation.details


def test_pinned_spf111_counterexample_is_clean_on_fixed_engine():
    """The shipped engine floors each arrival at its predecessor's
    sequence number, so the very same interleaving is harmless."""
    outcome = replay_schedule(SMALL, PINNED_SPF111_SCHEDULE, mutation=None)
    assert outcome.violation is None
    assert outcome.completed


# ------------------------------------------------------------- serialisation
def test_schedule_json_roundtrip():
    schedule = PINNED_SPF111_SCHEDULE
    data = schedule_to_json(schedule)
    assert schedule_from_json(data) == schedule
    assert schedule_from_json(json.loads(json.dumps(data))) == schedule


def test_action_describe_is_stable():
    assert Action("deliver", 1, src=0).describe() == "deliver(0->1)"
    assert Action("deliver", 1, src=0, idx=1).describe() == "deliver(0->1, idx=1)"
    assert Action("skip", 0).describe() == "skip(rank=0)"


# ---------------------------------------------------------------- reporters
def test_render_json_document_shape():
    result = explore(SMALL)
    doc = json.loads(render_json([result]))
    assert doc["tool"] == "specmc"
    assert doc["clean"] is True
    assert doc["exhausted"] is True
    run = doc["runs"][0]
    assert run["config"]["p"] == 2
    assert run["explored"] == result.explored


def test_render_sarif_contains_rule_and_schedule():
    result = explore(SMALL, mutation="seq-skip")
    assert result.violation is not None
    doc = json.loads(render_sarif_mc([result]))
    results = doc["runs"][0]["results"]
    assert len(results) == 1
    assert results[0]["ruleId"] == "sequence-gap-freedom"
    assert results[0]["properties"]["schedule"]


# ---------------------------------------------------------------------- CLI
def test_cli_mc_clean_exit_zero(capsys):
    assert main(["mc", "--p", "2", "--fw", "1", "--iters", "3"]) == 0
    out = capsys.readouterr().out
    assert "exhausted" in out and "specmc: clean" in out


def test_cli_mc_mutation_exit_one_and_artifacts(capsys, tmp_path):
    report = tmp_path / "mc.json"
    trace = tmp_path / "ce.jsonl"
    test_file = tmp_path / "test_ce.py"
    rc = main([
        "mc", "--p", "2", "--fw", "1", "--iters", "3",
        "--mutate", "no-seq-floor",
        "--report", str(report),
        "--emit-trace", str(trace),
        "--emit-test", str(test_file),
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "VIOLATION" in out and "shrunk" in out
    doc = json.loads(report.read_text())
    assert doc["clean"] is False
    assert doc["runs"][0]["shrunk_schedule"]
    assert EventLog.load(trace)
    assert "history_ring_bound" in test_file.read_text()


def test_cli_mc_usage_errors(capsys):
    assert main(["mc", "--p", "9"]) == 2
    assert main(["mc", "--mutate", "bogus"]) == 2
    assert main(["mc", "--budget", "sideways"]) == 2
    assert main(["mc", "--p", "2,banana"]) == 2


def test_cli_mc_sweep_and_json_format(capsys):
    rc = main([
        "mc", "--p", "2", "--fw", "0,1", "--iters", "2",
        "--format", "json", "--budget", "60s",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["runs"]) == 2
    assert doc["exhausted"] is True


# ----------------------------------------------------- liveness / deadlock
def test_drop_message_mutation_is_reported_as_retransmit_bounded():
    # Since the engine grew gap detection, a silently dropped message
    # is no longer an anonymous deadlock: the receiver *requests*
    # retransmission, the mutated transport never answers, and the
    # wedge is attributed to the broken recovery contract.
    result = explore(SMALL, mutation="drop-message")
    assert result.violation is not None
    assert result.violation.invariant == "retransmit-bounded"
    # The counterexample replays: same id under best-effort replay.
    outcome = replay_schedule(
        SMALL, result.violation.schedule, mutation="drop-message"
    )
    assert outcome.violation is not None
    assert outcome.violation.invariant == "retransmit-bounded"
