"""What a DES message may cost in Python objects — an exact counter.

The sibling of ``test_des_event_budget.py``: that file pins calendar
events, this one pins Python-level constructor frames (``__init__`` and
``__post_init__`` calls seen by ``sys.setprofile``) on the same p = 4,
10-iteration toy runs, 108 messages each.  Records are frozen
dataclasses built through ``repro.trace.records.record``; what nobody
reads during a run (``Interval`` objects, a verification generator for
an arrival that verifies nothing, a predicate for a wildcard receive)
is not built at all.  What a run does keep, one phase row per charge
and per receive, is pinned in bytes per row.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from collections import Counter

import pytest

from repro.api import RunConfig, run
from repro.des import Store
from repro.engine import topology
from repro.engine.core import build_engine
from repro.engine.events import Arrival
from repro.harness.toys import ConstantProgram, JumpyProgram
from repro.platforms import wustl_1994
from repro.trace import Interval, PhaseTrace

P, ITERATIONS = 4, 10
MESSAGES = P * (P - 1) * (ITERATIONS - 1)
PROGRAMS = {
    "constant": lambda: ConstantProgram(
        nprocs=P, iterations=ITERATIONS, block_size=64, ops_per_compute=2e5),
    "jumpy": lambda: JumpyProgram(
        nprocs=P, iterations=ITERATIONS, block_size=64, ops_per_compute=2e5,
        threshold=0.5),
}
#: (program, fw) -> constructor frames inside ``api.run``.  With an
#: ``Interval`` (and its ``__post_init__``) per charge and receive and a
#: fresh ``TryRecv`` / ``CascadeEnd`` per yield this counter read
#: 1279 / 1679 / 2017; with a ``RunResult`` re-wrapped in a ``RunReport``
#: whose ``timings`` were summed eagerly (a ``PhaseBreakdown`` per rank
#: and one merged) 977 / 1187 / 1382; with a DES driver object built
#: per run 971 / 1181 / 1376.
PINNED = {("constant", 0): 970, ("constant", 1): 1180, ("jumpy", 1): 1375}


def constructor_frames(config: RunConfig):
    """Run ``config``; the report and a tally of constructor frames by
    qualified name."""
    frames: Counter = Counter()

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_name in ("__init__", "__post_init__"):
            frames[f"{type(frame.f_locals.get('self')).__name__}.{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        report = run(config)
    finally:
        sys.setprofile(None)
    return report, frames


def des_config(name: str, fw: int) -> RunConfig:
    return RunConfig(PROGRAMS[name](), backend="des", fw=fw,
                     cluster=wustl_1994(p=P).cluster(), sanitize=False)


@pytest.mark.parametrize("name,fw", PINNED)
def test_constructor_frames_stay_within_the_budget(name, fw):
    report, frames = constructor_frames(des_config(name, fw))
    assert sum(s.messages_sent for s in report.stats) == MESSAGES
    assert not [who for who in frames if who.startswith("Interval.")]
    assert sum(frames.values()) == PINNED[name, fw], sorted(frames.items())


#: Bytes the traces keep alive per phase row.  A row is 32 packed bytes;
#: the rest is array over-allocation and four small objects per trace.
#: As a tuple in a list, with its boxed floats, a row kept about 100.
ROW_BYTES = 40


def test_phase_rows_stay_within_the_byte_budget():
    tracemalloc.start()
    try:
        report = run(des_config("jumpy", 1))
        rows = sum(len(trace) for trace in report.traces)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        report.traces.clear()
        gc.collect()
        freed = kept - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows > 200
    assert freed <= ROW_BYTES * rows, freed / rows


def test_intervals_materialise_on_read_and_total_like_the_rows():
    for trace in run(des_config("jumpy", 1)).traces:
        intervals = trace.intervals
        assert len(trace) == len(intervals) > 0
        assert all(type(iv) is Interval for iv in intervals)
        assert intervals == trace.intervals  # equal records, read after read
        # The reference: today's sums, spelled over Interval objects.
        totals: dict = {}
        for iv in intervals:
            totals[iv.phase] = totals.get(iv.phase, 0.0) + iv.duration
        breakdown = trace.breakdown()
        for phase, total in totals.items():
            assert breakdown[phase] == total == trace.total(phase)
        assert breakdown.span == (max(iv.end for iv in intervals)
                                  - min(iv.start for iv in intervals))


def test_intervals_are_read_only_views_of_the_rows():
    trace = PhaseTrace(3)
    trace.record("compute", 0.0, 1.5, 0)
    trace.record("comm", 1.5, 1.5, 0)  # zero-length: dropped
    trace.record("comm", 1.5, 2.0, 1)
    assert trace.intervals == [Interval("compute", 0.0, 1.5, 0),
                               Interval("comm", 1.5, 2.0, 1)]
    sub = trace.since(1)
    assert len(sub) == 1 and sub.total("comm") == 0.5
    assert sub.intervals == [Interval("comm", 1.5, 2.0, 1)]
    # Sub-traces are cut from the rows; nothing assigns Intervals back.
    with pytest.raises(AttributeError):
        trace.intervals = []


def test_accept_is_none_for_an_unspeculated_arrival():
    program = PROGRAMS["constant"]()
    engine = build_engine(program, 0, topology(program), fw=1)
    block = program.initial_block(1)
    assert engine._accept(Arrival(src=1, iteration=1, payload=block)) is None
    assert engine.actual[1, 1] is block
    # ...and a generator when the arrival settles a speculation.
    engine.spec_used[2, 1] = block
    assert engine._accept(Arrival(src=2, iteration=1, payload=block)) is not None


def test_wildcard_receive_hands_the_mailbox_no_predicate():
    cluster = wustl_1994(p=2).cluster()
    gets = []
    proc = cluster.processors[0]

    class SpyStore(Store):
        def get(self, filter=None):
            gets.append(filter)
            return super().get(filter)

        def peek(self, filter=None):
            gets.append(filter)
            return super().peek(filter)

    proc.mailbox = SpyStore(cluster.env)
    assert proc.try_recv() is None
    receive = proc.recv()
    get = next(receive)
    assert gets == [None, None] and get.filter is None
    next(proc.recv(src=1), None)
    assert callable(gets[-1])
