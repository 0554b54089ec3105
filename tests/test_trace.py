"""Unit tests for phase traces, breakdowns and the ASCII Gantt."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RunReport
from repro.trace import (
    PHASES,
    Interval,
    PhaseBreakdown,
    PhaseTrace,
    merge_breakdowns,
    render_gantt,
)


def make_trace():
    t = PhaseTrace(rank=0)
    t.record("compute", 0.0, 2.0, iteration=0)
    t.record("comm", 2.0, 3.0, iteration=0)
    t.record("compute", 3.0, 5.0, iteration=1)
    t.record("check", 5.0, 5.5, iteration=1)
    return t


def test_interval_rejects_negative():
    with pytest.raises(ValueError):
        Interval("compute", 2.0, 1.0)


def test_trace_totals():
    t = make_trace()
    assert t.total("compute") == pytest.approx(4.0)
    assert t.total("comm") == pytest.approx(1.0)
    assert t.total("spec") == 0.0


def test_trace_span():
    assert make_trace().span() == pytest.approx(5.5)
    assert PhaseTrace().span() == 0.0


def test_trace_drops_zero_length():
    t = PhaseTrace()
    t.record("compute", 1.0, 1.0)
    assert len(t) == 0


def test_trace_rejects_negative_interval():
    t = PhaseTrace()
    with pytest.raises(ValueError):
        t.record("compute", 2.0, 1.0)


def test_trace_iterations_listing():
    assert make_trace().iterations() == [0, 1]


def test_breakdown_from_trace():
    b = make_trace().breakdown()
    assert b["compute"] == pytest.approx(4.0)
    assert b["comm"] == pytest.approx(1.0)
    assert b["missing-phase"] == 0.0
    assert b.span == pytest.approx(5.5)


def test_breakdown_scaled():
    b = PhaseBreakdown(totals={"compute": 4.0}, span=8.0)
    half = b.scaled(0.5)
    assert half["compute"] == 2.0
    assert half.span == 4.0


def test_merge_breakdowns_max():
    a = PhaseBreakdown(totals={"compute": 1.0, "comm": 5.0}, span=6.0)
    b = PhaseBreakdown(totals={"compute": 3.0, "comm": 2.0}, span=5.0)
    m = merge_breakdowns([a, b], how="max")
    assert m["compute"] == 3.0
    assert m["comm"] == 5.0
    assert m.span == 6.0


def test_merge_breakdowns_sum_and_mean():
    a = PhaseBreakdown(totals={"compute": 1.0}, span=1.0)
    b = PhaseBreakdown(totals={"compute": 3.0}, span=3.0)
    assert merge_breakdowns([a, b], how="sum")["compute"] == 4.0
    assert merge_breakdowns([a, b], how="mean")["compute"] == 2.0


def test_merge_breakdowns_empty():
    m = merge_breakdowns([])
    assert m.total == 0.0


def test_merge_breakdowns_bad_mode():
    with pytest.raises(ValueError):
        merge_breakdowns([PhaseBreakdown()], how="median")


def test_gantt_renders_rows_and_legend():
    t0 = make_trace()
    t1 = PhaseTrace(rank=1)
    t1.record("comm", 0.0, 5.5)
    out = render_gantt([t0, t1], width=22)
    lines = out.splitlines()
    assert lines[0].startswith("P0  |")
    assert lines[1].startswith("P1  |")
    assert "C" in lines[0]  # compute glyph
    assert "-" in lines[1]  # comm glyph
    assert "legend" in out


def test_gantt_dominant_phase_per_bucket():
    t = PhaseTrace(rank=0)
    t.record("compute", 0.0, 0.9)
    t.record("comm", 0.9, 1.0)
    out = render_gantt([t], width=1)
    # compute dominates the single bucket
    assert "|C|" in out


def test_gantt_empty_traces():
    assert "no traces" in render_gantt([])


def test_gantt_width_validation():
    with pytest.raises(ValueError):
        render_gantt([PhaseTrace()], width=0)



# ------------------------------------------------- the tuple-list reference
class TupleTrace:
    """``PhaseTrace`` as a list of ``(phase, start, end, iteration)``
    tuples, the layout the packed float64 store replaced: every read of
    the store must give these floats bit for bit."""

    def __init__(self, rank=0):
        self.rank = rank
        self.records = []

    def record(self, phase, start, end, iteration=None):
        if end < start:
            raise ValueError(f"negative-duration interval: {phase} [{start}, {end}]")
        if end == start:
            return
        self.records.append((phase, start, end, iteration))

    def total(self, phase):
        return sum(end - start for p, start, end, _ in self.records if p == phase)

    def span(self):
        if not self.records:
            return 0.0
        return max(row[2] for row in self.records) - min(row[1] for row in self.records)

    def breakdown(self):
        totals = {phase: 0.0 for phase in PHASES}
        for phase, start, end, _ in self.records:
            totals[phase] = totals.get(phase, 0.0) + (end - start)
        return PhaseBreakdown(totals=totals, span=self.span())

    def iterations(self):
        return sorted({row[3] for row in self.records if row[3] is not None})

    def where(self, keep):
        sub = TupleTrace(self.rank)
        sub.records = [row for row in self.records if keep(row[3])]
        return sub


def same_breakdown(got, want):
    """Bit-equal totals in the same key order, and the same span."""
    assert repr(list(got.totals.items())) == repr(list(want.totals.items()))
    assert repr(got.span) == repr(want.span)


def same_trace(got, want):
    assert len(got) == len(want.records)
    assert repr(got.records) == repr(want.records)
    assert got.intervals == [Interval(*row) for row in want.records]
    for phase in PHASES + ("warm-up", "barrier", "never-recorded"):
        assert repr(got.total(phase)) == repr(want.total(phase))
    assert repr(got.span()) == repr(want.span())
    same_breakdown(got.breakdown(), want.breakdown())
    assert got.iterations() == want.iterations()


#: Clock readings: any float, or a decimal fraction, which rounds, so
#: that summing in another order moves bits.
_TIMES = st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                   st.integers(-10**7, 10**7).map(lambda k: k / 10))
_ROW = st.tuples(
    # Names outside PHASES too: they follow the canonical six, in
    # first-seen order.
    st.one_of(st.just("compute"), st.sampled_from(("warm-up", "barrier")),
              st.sampled_from(PHASES)),
    _TIMES,
    # end - start: zero-length rows are dropped, negative ones raise.
    st.one_of(st.just(0.0), _TIMES.map(lambda t: t / 1e3)),
    st.one_of(st.none(), st.integers(0, 3)),
)
#: Short traces, and long ones where a phase has more than the eight
#: rows after which np.add.reduce sums pairwise.
ROWS = st.one_of(st.lists(_ROW, max_size=6), st.lists(_ROW, min_size=20, max_size=60))


def replay(rows, rank=0):
    """The same rows into the packed trace and into the reference."""
    got, want = PhaseTrace(rank), TupleTrace(rank)
    for phase, start, offset, iteration in rows:
        end = start + offset
        if end < start:
            with pytest.raises(ValueError):
                got.record(phase, start, end, iteration)
            with pytest.raises(ValueError):
                want.record(phase, start, end, iteration)
            continue
        got.record(phase, start, end, iteration)
        want.record(phase, start, end, iteration)
    return got, want


@settings(max_examples=200, deadline=None)
@given(rows=ROWS)
def test_packed_trace_reads_bit_equal_to_the_tuple_reference(rows):
    got, want = replay(rows)
    same_trace(got, want)
    for iteration in want.iterations() + [99]:
        same_trace(got.since(iteration),
                   want.where(lambda tag: tag is None or tag >= iteration))
    # An mp worker pickles its trace home: the copy reads the same and
    # keeps its phase table for further rows.
    copy = pickle.loads(pickle.dumps(got))
    assert copy.rank == got.rank
    same_trace(copy, want)
    copy.record("barrier", 2e6, 2e6 + 1.0, 7)
    want.record("barrier", 2e6, 2e6 + 1.0, 7)
    same_trace(copy, want)


@settings(max_examples=100, deadline=None)
@given(ranks=st.lists(ROWS, min_size=1, max_size=3), iterations=st.integers(1, 7))
def test_steady_breakdown_bit_equal_to_the_tuple_reference(ranks, iterations):
    pairs = [replay(rows, rank) for rank, rows in enumerate(ranks)]
    report = RunReport(
        backend="des", results={}, wall_seconds=1.0,
        traces=[got for got, _ in pairs], stats=[], window_history={},
        fw=1, iterations=iterations,
    )
    for skip in range(iterations):
        kept = [want.where(lambda tag: tag is None or tag >= skip)
                for _, want in pairs]
        for how in ("max", "sum", "mean"):
            reference = merge_breakdowns(
                [want.breakdown() for want in kept], how=how,
            ).scaled(1.0 / (iterations - skip))
            same_breakdown(report.steady_breakdown(how=how, skip=skip), reference)
