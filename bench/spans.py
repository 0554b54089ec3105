"""In-memory spans for the traced pass, recorded from outside ``src/``.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index
of the span that was open when this one began (None for a root), and
``run`` is the identifier every span of one ``api.run`` call shares.
The program under test is single-threaded on the des and loopback
backends, so one stack of open spans is enough.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

NAME, START, END, PARENT, RUN = range(5)

#: The four numerics hooks every backend calls into the program through.
HOOKS = ("compute", "speculate", "check", "correct")


class SpanRecorder:
    """Keeps every span in memory until :meth:`write` is called."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []

    def begin(self, name: str, run: Optional[str] = None) -> None:
        """Open a span under the innermost open one (whose run id it takes)."""
        parent = self._open[-1] if self._open else None
        if parent is not None:
            run = self.spans[parent][RUN]
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, run])

    def end(self) -> None:
        """Close the innermost open span."""
        now = perf_counter()
        self.spans[self._open.pop()][END] = now

    def write(self, path: Path, workload: str) -> None:
        """Dump the spans as JSON (name, start, end, parent, run id)."""
        keys = ("name", "start", "end", "parent", "run")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": workload,
            "spans": [dict(zip(keys, span)) for span in self.spans],
        }))


def traced(program_cls: type, recorder: SpanRecorder) -> type:
    """Subclass of ``program_cls`` that records one ``apps.<hook>`` span
    around the ``super()`` call of each numerics hook."""

    class Traced(program_cls):
        pass

    def wrap(hook: str):
        name = f"apps.{hook}"

        def method(self, *args, **kwargs):
            recorder.begin(name)
            try:
                return getattr(super(Traced, self), hook)(*args, **kwargs)
            finally:
                recorder.end()

        method.__name__ = hook
        return method

    for hook in HOOKS:
        setattr(Traced, hook, wrap(hook))
    Traced.__name__ = Traced.__qualname__ = f"Traced{program_cls.__name__}"
    return Traced


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def totals_by_name(spans: list[list[Any]]) -> dict[str, tuple[float, int]]:
    """name -> (summed self time, number of spans)."""
    out: dict[str, tuple[float, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        seconds, calls = out.get(span[NAME], (0.0, 0))
        out[span[NAME]] = (seconds + own, calls + 1)
    return out


def tree_problems(spans: list[list[Any]]) -> list[str]:
    """What is wrong with the span tree; empty when it is well formed.

    Children lie inside their parents and share their run id, a parent
    is recorded before its children, no self time is negative, and each
    run id has exactly one root.
    """
    problems = []
    roots: dict[Any, int] = {}
    for i, span in enumerate(spans):
        if span[END] is None or span[END] < span[START]:
            problems.append(f"span {i} ({span[NAME]}) was never closed")
            continue
        if span[PARENT] is None:
            roots[span[RUN]] = roots.get(span[RUN], 0) + 1
            continue
        if not 0 <= span[PARENT] < i:
            problems.append(f"span {i} has parent {span[PARENT]}")
            continue
        parent = spans[span[PARENT]]
        if span[RUN] != parent[RUN]:
            problems.append(f"span {i} left its parent's run {parent[RUN]!r}")
        if span[START] < parent[START] or span[END] > parent[END]:
            problems.append(f"span {i} ({span[NAME]}) outlives its parent")
    if not problems:
        problems += [f"span {i} ({spans[i][NAME]}) has negative self time"
                     for i, own in enumerate(self_times(spans)) if own < 0]
    problems += [f"run {run!r} has {n} roots" for run, n in roots.items() if n != 1]
    runs = {span[RUN] for span in spans}
    problems += [f"run {run!r} has no root" for run in runs if run not in roots]
    return problems
