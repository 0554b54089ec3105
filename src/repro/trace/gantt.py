"""ASCII Gantt rendering of phase traces.

Reproduces the *timeline* figures of the paper (Fig. 2 and Fig. 4) as
text: one row per processor, time flowing left to right, one character
per time bucket, keyed by phase.
"""

from __future__ import annotations

import sys
from typing import Mapping, Optional, Sequence

from repro.trace.phases import PhaseTrace

#: One-character glyph per phase.
GLYPHS: Mapping[str, str] = {
    "compute": "C",
    "comm": "-",
    "spec": "s",
    "check": "k",
    "correct": "X",
    "idle": ".",
}


def render_gantt(
    traces: Sequence[PhaseTrace],
    width: int = 80,
    t_end: Optional[float] = None,
) -> str:
    """Render processor traces as an ASCII timeline.

    Parameters
    ----------
    traces:
        One :class:`PhaseTrace` per processor (row order preserved).
    width:
        Number of character buckets on the time axis.
    t_end:
        Time mapped to the right edge; defaults to the latest interval
        end over all traces.

    Returns
    -------
    A multi-line string with a glyph legend below the chart.  When
    several phases fall in the same bucket, the phase covering the most
    time in that bucket wins.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not traces:
        return "(no traces)\n"

    if t_end is None:
        ends = [max((i.end for i in t.intervals), default=0.0) for t in traces]
        t_end = max(ends) if ends else 0.0
    if t_end <= 0 or t_end / width < sys.float_info.min:
        # No span at all, or one so small that a bucket width is
        # denormal (bucket indices would overflow): draw on a unit
        # axis instead.
        t_end = 1.0
    dt = t_end / width

    lines = []
    for trace in traces:
        # Accumulate per-bucket phase coverage.
        coverage: list[dict[str, float]] = [dict() for _ in range(width)]
        for iv in trace.intervals:
            if iv.start >= t_end:
                continue
            b0 = int(iv.start / dt)
            b1 = min(int((iv.end - 1e-12) / dt), width - 1) if iv.end > iv.start else b0
            for b in range(b0, b1 + 1):
                lo = max(iv.start, b * dt)
                hi = min(iv.end, (b + 1) * dt)
                if hi > lo:
                    coverage[b][iv.phase] = coverage[b].get(iv.phase, 0.0) + (hi - lo)
        row = []
        for bucket in coverage:
            if not bucket:
                row.append(" ")
            else:
                phase = max(bucket.items(), key=lambda kv: kv[1])[0]
                row.append(GLYPHS.get(phase, "?"))
        lines.append(f"P{trace.rank:<3d}|{''.join(row)}|")

    out = "\n".join(lines)
    axis = f"    t=0{' ' * max(0, width - len(f'{t_end:.3g}') - 4)}t={t_end:.3g}"
    out += "\n" + axis
    used = {iv.phase for t in traces for iv in t.intervals}
    entries = [f"{GLYPHS.get(p, '?')}={p}" for p in sorted(used)]
    out += "\n    legend: " + "  ".join(entries)
    return out + "\n"
