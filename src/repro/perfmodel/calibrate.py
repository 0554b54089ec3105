"""Calibrating the model from measurements (the Fig. 9 comparison).

The paper parameterises its model "to represent the N-body simulation
example" and compares predicted with measured speedups.  Here we do
the same: fit the linear t_comm(p) term from the measured per-iteration
communication time of blocking (FW = 0) runs, take the operation counts
from the application's cost model, and compare curves.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.results import RunReport
from repro.perfmodel.model import LinearCommTime, ModelParams, PerformanceModel


def calibrate_tcomm(measured: Mapping[int, RunReport]) -> LinearCommTime:
    """Least-squares fit of t_comm(p) = base + slope·(p-1) from runs.

    Parameters
    ----------
    measured:
        Mapping p → blocking-run (FW = 0) result on p processors.
        Entries with p == 1 are ignored (no communication).

    Returns
    -------
    The fitted :class:`LinearCommTime` (slope clamped to >= 0).
    """
    ps, times = [], []
    for p, result in sorted(measured.items()):
        if p < 2:
            continue
        comm = result.breakdown(how="max")["comm"] / result.iterations
        ps.append(float(p - 1))
        times.append(comm)
    if not ps:
        raise ValueError("need at least one measurement with p >= 2")
    if len(ps) == 1:
        return LinearCommTime(slope=times[0] / ps[0])
    slope, base = np.polyfit(ps, times, 1)
    return LinearCommTime(slope=max(float(slope), 0.0), base=max(float(base), 0.0))


def model_vs_measured(
    params: ModelParams,
    measured_nospec: Mapping[int, RunReport],
    measured_spec: Mapping[int, RunReport],
) -> dict[str, list[float]]:
    """The Fig. 9 dataset: model and measured speedups side by side.

    Speedups are computed relative to the measured (resp. modelled)
    single-processor time.  Returns columns keyed by curve name plus
    per-point percentage deviations.
    """
    model = PerformanceModel(params)
    ps = sorted(p for p in measured_nospec if p in measured_spec)
    if 1 not in measured_nospec:
        raise ValueError("need a p=1 measurement as the speedup baseline")
    t1 = measured_nospec[1].time_per_iteration

    rows: dict[str, list[float]] = {
        "p": [],
        "measured_no_speculation": [],
        "measured_speculation": [],
        "model_no_speculation": [],
        "model_speculation": [],
        "deviation_no_speculation_pct": [],
        "deviation_speculation_pct": [],
    }
    for p in ps:
        meas_ns = t1 / measured_nospec[p].time_per_iteration
        meas_sp = t1 / measured_spec[p].time_per_iteration
        mod_ns = model.speedup_nospec(p)
        mod_sp = model.speedup_spec(p)
        rows["p"].append(float(p))
        rows["measured_no_speculation"].append(meas_ns)
        rows["measured_speculation"].append(meas_sp)
        rows["model_no_speculation"].append(mod_ns)
        rows["model_speculation"].append(mod_sp)
        rows["deviation_no_speculation_pct"].append(
            100.0 * abs(mod_ns - meas_ns) / meas_ns
        )
        rows["deviation_speculation_pct"].append(
            100.0 * abs(mod_sp - meas_sp) / meas_sp
        )
    return rows
