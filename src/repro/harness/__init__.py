"""Experiment harness: the paper's tables and figures as runnable code.

Each experiment function is self-contained — it builds the calibrated
platform, runs the workload, and returns an :class:`ExperimentResult`
with structured data plus a formatted text table matching the paper's
artifact.  The benchmarks in ``benchmarks/`` and the CLI both call
into this module, so a table is regenerated identically everywhere.
"""

from repro.harness.experiments import (
    HEADLINE,
    ExperimentResult,
    build_nbody,
    fig2_timelines,
    fig4_forward_window,
    fig5_model_speedup,
    fig6_error_sensitivity,
    fig8_nbody_speedup,
    fig9_model_vs_measured,
    run_nbody,
    table2_phase_times,
    table3_threshold_sweep,
)
from repro.harness.registry import EXPERIMENTS, get_experiment
from repro.harness.tables import format_table

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "HEADLINE",
    "build_nbody",
    "fig2_timelines",
    "fig4_forward_window",
    "fig5_model_speedup",
    "fig6_error_sensitivity",
    "fig8_nbody_speedup",
    "fig9_model_vs_measured",
    "format_table",
    "get_experiment",
    "run_nbody",
    "table2_phase_times",
    "table3_threshold_sweep",
]
