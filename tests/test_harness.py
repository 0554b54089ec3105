"""Tests for the experiment harness (tables, toys, experiments, registry)."""

import numpy as np
import pytest

from repro.harness import (
    EXPERIMENTS,
    fig2_timelines,
    fig4_forward_window,
    fig5_model_speedup,
    fig6_error_sensitivity,
    fig8_nbody_speedup,
    fig9_model_vs_measured,
    format_table,
    get_experiment,
    run_nbody,
    table2_phase_times,
    table3_threshold_sweep,
)
from repro.harness.toys import ConstantProgram, JumpyProgram

#: Miniature configuration so harness tests stay fast.
FAST = {"n_particles": 120, "iterations": 5}


# ---------------------------------------------------------------- formatting
def test_format_table_basic():
    out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "bb" in lines[2]
    assert "2.500" in out and "0.250" in out


def test_format_table_row_width_check():
    with pytest.raises(ValueError):
        format_table(["a"], [[1, 2]])


def test_format_table_empty_rows():
    out = format_table(["x", "y"], [])
    assert "x" in out


# --------------------------------------------------------------------- toys
def test_constant_program_state_never_changes():
    prog = ConstantProgram(nprocs=2, iterations=3)
    b = prog.initial_block(0)
    nxt = prog.compute(0, {0: b, 1: prog.initial_block(1)}, 0)
    np.testing.assert_array_equal(nxt, b)


def test_jumpy_program_defeats_extrapolation():
    prog = JumpyProgram(nprocs=2, iterations=3)
    inputs = {0: prog.initial_block(0), 1: prog.initial_block(1)}
    a = prog.compute(0, inputs, 0)
    b = prog.compute(0, inputs, 1)
    assert not np.allclose(a, b)


def test_toy_cost_model():
    prog = ConstantProgram(nprocs=2, iterations=3, ops_per_compute=100.0)
    assert prog.compute_ops(0) == 100.0
    assert prog.speculate_ops(0, 1) == pytest.approx(5.0)
    assert prog.check_ops(0, 1) == pytest.approx(5.0)
    assert prog.block_nbytes(0) == 64


# ------------------------------------------------------------------ registry
def test_registry_contains_all_artifacts():
    assert set(EXPERIMENTS) == {
        "fig2", "fig4", "fig5", "fig6", "fig8", "table2", "table3", "fig9"
    }


def test_get_experiment_normalises_names():
    assert get_experiment("FIG8") is EXPERIMENTS["fig8"]
    assert get_experiment("Table_2") is EXPERIMENTS["table2"]
    with pytest.raises(KeyError):
        get_experiment("fig99")


# --------------------------------------------------------------- experiments
def test_fig2_ordering():
    result = fig2_timelines(iterations=3)
    times = {label: t for label, t, _ in result.rows}
    assert times["(b) speculation, all good"] < times["(a) no speculation (FW=0)"]
    assert times["(a) no speculation (FW=0)"] < times["(c) speculation, all bad"]
    assert "legend" in result.text


def test_fig4_monotone_in_window():
    result = fig4_forward_window(iterations=5)
    makespans = [t for _, t, _ in result.rows]
    assert makespans[0] > makespans[1] > makespans[2]


def test_fig5_has_16_rows():
    result = fig5_model_speedup()
    assert len(result.rows) == 16
    assert result.rows[0][1] == pytest.approx(1.0)


def test_fig6_monotone_decreasing():
    result = fig6_error_sensitivity(k_values=np.linspace(0, 0.2, 5))
    spec = [r[1] for r in result.rows]
    assert all(a >= b for a, b in zip(spec, spec[1:]))
    assert 0 < result.extra["crossover_k"] <= 1


def test_run_nbody_fast_config():
    prog, res = run_nbody(2, 1, config=FAST)
    assert res.nprocs == 2
    assert res.iterations == FAST["iterations"]
    assert prog.system.n == FAST["n_particles"]


def test_fig8_small_config():
    result = fig8_nbody_speedup(ps=(1, 2, 4), fws=(0, 1), config=FAST)
    assert [int(r[0]) for r in result.rows] == [1, 2, 4]
    # p=1 rows are exactly 1.0; all speedups positive and below max.
    assert result.rows[0][1] == 1.0
    for row in result.rows:
        assert all(s > 0 for s in row[1:])
        assert row[1] <= row[-1] + 1e-9


def test_table2_small_config():
    result = table2_phase_times(p=4, fws=(0, 1), config=FAST)
    rows = {r[0]: r for r in result.rows}
    assert rows[0][3] == 0.0  # no speculation time at FW=0
    assert rows[1][3] > 0.0
    assert rows[1][2] <= rows[0][2] + 1e-9  # comm shrinks


def test_table3_small_config():
    result = table3_threshold_sweep(thetas=(0.05, 0.005), p=4, config=FAST)
    assert len(result.rows) == 2
    loose, tight = result.rows
    assert tight[1] >= loose[1]  # more rejections at tighter theta


def test_fig9_small_config():
    result = fig9_model_vs_measured(ps=(1, 2, 4), config=FAST)
    assert len(result.rows) == 3
    for row in result.rows:
        assert row[3] < 50.0 and row[6] < 50.0  # deviations sane
    assert result.extra["k"] >= 0.0
