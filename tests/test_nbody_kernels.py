"""The tiled component-plane kernels against the einsum formulations
they replaced (kept here as oracles, bit for bit), and the
``check`` -> ``correct`` handoff of the Eq. 11 ratios in the app."""

import numpy as np
import pytest

from repro import RunConfig, run
from repro.apps import NBodyProgram, nbody_app
from repro.nbody import uniform_cube
from repro.nbody.forces import PLANE, accelerations_from_sources
from repro.nbody.speculation import pairwise_error_ratios


# ------------------------------------------------------------------ oracles
def einsum_accelerations(tp, sp, sm, G=1.0, softening=0.01, exclude_self_pairs=False):
    delta = sp[None, :, :] - tp[:, None, :]
    dist2 = np.einsum("ijk,ijk->ij", delta, delta) + softening**2
    with np.errstate(divide="ignore"):
        inv_d3 = dist2 ** (-1.5)
    if exclude_self_pairs:
        np.fill_diagonal(inv_d3, 0.0)
    return G * np.einsum("ij,j,ijk->ik", inv_d3, sm, delta)


def einsum_ratios(sp, ap, lp, eps=1e-12):
    displacement = np.linalg.norm(sp - ap, axis=1)
    delta = ap[:, None, :] - lp[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
    return displacement / np.maximum(dist.min(axis=1), eps)


def blocks(rng, n):
    """An ``(n, 6)`` block as the app holds it; kernels get ``[:, :3]``."""
    return rng.uniform(-0.5, 0.5, (n, 6))


def tile(n_s):
    """Targets per tile of the force kernel for ``n_s`` sources."""
    return max(PLANE // n_s, 2)


WIDE = 600  # sources enough that a block of targets takes several tiles
SHAPES = [
    # one tile
    (1, 1), (1, 7), (1, WIDE), (7, 1), (2, 2), (62, 62), (63, 31), (150, 200),
    # several: exact fit, a last tile one target wide (twice), a ragged one
    (tile(WIDE), WIDE), (tile(WIDE) + 1, WIDE), (2 * tile(WIDE) + 1, WIDE),
    (3 * tile(WIDE) - 1, WIDE),
    # the narrowest tiles there are
    (5, PLANE // 2), (3, PLANE),
]
#: Self-force sizes: one tile, several, and a last tile one target wide.
SELF_SIZES = [1, 2, 7, 62, 150, WIDE,
              next(n for n in range(200, WIDE) if n % tile(n) == 1)]


# ----------------------------------------------------------- kernel parity
@pytest.mark.parametrize("n_t,n_s", SHAPES)
@pytest.mark.parametrize("G,softening", [(1.0, 0.1), (6.674e-3, 0.01), (2.5, 0.0)])
def test_force_kernel_equals_einsum_oracle(n_t, n_s, G, softening):
    rng = np.random.default_rng(1000 * n_t + n_s)
    tp, sp = blocks(rng, n_t)[:, :3], blocks(rng, n_s)[:, :3]
    assert tp.strides == (48, 8)  # the column views the app passes
    sm = rng.uniform(0.0, 1e-3, n_s)
    got = accelerations_from_sources(tp, sp, sm, G=G, softening=softening)
    want = einsum_accelerations(tp, sp, sm, G=G, softening=softening)
    assert np.array_equal(got, want)
    assert got.shape == (n_t, 3) and got.flags.c_contiguous


@pytest.mark.parametrize("n", SELF_SIZES)
@pytest.mark.parametrize("softening", [0.1, 0.0])
def test_self_force_kernel_equals_einsum_oracle(n, softening):
    """``softening=0.0`` is the inf-then-zero diagonal."""
    rng = np.random.default_rng(n)
    pos = blocks(rng, n)[:, :3]
    mass = rng.uniform(0.0, 1e-3, n)
    got = accelerations_from_sources(
        pos, pos, mass, G=0.5, softening=softening, exclude_self_pairs=True
    )
    want = einsum_accelerations(pos, pos, mass, 0.5, softening, True)
    assert np.isfinite(got).all()
    assert np.array_equal(got, want)


def test_force_kernel_equals_oracle_to_the_sign_of_zero():
    """Massless sources contribute ``-0.0``; both sums start from ``+0.0``."""
    rng = np.random.default_rng(3)
    tp, sp = blocks(rng, tile(WIDE) + 1)[:, :3], blocks(rng, WIDE)[:, :3]
    got = accelerations_from_sources(tp, sp, np.zeros(WIDE))
    want = einsum_accelerations(tp, sp, np.zeros(WIDE))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_r,n_l", SHAPES)
def test_ratio_kernel_equals_einsum_oracle(n_r, n_l):
    rng = np.random.default_rng(1000 * n_r + n_l)
    actual, local = blocks(rng, n_r), blocks(rng, n_l)
    speculated = actual + 1e-4 * blocks(rng, n_r)
    got = pairwise_error_ratios(speculated[:, :3], actual[:, :3], local[:, :3])
    assert np.array_equal(got, einsum_ratios(speculated[:, :3], actual[:, :3], local[:, :3]))


def test_ratio_kernel_floors_coincident_particles_like_the_oracle():
    rng = np.random.default_rng(4)
    actual = blocks(rng, 9)[:, :3]
    speculated = actual + 1e-3
    got = pairwise_error_ratios(speculated, actual, actual, eps=1e-9)
    assert np.array_equal(got, einsum_ratios(speculated, actual, actual, eps=1e-9))
    assert np.isfinite(got).all()


# ------------------------------------------------- check -> correct handoff
def make_program(**kw):
    system = uniform_cube(48, seed=0, softening=0.1)
    return NBodyProgram(system, [1e6] * 3, 6, dt=0.01, **kw)


def rejected_check(prog, rank=0, k=1):
    """Drive one rejecting ``check``; return what ``correct`` is handed."""
    inputs = {r: prog.initial_block(r) for r in range(prog.nprocs)}
    actual = inputs[k]
    speculated = actual + 0.05
    spec_inputs = dict(inputs)
    spec_inputs[k] = speculated
    next_block = prog.compute(rank, spec_inputs, 0)
    assert prog.check(rank, k, speculated, actual, inputs[rank]) > prog.threshold
    return next_block, spec_inputs, speculated, actual


def test_loopback_run_computes_ratios_once_per_check(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return pairwise_error_ratios(*args, **kwargs)

    monkeypatch.setattr(nbody_app, "pairwise_error_ratios", counting)
    prog = make_program(threshold=1e-4)
    report = run(RunConfig(prog, backend="loopback", fw=1))
    checks = sum(s.checks for s in report.stats)
    assert sum(s.recomputes for s in report.stats) > 0
    assert len(calls) == checks
    assert prog._rejected == {}


@pytest.mark.parametrize("stranger", ["speculated", "actual", "own"])
def test_correct_recomputes_for_arrays_the_check_did_not_see(stranger):
    prog = make_program()
    next_block, inputs, speculated, actual = rejected_check(prog)
    want, want_ops = make_program().correct(0, next_block, inputs, 1, speculated, actual, 0)

    # A poisoned handoff must not be trusted for an equal-valued copy.
    held = prog._rejected[0]
    prog._rejected[0] = held[:3] + (np.zeros_like(held[3]),)
    if stranger == "speculated":
        speculated = speculated.copy()
    elif stranger == "actual":
        actual = actual.copy()
    else:
        inputs[0] = inputs[0].copy()
    got, got_ops = prog.correct(0, next_block, inputs, 1, speculated, actual, 0)
    assert np.array_equal(got, want) and got_ops == want_ops
    assert not np.array_equal(got, next_block)


def test_correct_reuses_the_rejecting_checks_ratios(monkeypatch):
    prog = make_program()
    next_block, inputs, speculated, actual = rejected_check(prog)
    want, want_ops = make_program().correct(0, next_block, inputs, 1, speculated, actual, 0)
    monkeypatch.setattr(nbody_app, "pairwise_error_ratios", None)  # any call raises
    got, got_ops = prog.correct(0, next_block, inputs, 1, speculated, actual, 0)
    assert np.array_equal(got, want) and got_ops == want_ops


@pytest.mark.parametrize("incremental", [True, False])
def test_no_block_is_kept_past_an_accept_or_a_correct(incremental):
    prog = make_program(incremental_correction=incremental)
    own, actual = prog.initial_block(0), prog.initial_block(1)
    assert prog.check(0, 1, actual + 1e-9, actual, own) <= prog.threshold
    assert prog._rejected == {}

    next_block, inputs, speculated, actual = rejected_check(prog, rank=0)
    rejected_check(prog, rank=2)
    assert set(prog._rejected) == {0, 2}  # one program serves every rank
    prog.correct(0, next_block, inputs, 1, speculated, actual, 0)
    assert set(prog._rejected) == {2}
