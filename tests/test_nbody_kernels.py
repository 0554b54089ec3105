"""The chunked component-plane kernels against the einsum formulations
they replaced (kept here as oracles, bit for bit), the multi-block force
entry against its own one-block case, and the ``check`` -> ``correct``
handoff of the Eq. 11 ratios in the app."""

import numpy as np
import pytest

from repro import RunConfig, run
from repro.apps import NBodyProgram, nbody_app
from repro.nbody import forces, uniform_cube
from repro.nbody.forces import PLANE, accelerations_by_block, accelerations_from_sources
from repro.nbody.speculation import pairwise_error_ratios
from repro.partition import proportional_partition
from repro.platforms import wustl_1994


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


def chunk(n_cols):
    """Rows per chunk of a kernel whose planes are ``n_cols`` wide: sources
    of the force kernel (columns: targets, a lone one widened to two),
    remote particles of the ratio kernel (columns: local particles)."""
    return max(PLANE // max(n_cols, 2), 1)


WIDE = 600  # columns enough that a block of rows takes several chunks
ROWS = chunk(WIDE)
#: ``(n_t, n_s)`` for the force kernel, ``(n_r, n_l)`` for the ratio kernel.
SHAPES = list(dict.fromkeys([  # (two of the derived shapes may coincide)
    # one chunk of either kernel
    (1, 1), (1, 7), (1, WIDE), (7, 1), (2, 2), (62, 62), (63, 31), (150, 200),
    # rows of several chunks: sources (remote particles) filling one exactly,
    # one row over, a last chunk of one after two full ones, a ragged one
    (WIDE, ROWS), (WIDE, ROWS + 1), (WIDE, 2 * ROWS + 1), (WIDE, 3 * ROWS - 1),
    (ROWS, WIDE), (ROWS + 1, WIDE), (2 * ROWS + 1, WIDE), (3 * ROWS - 1, WIDE),
    # one and two targets (planes two wide), chunks of two rows and of one
    (1, chunk(1) + 1), (2, chunk(2) + 3), (PLANE // 2, 5), (PLANE, 3),
    (5, PLANE // 2), (3, PLANE),
    # more columns than a plane holds: targets tiled, the last tile two wide
    (PLANE + 1, 3), (3, PLANE + 1),
    # the tile edges of the target-tiled layout this one replaced
    (54, WIDE), (55, WIDE), (109, WIDE), (161, WIDE), (5, 16384), (3, 32768),
]))
#: Self-force sizes: one chunk, several, a last chunk of one source (313),
#: sources filling four chunks exactly (256).
SELF_SIZES = [1, 2, 7, 62, 150, WIDE, 313, 256]
assert 313 % chunk(313) == 1 and 256 == 4 * chunk(256)


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
    """Massless sources contribute ``-0.0``; both sums start from ``+0.0``,
    and the sum a chunk hands the next through the carry row stays ``+0.0``."""
    rng = np.random.default_rng(3)
    n_s = 2 * ROWS + 1
    tp, sp = blocks(rng, WIDE)[:, :3], blocks(rng, n_s)[:, :3]
    got = accelerations_from_sources(tp, sp, np.zeros(n_s))
    want = einsum_accelerations(tp, sp, np.zeros(n_s))
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got).any()


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


# ------------------------------------------------------ multi-block parity
def assert_each_block_equals_its_own_call(tp, parts, self_block, softening):
    got = accelerations_by_block(tp, parts, G=0.5, softening=softening, self_block=self_block)
    assert got.shape == (len(parts),) + tp.shape and got.flags.c_contiguous
    for k, (sp, sm) in enumerate(parts):
        want = accelerations_from_sources(
            tp, sp, sm, G=0.5, softening=softening, exclude_self_pairs=k == self_block
        )
        assert got[k].tobytes() == want.tobytes(), k


def source_blocks(rng, counts):
    return [(blocks(rng, n)[:, :3], rng.uniform(0.0, 1e-3, n)) for n in counts]


@pytest.mark.parametrize("rank", [0, 7, 15])
@pytest.mark.parametrize("softening", [0.1, 0.0])
def test_unequal_blocks_each_equal_their_own_call(rank, softening):
    """The 11-114 spread of the Fig. 8 platform, as one rank's ``compute``
    passes it: rank 0's 114 targets take four chunks, rank 15's 11 one."""
    partition = proportional_partition(1000, wustl_1994(p=16).capacities())
    counts = [len(idx) for idx in partition]
    assert min(counts) < 20 and max(counts) > 100
    rng = np.random.default_rng(rank)
    parts = source_blocks(rng, counts)
    assert chunk(counts[0]) < sum(counts) < chunk(counts[15])
    assert_each_block_equals_its_own_call(parts[rank][0], parts, rank, softening)


@pytest.mark.parametrize("self_block", [None, 0, 2, 5])
def test_a_block_larger_than_a_chunk_beside_smaller_ones(self_block):
    """Whole small blocks share a chunk; the big ones span several, carried;
    an empty block sums to zero; the self block may sit anywhere."""
    counts = [10, ROWS - 10, 3 * ROWS + 1, 0, 1, 2 * ROWS]
    rng = np.random.default_rng(5)
    parts = source_blocks(rng, counts)
    tp = blocks(rng, WIDE)[:, :3]
    if self_block is not None:
        tp = blocks(rng, counts[self_block])[:, :3]
        parts[self_block] = (tp, parts[self_block][1])
    for softening in (0.1, 0.0):
        assert_each_block_equals_its_own_call(tp, parts, self_block, softening)


def test_massless_blocks_keep_the_sign_of_zero_across_chunks():
    rng = np.random.default_rng(6)
    counts = [ROWS + 1, 2, 2 * ROWS + 1]
    parts = [(blocks(rng, n)[:, :3], np.zeros(n)) for n in counts]
    got = accelerations_by_block(blocks(rng, WIDE)[:, :3], parts)
    assert not got.any() and not np.signbit(got).any()


def test_multi_block_entry_validates_each_block():
    tp = np.zeros((2, 3))
    good = (np.zeros((4, 3)), np.ones(4))
    with pytest.raises(ValueError):
        accelerations_by_block(tp, [good, (np.zeros((4, 2)), np.ones(4))])
    with pytest.raises(ValueError):
        accelerations_by_block(tp, [good, (np.zeros((4, 3)), np.ones(3))])
    with pytest.raises(ValueError):
        accelerations_by_block(tp, [good, good], self_block=1)
    assert accelerations_by_block(tp, []).shape == (0, 2, 3)


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


def counted_kernel(monkeypatch):
    """Count every entry into the force kernel, from the app or through
    ``accelerations_from_sources``."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return accelerations_by_block(*args, **kwargs)

    monkeypatch.setattr(nbody_app, "accelerations_by_block", counting)
    monkeypatch.setattr(forces, "accelerations_by_block", counting)
    return calls


def test_loopback_run_calls_the_kernel_once_per_compute_and_per_correct(monkeypatch):
    calls = counted_kernel(monkeypatch)
    prog = make_program(threshold=1e-4)
    report = run(RunConfig(prog, backend="loopback", fw=1, cascade="none"))
    corrects = sum(s.recomputes for s in report.stats)
    assert corrects > 0
    assert len(calls) == prog.nprocs * prog.iterations + corrects


def test_compute_and_correct_are_one_kernel_call_each(monkeypatch):
    calls = counted_kernel(monkeypatch)
    prog = make_program()
    next_block, inputs, speculated, actual = rejected_check(prog)
    assert len(calls) == 1  # rejected_check's compute
    prog.correct(0, next_block, inputs, 1, speculated, actual, 0)
    assert len(calls) == 2
    accelerations_from_sources(inputs[0][:, :3], inputs[1][:, :3], prog.masses[1])
    assert len(calls) == 3  # the one-block case enters the same kernel


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
