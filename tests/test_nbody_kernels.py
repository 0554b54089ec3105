"""The chunked component-plane kernels against the einsum formulations
they replaced (kept here as oracles, bit for bit), the multi-block force
entry against its own one-block case, the force kernel's ``nearest``
output, the certified Eq. 11 check against the exact pass, and the
``check`` -> ``correct`` handoff in the app."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunConfig, run
from repro.apps import NBodyProgram, nbody_app
from repro.nbody import ParticleSystem, forces, uniform_cube
from repro.nbody.forces import PLANE, accelerations_by_block, accelerations_from_sources
from repro.nbody.speculation import pairwise_error_ratios, uncertified
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


def einsum_nearest(tp, sp):
    """Each source's least unsoftened squared separation to any target."""
    delta = sp[None, :, :] - tp[:, None, :]
    return np.einsum("ijk,ijk->ij", delta, delta).min(axis=0)


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
    got = pairwise_error_ratios(speculated, actual, actual)
    assert np.array_equal(got, einsum_ratios(speculated, actual, actual))
    assert np.isfinite(got).all()


@pytest.mark.parametrize("n_t,n_s", SHAPES)
def test_nearest_output_equals_einsum_oracle_and_moves_no_force_bit(n_t, n_s):
    """Targets tiled past ``PLANE`` fold their minima; a lone target is
    widened to two equal columns."""
    rng = np.random.default_rng(1000 * n_t + n_s + 7)
    tp, sp = blocks(rng, n_t)[:, :3], blocks(rng, n_s)[:, :3]
    sm = rng.uniform(0.0, 1e-3, n_s)
    nearest = np.full(n_s, -1.0)
    got = accelerations_by_block(tp, [(sp, sm)], softening=0.1, nearest=nearest)
    want = accelerations_by_block(tp, [(sp, sm)], softening=0.1)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(nearest, einsum_nearest(tp, sp))


@pytest.mark.parametrize("self_block", [None, 2])
@pytest.mark.parametrize("softening", [0.1, 0.0])
def test_nearest_output_spans_every_block_in_order(self_block, softening):
    counts = [10, ROWS - 10, 3 * ROWS + 1, 0, 1, 2 * ROWS]
    rng = np.random.default_rng(8)
    parts = source_blocks(rng, counts)
    tp = blocks(rng, WIDE)[:, :3] if self_block is None else parts[self_block][0]
    nearest = np.empty(sum(counts))
    got = accelerations_by_block(
        tp, parts, softening=softening, self_block=self_block, nearest=nearest
    )
    want = accelerations_by_block(tp, parts, softening=softening, self_block=self_block)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(nearest, einsum_nearest(tp, np.concatenate([sp for sp, _ in parts])))


def test_nearest_output_is_inf_without_targets_and_checks_its_shape():
    parts = [(np.ones((4, 3)), np.ones(4))]
    nearest = np.zeros(4)
    accelerations_by_block(np.zeros((0, 3)), parts, nearest=nearest)
    assert np.isposinf(nearest).all()
    with pytest.raises(ValueError):
        accelerations_by_block(np.zeros((2, 3)), parts, nearest=np.zeros(3))


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
    """Drive one rejecting ``check``; return what ``correct`` is handed
    (the inputs with the actual block in place of the rejected one)."""
    inputs = {r: prog.initial_block(r) for r in range(prog.nprocs)}
    actual = inputs[k]
    speculated = actual + 0.05
    spec_inputs = dict(inputs)
    spec_inputs[k] = speculated
    next_block = prog.compute(rank, spec_inputs, 0)
    assert prog.check(rank, k, speculated, actual, inputs[rank]) > prog.threshold
    return next_block, inputs, speculated, actual


def correct_one(prog, next_block, inputs, speculated, actual, rank=0, k=1):
    """Price and repair one rejection of ``k``'s block, as the engine does."""
    ops = prog.correct_ops(rank, inputs, k, speculated, actual, 0)
    return prog.correct(rank, next_block, inputs, [(k, speculated, actual)], 0), ops


def test_loopback_run_computes_ratios_at_most_once_per_check_on_uncertified_rows(monkeypatch):
    passed, unsure = [], []

    def counting(speculated_pos, *args, **kwargs):
        passed.append(len(speculated_pos))
        return pairwise_error_ratios(speculated_pos, *args, **kwargs)

    def recording(*args):
        rows = uncertified(*args)
        unsure.append(len(rows))
        return rows

    monkeypatch.setattr(nbody_app, "pairwise_error_ratios", counting)
    monkeypatch.setattr(nbody_app, "uncertified", recording)
    prog = make_program(threshold=1e-3)
    report = run(RunConfig(prog, backend="loopback", fw=1))
    checks = sum(s.checks for s in report.stats)
    assert sum(s.recomputes for s in report.stats) > 0
    # Every check had compute's bound, and the pass saw only what it left.
    assert len(passed) <= checks and len(unsure) == checks
    assert sum(passed) == sum(unsure) < prog.spec_stats.particles_checked
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
    """Once per compute and once per repaired (rank, iteration): a rank
    repairs all of an iteration's rejections with one kernel call."""
    calls = counted_kernel(monkeypatch)
    prog = make_program(threshold=1e-4)
    repaired = set()
    price = prog.correct_ops

    def recording(rank, inputs, k, speculated, actual, t):
        repaired.add((rank, t))
        return price(rank, inputs, k, speculated, actual, t)

    prog.correct_ops = recording
    report = run(RunConfig(prog, backend="loopback", fw=1, cascade="none"))
    rejections = sum(s.recomputes for s in report.stats)
    assert rejections > len(repaired) > 0
    assert len(calls) == prog.nprocs * prog.iterations + len(repaired)


def test_compute_and_correct_are_one_kernel_call_each(monkeypatch):
    calls = counted_kernel(monkeypatch)
    prog = make_program()
    next_block, inputs, speculated, actual = rejected_check(prog)
    assert len(calls) == 1  # rejected_check's compute
    correct_one(prog, next_block, inputs, speculated, actual)
    assert len(calls) == 2
    accelerations_from_sources(inputs[0][:, :3], inputs[1][:, :3], prog.masses[1])
    assert len(calls) == 3  # the one-block case enters the same kernel


@pytest.mark.parametrize("stranger", ["speculated", "actual", "own"])
def test_correct_recomputes_for_arrays_the_check_did_not_see(stranger):
    prog = make_program()
    next_block, inputs, speculated, actual = rejected_check(prog)
    want, want_ops = correct_one(make_program(), next_block, inputs, speculated, actual)

    # A poisoned handoff must not be trusted for an equal-valued copy.
    [held] = prog._rejected[0]
    held[3] = np.zeros_like(held[3])
    if stranger == "speculated":
        speculated = speculated.copy()
    elif stranger == "actual":
        actual = actual.copy()
    else:
        inputs[0] = inputs[0].copy()
    got, got_ops = correct_one(prog, next_block, inputs, speculated, actual)
    assert np.array_equal(got, want) and got_ops == want_ops
    assert not np.array_equal(got, next_block)


def test_correct_reuses_the_rejecting_checks_ratios(monkeypatch):
    prog = make_program()
    next_block, inputs, speculated, actual = rejected_check(prog)
    want, want_ops = correct_one(make_program(), next_block, inputs, speculated, actual)
    monkeypatch.setattr(nbody_app, "pairwise_error_ratios", None)  # any call raises
    got, got_ops = correct_one(prog, next_block, inputs, speculated, actual)
    assert np.array_equal(got, want) and got_ops == want_ops


@pytest.mark.parametrize("incremental", [True, False])
def test_no_block_is_kept_past_an_accept_or_a_correct(incremental):
    prog = make_program(incremental_correction=incremental)
    own, actual = prog.initial_block(0), prog.initial_block(1)
    assert prog.check(0, 1, actual + 1e-9, actual, own) <= prog.threshold
    assert prog._rejected == {}

    # Several masks wait per rank until the rank's one repair takes them.
    next_block, inputs, speculated, actual = rejected_check(prog, rank=0)
    _, _, speculated2, actual2 = rejected_check(prog, rank=0, k=2)
    rejected_check(prog, rank=2)
    assert {r: len(held) for r, held in prog._rejected.items()} == {0: 2, 2: 1}
    rejected = [(1, speculated, actual), (2, speculated2, actual2)]
    for k, spec, act in rejected:
        prog.correct_ops(0, inputs, k, spec, act, 0)
    prog.correct(0, next_block, inputs, rejected, 0)
    assert set(prog._rejected) == {2}  # one program serves every rank

    # Nor past a run: every speculation, bound and mask is taken, through
    # rejections and the re-speculations of a cascade.
    prog = make_program(incremental_correction=incremental, threshold=1e-3)
    report = run(RunConfig(prog, backend="loopback", fw=2))
    assert sum(s.recomputes for s in report.stats) > sum(s.spec_rejected for s in report.stats)
    assert prog._rejected == prog._speculated == prog._nearest == {}


# ------------------------------------------------ the certified Eq. 11 check
THETA = 0.01


def checked(prog, speculated, actual, own):
    """Rank 0's ``check`` of k=1's block: the ratio it returns, the
    particles it rejected, and the mask it holds for ``correct``."""
    worst = prog.check(0, 1, speculated, actual, own)
    held = prog._rejected.pop(0, None)
    return worst, prog.spec_stats.particles_rejected, None if held is None else held[0][3]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_own=st.integers(1, 9),
    n_remote=st.integers(1, 9),
    offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
    shape=st.sampled_from(["radial", "random", "short", "still"]),
    coincide=st.booleans(),
    nan=st.sampled_from([None, "speculated", "actual", "own"]),
)
def test_certified_check_agrees_with_the_exact_pass(
    seed, n_own, n_remote, offset, shape, coincide, nan
):
    """The app's path (speculate -> compute -> check) against a direct
    ``check``, which has no bound and runs the exact pass on every row.
    A displacement of θ times the nearest distance, straight away from
    that particle, puts the ratio within 1e-12 of θ where the triangle
    inequality is tight and only the margin decides; a coincident
    particle puts it at the 1e-12 distance floor."""
    rng = np.random.default_rng(seed)
    n = n_own + n_remote
    system = ParticleSystem(np.full(n, 1e-3), np.zeros((n, 3)), np.zeros((n, 3)), softening=0.1)
    prog = NBodyProgram(system, [n_own, n_remote], 1, threshold=THETA)
    assert [len(m) for m in prog.masses] == [n_own, n_remote]
    own = np.zeros((n_own, 6))
    own[:, :3] = offset + rng.uniform(-1.0, 1.0, (n_own, 3))
    actual = np.zeros((n_remote, 6))
    actual[:, :3] = offset + rng.uniform(-1.0, 1.0, (n_remote, 3))
    if coincide:
        actual[0, :3] = own[-1, :3]
    gap = actual[:, None, :3] - own[None, :, :3]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", gap, gap))
    reach = THETA * np.maximum(dist.min(axis=1), 1e-12)
    reach *= 1.0 + rng.uniform(-1e-12, 1e-12, n_remote)
    if shape == "radial":
        away = gap[np.arange(n_remote), dist.argmin(axis=1)]
    else:
        away = rng.normal(size=(n_remote, 3))
    norm = np.linalg.norm(away, axis=1)
    away /= np.where(norm > 0, norm, 1.0)[:, None]
    away *= {"radial": 1.0, "random": 1.0, "short": 0.5, "still": 0.0}[shape]
    last = actual.copy()
    last[:, :3] += away * reach[:, None]
    poisoned = {"speculated": last, "actual": actual, "own": own}.get(nan)
    if poisoned is not None:
        poisoned[rng.integers(len(poisoned)), rng.integers(3)] = np.nan

    speculated = prog.speculate(0, 1, [0], [last], 1)  # zero velocity: r* = last
    assert np.array_equal(speculated, last, equal_nan=True)
    prog.compute(0, {0: own, 1: speculated}, 0)
    got, got_rejected, got_bad = checked(prog, speculated, actual, own)
    assert prog._nearest == {} and prog._speculated == {}

    ref = NBodyProgram(system, [n_own, n_remote], 1, threshold=THETA)
    want, want_rejected, want_bad = checked(ref, speculated, actual, own)
    over = pairwise_error_ratios(speculated[:, :3], actual[:, :3], own[:, :3]) > THETA
    assert got_rejected == want_rejected == np.count_nonzero(over)
    assert (got_bad is None) == (want_bad is None)
    if want_bad is not None:
        assert np.array_equal(got_bad, want_bad) and np.array_equal(want_bad, over)
    if want > THETA or np.isnan(want):
        assert got == want or (np.isnan(got) and np.isnan(want))
    else:
        assert want <= got <= THETA


def test_a_square_that_overflows_certifies_nothing():
    """|r* - r_b|^2 overflows to inf while |r - r_b|^2 does not, and the
    ratio is above θ: the clamp keeps the bound from clearing it."""
    own = np.zeros((1, 3))
    actual = np.array([[1.33e154, 0.0, 0.0]])
    speculated = np.array([[1.344e154, 0.0, 0.0]])
    nearest2 = np.empty(1)
    with np.errstate(over="ignore"):
        accelerations_by_block(own, [(speculated, np.ones(1))], nearest=nearest2)
    assert np.isposinf(nearest2).all()
    assert pairwise_error_ratios(speculated, actual, own)[0] > THETA
    assert uncertified(speculated, actual, nearest2, THETA).tolist() == [0]


def loopback_p4(fw=1, cascade="recompute"):
    prog = NBodyProgram(uniform_cube(64, seed=0, softening=0.1), [1e6] * 4, 6, threshold=1e-3)
    return prog, RunConfig(prog, backend="loopback", fw=fw, cascade=cascade)


def des_p16():
    platform = wustl_1994(p=16, seed=1)
    system = uniform_cube(160, seed=42, softening=0.1)
    prog = NBodyProgram(system, platform.capacities(), 6, dt=0.015, threshold=0.01)
    return prog, RunConfig(prog, backend="des", fw=1, cluster=platform.cluster())


#: name -> (set-up, whether some check must find its own block corrected
#: since compute: fw=2 without a cascade leaves chain[t] repaired under
#: an iteration computed from the old one).
RUNS = {
    "loopback-p4": (loopback_p4, False),
    "des-p16": (des_p16, False),
    "loopback-p4-fw2-none": (lambda: loopback_p4(fw=2, cascade="none"), True),
}


@pytest.mark.parametrize("name", RUNS)
def test_runs_are_identical_with_the_bound_and_without_it(name, monkeypatch):
    setup, mismatched = RUNS[name]
    take = NBodyProgram._take_nearest
    found = []

    def watched(self, *args):
        nearest2 = take(self, *args)
        found.append(nearest2 is not None)
        return nearest2

    def absent(self, *args):
        take(self, *args)  # taken all the same, so nothing is kept
        return None

    monkeypatch.setattr(NBodyProgram, "_take_nearest", watched)
    prog, config = setup()
    report = run(config)
    monkeypatch.setattr(NBodyProgram, "_take_nearest", absent)
    bare, config = setup()
    bare_report = run(config)

    assert prog.spec_stats.particles_rejected > 0
    assert any(found) and (not all(found)) == mismatched
    for rank, block in report.results.items():
        assert block.tobytes() == bare_report.results[rank].tobytes()
    assert report.stats == bare_report.stats
    assert report.wall_seconds == bare_report.wall_seconds
    assert prog.spec_stats == bare.spec_stats


def test_a_blocking_run_never_asks_for_the_nearest_output(monkeypatch):
    asked = []

    def counting(*args, nearest=None, **kwargs):
        asked.append(nearest is not None)
        return accelerations_by_block(*args, nearest=nearest, **kwargs)

    monkeypatch.setattr(nbody_app, "accelerations_by_block", counting)
    prog, config = loopback_p4(fw=0)
    run(config)
    assert len(asked) == prog.nprocs * prog.iterations and not any(asked)
