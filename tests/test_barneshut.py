"""Tests for the Barnes-Hut O(N log N) force backend."""

import numpy as np
import pytest

from repro.nbody import accelerations, plummer_sphere, uniform_cube
from repro.nbody.barneshut import Octree, bh_accelerations


def test_octree_validation():
    with pytest.raises(ValueError):
        Octree(np.zeros((3, 2)), np.ones(3))
    with pytest.raises(ValueError):
        Octree(np.zeros((3, 3)), np.ones(4))


def test_octree_empty_and_single():
    tree = Octree(np.zeros((0, 3)), np.zeros(0))
    assert tree.root is None
    acc, n = bh_accelerations(np.zeros((2, 3)), tree)
    np.testing.assert_array_equal(acc, 0.0)
    assert n == 0

    one = Octree(np.array([[1.0, 2.0, 3.0]]), np.array([5.0]))
    assert one.root.mass == 5.0
    np.testing.assert_allclose(one.root.com, [1.0, 2.0, 3.0])


def test_octree_mass_and_com_consistency():
    ps = uniform_cube(64, seed=3)
    tree = Octree(ps.pos, ps.mass)
    assert tree.root.mass == pytest.approx(ps.mass.sum())
    expected_com = (ps.mass[:, None] * ps.pos).sum(axis=0) / ps.mass.sum()
    np.testing.assert_allclose(tree.root.com, expected_com)
    # Children partition the root's particles.
    child_idx = np.concatenate([c.indices for c in tree.root.children])
    assert sorted(child_idx.tolist()) == list(range(64))


def test_zero_opening_angle_is_exact():
    ps = uniform_cube(50, seed=4, softening=0.05)
    direct = accelerations(ps.pos, ps.mass, softening=0.05)
    bh, _ = bh_accelerations(ps.pos, Octree(ps.pos, ps.mass), softening=0.05,
                             opening_angle=0.0)
    np.testing.assert_allclose(bh, direct, rtol=1e-10, atol=1e-12)


def test_accuracy_improves_with_smaller_theta():
    ps = plummer_sphere(150, seed=5, softening=0.05)
    direct = accelerations(ps.pos, ps.mass, softening=0.05)
    norm = np.linalg.norm(direct, axis=1).mean()

    def err(theta):
        bh, _ = bh_accelerations(
            ps.pos, Octree(ps.pos, ps.mass), softening=0.05, opening_angle=theta
        )
        return np.linalg.norm(bh - direct, axis=1).mean() / norm

    e_loose, e_mid, e_tight = err(1.0), err(0.5), err(0.2)
    assert e_tight <= e_mid <= e_loose
    assert e_mid < 0.05  # monopole at theta=0.5: ~percent-level accuracy


def test_interaction_count_scales_sub_quadratically():
    softening = 0.05
    counts = {}
    for n in (256, 1024):
        ps = uniform_cube(n, seed=6, softening=softening)
        _, cnt = bh_accelerations(
            ps.pos, Octree(ps.pos, ps.mass), softening=softening, opening_angle=0.7
        )
        counts[n] = cnt
    # Per-particle interactions grow ~logarithmically: quadrupling N
    # should not even double them (direct summation would quadruple).
    per_256 = counts[256] / 256
    per_1024 = counts[1024] / 1024
    assert per_1024 < 2.0 * per_256
    # And the absolute count beats direct summation decisively at 1024.
    assert counts[1024] < 0.25 * 1024 * 1024


def test_self_interaction_vanishes():
    pos = np.array([[0.0, 0.0, 0.0]])
    mass = np.array([1.0])
    acc, _ = bh_accelerations(pos, Octree(pos, mass), softening=0.0)
    np.testing.assert_array_equal(acc, 0.0)


def test_validation_of_inputs():
    ps = uniform_cube(8, seed=0)
    tree = Octree(ps.pos, ps.mass)
    with pytest.raises(ValueError):
        bh_accelerations(np.zeros((2, 2)), tree)
    with pytest.raises(ValueError):
        bh_accelerations(ps.pos, tree, opening_angle=-0.1)


def test_momentum_conservation_approximate():
    """BH forces are not exactly pairwise-antisymmetric, but total force
    stays small relative to the force scale."""
    ps = plummer_sphere(200, seed=7, softening=0.05)
    bh, _ = bh_accelerations(ps.pos, Octree(ps.pos, ps.mass), softening=0.05,
                             opening_angle=0.5)
    total = np.einsum("i,ij->j", ps.mass, bh)
    scale = np.abs(ps.mass[:, None] * bh).sum(axis=0)
    assert np.all(np.abs(total) < 0.05 * scale)
