"""``scripts/ab.py``'s paired-ratio statistic on synthetic data: a
bootstrap interval that contains 1 when nothing moved and excludes it
when one side is 10 % faster."""

import importlib.util
import pathlib
import random
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_ab_module():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves annotations there
    spec.loader.exec_module(module)
    return module


AB = _load_ab_module()


def _drifting(n=24, seed=3):
    """Walls that drift with the host's phase by up to 40 %."""
    rng = random.Random(seed)
    return [1.0 + 0.4 * rng.random() for _ in range(n)]


def test_constant_ratios_give_an_interval_that_contains_one():
    base = _drifting()
    paired = AB.paired_ratio(list(base), base)
    assert paired.contains_one()
    assert (paired.ratio, paired.wins, paired.n) == (1.0, 0, 24)


def test_same_distribution_with_noise_contains_one():
    rng = random.Random(5)
    base = _drifting()
    other = [wall * (1.0 + rng.uniform(-0.05, 0.05)) for wall in base]
    assert AB.paired_ratio(other, base).contains_one()


def test_a_ten_percent_shift_excludes_one():
    rng = random.Random(7)
    base = _drifting()
    faster = [0.9 * wall * (1.0 + rng.uniform(-0.05, 0.05)) for wall in base]
    paired = AB.paired_ratio(faster, base)
    assert not paired.contains_one()
    assert paired.high < 1.0
    assert paired.ratio == pytest.approx(0.9, abs=0.03)
    assert paired.wins == 24


def test_unpaired_series_are_refused():
    with pytest.raises(ValueError):
        AB.paired_ratio([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        AB.paired_ratio([], [])
