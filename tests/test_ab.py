"""``scripts/ab.py``'s statistics on synthetic data: a paired bootstrap
interval that contains 1 when nothing moved and excludes it when one
side is 10 % faster; the claim rule's three tests (interval, win count,
median gap against A's interquartile range), each failing on its own;
and ``--count``'s call counter on functions of known call counts."""

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


# ------------------------------------------------------------ the claim rule
def _steady(n=24, seed=11):
    """Walls with a 2 % spread: an interquartile range well under 10 %."""
    rng = random.Random(seed)
    return [1.0 + 0.02 * rng.random() for _ in range(n)]


def _outcomes(tests):
    return {test.name: test.passed for test in tests}


def test_a_shift_that_loses_five_rounds_fails_only_the_win_count():
    rng = random.Random(17)
    base = _steady()
    again = [wall * (1.0 + rng.uniform(-0.005, 0.005)) for wall in base]
    b = [wall * (1.01 if i % 5 == 0 else 0.9) for i, wall in enumerate(base)]
    assert sum(x < y for x, y in zip(b, base)) == 19  # under ceil(0.9 * 24) = 22
    tests = AB.claim_tests(base, again, b)
    assert _outcomes(tests) == {"interval": True, "wins": False, "medians": True}
    assert "19/24, needs 22" in tests[1].detail
    assert "failed: wins" in AB.verdict("run_wall_s", tests, 0.9)


def test_a_shift_inside_the_spread_fails_the_median_test():
    """Every round won and the interval clear of 1, but the medians are
    5 % apart on walls whose quartiles lie 20 % apart."""
    base = _drifting()
    again = list(base)
    b = [0.95 * wall for wall in base]
    assert _outcomes(AB.claim_tests(base, again, b)) == {
        "interval": True, "wins": True, "medians": False}


def test_a_clean_ten_percent_shift_passes_all_three():
    rng = random.Random(13)
    base = _steady()
    again = [wall * (1.0 + rng.uniform(-0.005, 0.005)) for wall in base]
    b = [0.9 * wall * (1.0 + rng.uniform(-0.01, 0.01)) for wall in base]
    tests = AB.claim_tests(base, again, b)
    assert all(test.passed for test in tests)
    assert AB.verdict("run_wall_s", tests, 0.9) == (
        "B moved run_wall_s lower: all three tests pass")


def test_a_drifting_a_side_fails_the_interval_test():
    base = _steady()
    again = [wall * 1.1 for wall in base]  # A against itself moved
    b = [0.9 * wall for wall in base]
    assert _outcomes(AB.claim_tests(base, again, b))["interval"] is False


def test_ties_count_for_neither_side():
    paired = AB.paired_ratio([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    assert (paired.wins, paired.losses, paired.n) == (1, 1, 3)


# ------------------------------------------------------------ --count
def _leaf(text):
    return len(text)


def _known(n):
    """1 frame, a list comprehension's frame, then n calls of ``_leaf``,
    each making one C call."""
    return [_leaf("ab") for _ in range(n)]


def _yields(n):
    yield from range(n)


def test_count_calls_counts_frames_and_c_calls_exactly():
    calls, c_calls, result = AB.count_calls(_known, 3)
    assert result == [2, 2, 2]
    assert (calls, c_calls) == (5, 3)
    # A generator's frame is entered once per resume: n yields, then the
    # resume that ends it.  ``sum`` is the one C call.
    assert AB.count_calls(lambda: sum(_yields(4)))[:2] == (1 + 5, 1)


def test_two_counts_of_one_deterministic_call_agree():
    from repro.core import LinearExtrapolation

    def guess():
        return LinearExtrapolation().extrapolate([0, 1, 2], [0.0, 1.5, 3.0], 3)

    first, second = AB.count_calls(guess), AB.count_calls(guess)
    assert first[:2] == second[:2]
    assert first[0] > 0 and first[1] > 0
