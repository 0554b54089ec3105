"""``scripts/ab.py``'s statistics on synthetic data: a paired bootstrap
interval that contains 1 when nothing moved and excludes it when one
side is 10 % faster; the claim rule's three tests (interval, win count,
median gap against A's interquartile range), each failing on its own;
``--count``'s call counter on functions of known call counts; and the
lockstep's visit order, round by round over every workload, on a
stubbed worker."""

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


# ------------------------------------------------------------ the lockstep
class _StubWorker:
    """Answers every sample at once; logs its start, samples and close.
    The ``drop`` sample (workload, label, its number among that side's
    samples of that workload, warm-ups included) fails, as an mp sample
    may."""

    log = []
    drop = None

    def __init__(self, label, src, workload, fw):
        self.label, self.workload = label, workload
        self.log.append(("start", workload, label))

    def sample(self, request=""):
        self.log.append(("sample", self.workload, self.label))
        served = self.log.count(("sample", self.workload, self.label))
        reply = {"deterministic": self.workload != "mp", "setup": 0.001,
                 "peak_rss_mb": 1.0, "wall": 1.0, "makespans": ["2.0"]}
        if (self.workload, self.label, served) == self.drop:
            del reply["wall"]
            reply["failure"] = "worker died"
        return reply

    def close(self):
        self.log.append(("close", self.workload, self.label))


def test_each_round_samples_every_workload_before_the_next(monkeypatch):
    """Two workloads, eight rounds: a warm-up round, then each round
    takes the first workload's three samples, then the second's, in the
    round's order of the sides; all six workers are fresh after six
    rounds.  A failed mp sample drops that workload's round only."""
    _StubWorker.log, _StubWorker.drop = [], ("mp", "B", 3)
    monkeypatch.setattr(AB, "Worker", _StubWorker)
    trees = {"A": pathlib.Path("a"), "A'": pathlib.Path("a"), "B": pathlib.Path("b")}
    results = AB.lockstep(["des", "mp"], trees, 1, 8)

    log = _StubWorker.log
    starts = [i for i, entry in enumerate(log) if entry[0] == "start"]
    assert starts == [*range(6), *range(6 + 42 + 6, 6 + 42 + 6 + 6)]
    assert [entry[1:] for entry in log[:6]] == [
        ("des", "A"), ("des", "A'"), ("des", "B"),
        ("mp", "A"), ("mp", "A'"), ("mp", "B")]
    samples = [entry[1:] for entry in log if entry[0] == "sample"]
    assert len(samples) == 3 * 2 * (1 + 6 + 1 + 2)
    # The warm-up round (the last order), then round 0 (the first).
    assert samples[:12] == [
        ("des", "B"), ("des", "A'"), ("des", "A"),
        ("mp", "B"), ("mp", "A'"), ("mp", "A"),
        ("des", "A"), ("des", "A'"), ("des", "B"),
        ("mp", "A"), ("mp", "A'"), ("mp", "B")]
    assert [w for w, _ in samples] == (["des"] * 3 + ["mp"] * 3) * 10
    assert sum(entry[0] == "close" for entry in log) == 12
    (des, des_dropped), (mp, mp_dropped) = results["des"], results["mp"]
    assert des_dropped == 0 and all(len(side.wall) == 8 for side in des.values())
    assert mp_dropped == 1 and all(len(side.wall) == 7 for side in mp.values())


def test_a_failed_deterministic_sample_is_refused(monkeypatch):
    _StubWorker.log, _StubWorker.drop = [], ("des", "A", 2)
    monkeypatch.setattr(AB, "Worker", _StubWorker)
    trees = {"A": pathlib.Path("a"), "A'": pathlib.Path("a"), "B": pathlib.Path("b")}
    with pytest.raises(AB.Refused):
        AB.lockstep(["des", "mp"], trees, 1, 8)
    assert sum(entry[0] == "close" for entry in _StubWorker.log) == 6
