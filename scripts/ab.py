"""Lockstep A/B of one benchmark workload: REV's ``src`` against this tree's.

A wall-time difference of a few per cent is smaller than this host's
drift between two runs, so two separate ``bench/run.py`` runs cannot
show it.  This script times both trees in lockstep instead:

* it extracts REV's ``src`` with ``scripts/parity.py``'s ``extract_src``
  (``git archive``) and starts three long-lived workers: ``A`` and
  ``A'`` on REV's tree, ``B`` on this tree's.  Each imports this
  checkout's ``bench/workloads.py`` unchanged, so the benchmark code is
  the same on every side, and samples at the benchmark's seed, so the
  des-nbody-p16 makespan pins hold;
* each round takes one single sample of the workload at one FW from
  every worker, in an order that cycles through all six orders of the
  three, so no side is always first.  After each cycle the three
  workers are replaced by fresh ones;
* per workload it prints each side's median and quartiles, and for
  ``A'/A`` (the A/A row: tree against itself) and ``B/A`` the median of
  the per-round ratios with a bootstrap 95 % interval and how many
  rounds the numerator won, then each side's peak RSS (self plus
  children, as ``bench/workloads.py::peak_rss_mb`` reads it; the
  highest of its workers).

A change moved a metric when the ``B/A`` interval excludes 1 while the
``A'/A`` interval contains it.  The script refuses to compare (exit 2)
when a deterministic backend's virtual makespans differ between the
trees, or when any of its samples fails (a makespan off its pin is a
failure): then the change moved the simulation, not only its speed.  A
round in which an mp sample fails is dropped whole, and the script then
exits 1 after its report.

The verdict applies the whole claim rule to the wall metric, and
reports each of its three tests: the ``B/A`` interval excludes 1 (while
``A'/A`` contains it), ``B`` wins at least nine tenths of the rounds
(ties count for neither side), and the medians differ by more than
``A``'s interquartile range.  A change moved the metric only when all
three pass.

``--count`` counts instead of timing: per workload, one fresh worker per
tree takes a warm-up sample, then one sample under ``sys.setprofile``,
and the script prints each tree's Python calls (generator resumes
included) and C calls, and ``B - A``.  Counts of a deterministic
workload repeat exactly, so a plumbing change states its delta before
any timing.  It exits 2, as the timed mode does, when the trees'
makespans differ or a deterministic sample fails.

``--import`` measures instead, in ten fresh processes per tree, what
``import repro.api`` costs over ``import numpy``: peak RSS, wall time,
the number of modules it loads, and which of OpenSSL's ``_hashlib``,
``multiprocessing`` and ``numpy.ma`` it loads.

Usage (about 12 minutes for the four workloads at the default 24 rounds)::

    python scripts/ab.py [--rev HEAD] [--workload des-null-p16 ...]
                         [--fw 1] [--rounds 24]
    python scripts/ab.py --count [--rev HEAD] [--workload ...] [--fw 1]
    python scripts/ab.py --import [--rev HEAD]
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load(name: str, path: Path) -> Any:
    """A repo script as a module, without putting its directory on sys.path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_RUN = _load("bench_run", BENCH / "run.py")
PARITY = _load("parity", ROOT / "scripts" / "parity.py")
WORKLOADS = tuple(w["name"] for w in BENCH_RUN.load_declaration()["workloads"])
#: The worker order of each round cycles through these.
ORDERS = tuple(itertools.permutations(("A", "A'", "B")))
#: Modules an in-process run does not need, reported by ``--import``.
WATCHED = ("_hashlib", "multiprocessing", "numpy.ma")
BOOTSTRAP_RESAMPLES = 4000
IMPORT_REPEATS = 10


class Paired(NamedTuple):
    """The median of ``num[i] / den[i]`` over paired samples, with a
    percentile-bootstrap 95 % interval, and how often ``num`` was lower
    (``wins``) and higher (``losses``); a tie counts for neither."""

    ratio: float
    low: float
    high: float
    wins: int
    n: int
    losses: int

    def contains_one(self) -> bool:
        return self.low <= 1.0 <= self.high


def paired_ratio(num: Sequence[float], den: Sequence[float]) -> Paired:
    """Compare two sides sampled in lockstep, one ratio per round."""
    if len(num) != len(den) or not num:
        raise ValueError("paired_ratio needs two equally long, non-empty series")
    ratios = [a / b for a, b in zip(num, den)]
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP_RESAMPLES))
    low = medians[int(0.025 * (BOOTSTRAP_RESAMPLES - 1))]
    high = medians[int(round(0.975 * (BOOTSTRAP_RESAMPLES - 1)))]
    wins = sum(a < b for a, b in zip(num, den))
    losses = sum(a > b for a, b in zip(num, den))
    return Paired(statistics.median(ratios), low, high, wins, len(ratios), losses)


class RuleTest(NamedTuple):
    """One test of the claim rule: its name, whether it passed, and why."""

    name: str
    passed: bool
    detail: str


def claim_tests(a: Sequence[float], a_prime: Sequence[float],
                b: Sequence[float]) -> List[RuleTest]:
    """The claim rule's three tests of ``b`` against ``a``, sampled in
    lockstep with ``a_prime`` (``a``'s tree run again):

    * *interval*: the ``B/A`` bootstrap interval excludes 1 while the
      ``A'/A`` interval contains it;
    * *wins*: ``B`` is on the side the median ratio points to in at
      least nine tenths of the rounds, ties counting for neither;
    * *medians*: the medians differ by more than ``A``'s interquartile
      range.
    """
    aa, ab = paired_ratio(a_prime, a), paired_ratio(b, a)
    lower = ab.ratio <= 1.0
    side = "lower" if lower else "higher"
    won = ab.wins if lower else ab.losses
    need = -(-9 * ab.n // 10)  # ceil(0.9 n), in integers
    base, other = BENCH_RUN.summarise(list(a)), BENCH_RUN.summarise(list(b))
    gap, spread = abs(other["median"] - base["median"]), base["q3"] - base["q1"]
    return [
        RuleTest("interval", not ab.contains_one() and aa.contains_one(),
                 f"B/A 95% [{ab.low:.3f}, {ab.high:.3f}] "
                 f"{'contains' if ab.contains_one() else 'excludes'} 1, "
                 f"A'/A [{aa.low:.3f}, {aa.high:.3f}] "
                 f"{'contains' if aa.contains_one() else 'excludes'} 1"),
        RuleTest("wins", won >= need, f"B {side} in {won}/{ab.n}, needs {need}"),
        RuleTest("medians", gap > spread,
                 f"|{other['median']:.4f} - {base['median']:.4f}| = {gap:.4f} "
                 f"{'>' if gap > spread else '<='} A's IQR {spread:.4f}"),
    ]


def verdict(metric: str, tests: Sequence[RuleTest], ratio: float) -> str:
    """One line: did ``B`` move ``metric`` (median ``B/A`` ``ratio``) by
    the whole claim rule?"""
    failed = [test.name for test in tests if not test.passed]
    if not failed:
        return f"B moved {metric} {'lower' if ratio <= 1.0 else 'higher'}: all three tests pass"
    return f"{metric} did not move by the claim rule (failed: {', '.join(failed)})"


# --------------------------------------------------------------- the worker


def count_calls(fn: Callable[..., Any], *args: Any) -> Tuple[int, int, Any]:
    """``(python_calls, c_calls, result)`` of ``fn(*args)`` under
    ``sys.setprofile``.  Python calls count every frame entered,
    generator resumes included; C calls count builtins and extension
    functions.  The ``sys.setprofile(None)`` that ends the count is not
    counted."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"] - 1, result


def worker(workload_name: str, fw: int) -> int:
    """Serve single samples: one line on stdin asks for one (the line
    ``count`` for one under :func:`count_calls`), one JSON line on the
    saved stdout answers.  Anything the run prints goes to stderr."""
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    import workloads

    sampler = workloads.Sampler(workloads.WORKLOADS[workload_name], workloads.DEFAULT_SEED,
                                quick=False)
    for line in sys.stdin:
        failures = len(sampler.failures)
        reply: Dict[str, Any] = {}
        if line.strip() == "count":
            reply["calls"], reply["c_calls"], sample = count_calls(sampler.sample, fw)
        else:
            sample = sampler.sample(fw)
        reply.update({
            "deterministic": sampler.workload.backend != "mp",
            "setup": sampler.setups[-1],
            "peak_rss_mb": workloads.peak_rss_mb(),
        })
        if sample is None:
            reply["failure"] = sampler.failures[failures]
        else:
            reply["wall"] = sample.wall
            reply["makespans"] = [repr(part.report.wall_seconds) for part in sample.parts]
        protocol.write(json.dumps(reply) + "\n")
        protocol.flush()
    return 0


class Worker:
    """One long-lived ``ab.py --worker`` process on one tree's ``src``."""

    def __init__(self, label: str, src: Path, workload: str, fw: int) -> None:
        self.label = label
        env = {key: value for key, value in os.environ.items() if key != "REPRO_SANITIZE"}
        env.update({name: "1" for name in BENCH_RUN.PINNED_THREADS})
        env["PYTHONPATH"] = os.pathsep.join((str(src), str(BENCH)))
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", workload,
             "--fw", str(fw)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self, request: str = "") -> Dict[str, Any]:
        """One sample; ``request`` ``count`` asks for a counted one."""
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write(request + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"worker {self.label} exited ({self.process.wait()})")
        return json.loads(line)

    def close(self) -> None:
        if self.process.stdin is not None:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


# --------------------------------------------------------------- the lockstep


@dataclass
class Side:
    label: str
    wall: List[float]
    setup: List[float]
    peak_rss_mb: float = 0.0


class Refused(Exception):
    """The trees simulate different runs, or a deterministic run fails;
    timing them says nothing."""


def judge(workload: str, fw: int, replies: Dict[str, Dict[str, Any]]) -> List[str]:
    """The failures among one sample per tree, which are only an mp
    workload's to drop: Refused when a deterministic sample failed or
    the trees' makespans differ."""
    failed = [f"{label}: {reply['failure']}" for label, reply in replies.items()
              if "failure" in reply]
    if not replies["A"]["deterministic"]:
        return failed
    if failed:
        raise Refused(f"{workload} fw={fw}: a sample failed\n" + "\n".join(failed))
    makespans = {label: reply["makespans"] for label, reply in replies.items()}
    if len(set(map(tuple, makespans.values()))) > 1:
        raise Refused(f"{workload} fw={fw}: virtual makespans differ between "
                      f"the trees: {makespans}")
    return []


def lockstep(workload: str, trees: Dict[str, Path], fw: int,
             rounds: int) -> tuple[Dict[str, Side], int]:
    """``rounds`` rounds of one sample per worker.  The workers are fresh
    every ``len(ORDERS)`` rounds, after a warm-up round (imports,
    references, first-call paths): a process keeps its own speed for
    life (its address layout, its hash seed), which no pairing within it
    cancels.  A failed sample of a deterministic workload is Refused: it
    fails the same way every time, on one tree or on both.  A round with
    a failed mp sample is dropped whole; the number dropped is returned."""
    sides = {label: Side(label, [], []) for label in trees}
    dropped = 0
    for start in range(0, rounds, len(ORDERS)):
        workers = {label: Worker(label, src, workload, fw)
                   for label, src in trees.items()}
        try:
            for index in (-1, *range(start, min(start + len(ORDERS), rounds))):
                replies = {label: workers[label].sample()
                           for label in ORDERS[index % len(ORDERS)]}
                failed = judge(workload, fw, replies)
                if failed:
                    dropped += index >= 0
                    print("\n".join(failed), file=sys.stderr)
                    continue
                for label, reply in replies.items():
                    side = sides[label]
                    side.peak_rss_mb = max(side.peak_rss_mb, reply["peak_rss_mb"])
                    if index >= 0:
                        side.wall.append(reply["wall"])
                        side.setup.append(reply["setup"])
        finally:
            for each in workers.values():
                each.close()
    return sides, dropped


def report(workload: str, fw: int, sides: Dict[str, Side], dropped: int) -> List[str]:
    metric = "run_wall_s" if fw else "block_wall_s"
    kept = len(sides["A"].wall)
    lines = [f"{workload}  fw={fw}  {kept} rounds" + (f" ({dropped} dropped)" if dropped else "")]
    if not kept:
        return lines
    lines.append(f"  {'metric':<13} {'side':<5} {'median':>10} {'q1':>10} {'q3':>10}")
    for name, field in ((metric, "wall"), ("setup_s", "setup")):
        for side in sides.values():
            m = BENCH_RUN.summarise(getattr(side, field))
            lines.append(f"  {name:<13} {side.label:<5} {m['median']:>10.4f} "
                         f"{m['q1']:>10.4f} {m['q3']:>10.4f}")
    for name, field in ((metric, "wall"), ("setup_s", "setup")):
        base = getattr(sides["A"], field)
        for label in ("A'", "B"):
            p = paired_ratio(getattr(sides[label], field), base)
            lines.append(f"  {name:<13} {label + '/A':<5} median ratio {p.ratio:.3f}  "
                         f"95% [{p.low:.3f}, {p.high:.3f}]  "
                         f"{label} lower in {p.wins}/{p.n}")
    lines.append("  peak_rss_mb   " + "  ".join(
        f"{side.label} {side.peak_rss_mb:.2f}" for side in sides.values()))
    tests = claim_tests(sides["A"].wall, sides["A'"].wall, sides["B"].wall)
    lines.append(f"  claim rule on {metric}:")
    lines.extend(f"    {test.name:<8} {'pass' if test.passed else 'FAIL'}  {test.detail}"
                 for test in tests)
    ratio = paired_ratio(sides["B"].wall, sides["A"].wall).ratio
    lines.append(f"  verdict: {verdict(metric, tests, ratio)}")
    return lines


# --------------------------------------------------------------- --count


def counted(workload: str, trees: Dict[str, Path], fw: int) -> List[str]:
    """One counted sample per tree, each in a fresh worker after one
    warm-up sample; Refused if a deterministic sample fails or the
    trees' makespans differ."""
    replies = {}
    for label, src in trees.items():
        each = Worker(label, src, workload, fw)
        try:
            each.sample()  # warm-up: imports, references, first-call paths
            replies[label] = each.sample("count")
        finally:
            each.close()
    failed = judge(workload, fw, replies)
    a, b = replies["A"], replies["B"]
    lines = [f"{workload}  fw={fw}  one counted sample per tree"
             + ("" if a["deterministic"] else " (mp: this process only, not exact)"),
             f"  {'tree':<5} {'python calls':>14} {'C calls':>14}"]
    for label, reply in replies.items():
        lines.append(f"  {label:<5} {reply['calls']:>14,} {reply['c_calls']:>14,}")
    deltas = [b[key] - a[key] for key in ("calls", "c_calls")]
    lines.append(f"  {'B-A':<5} {deltas[0]:>+14,} {deltas[1]:>+14,}")
    lines.append(f"  {'B/A-1':<5} {deltas[0] / a['calls']:>+14.2%} "
                 f"{deltas[1] / a['c_calls']:>+14.2%}")
    lines.extend(f"  {failure}" for failure in failed)
    return lines


# --------------------------------------------------------------- --import

IMPORT_PROBE = f"""
import json, resource, sys, time
def rss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
import numpy
rss0, count0, t0 = rss(), len(sys.modules), time.perf_counter()
import repro.api
t1 = time.perf_counter()
print(json.dumps({{"rss": rss() - rss0, "wall": t1 - t0, "modules": len(sys.modules) - count0,
                  "watched": [m for m in {WATCHED!r} if m in sys.modules]}}))
"""


def import_costs(trees: Dict[str, Path]) -> List[str]:
    """``import repro.api`` over ``import numpy``, in fresh processes,
    the trees alternating and the order flipped every pair."""
    env = {name: "1" for name in BENCH_RUN.PINNED_THREADS}
    readings: Dict[str, List[Dict[str, Any]]] = {label: [] for label in trees}
    for index in range(IMPORT_REPEATS):
        order = list(trees) if index % 2 == 0 else list(reversed(list(trees)))
        for label in order:
            done = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                check=True, cwd=ROOT,
                env={**os.environ, **env, "PYTHONPATH": str(trees[label])})
            readings[label].append(json.loads(done.stdout))
    lines = [f"import repro.api over import numpy, median of {IMPORT_REPEATS} fresh processes",
             f"  {'tree':<5} {'rss MiB':>8} {'wall ms':>8} {'modules':>8}  watched modules loaded"]
    for label, runs in readings.items():
        watched = sorted({name for run in runs for name in run["watched"]})
        lines.append(
            f"  {label:<5} {statistics.median(r['rss'] for r in runs):>8.2f} "
            f"{1e3 * statistics.median(r['wall'] for r in runs):>8.1f} "
            f"{statistics.median(r['modules'] for r in runs):>8.0f}  "
            f"{', '.join(watched) or 'none'}")
    return lines


# --------------------------------------------------------------- main


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="the A side's commit (default HEAD)")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--fw", type=int, choices=(0, 1), default=1,
                        help="1: run_wall_s's speculative runs; 0: block_wall_s's")
    parser.add_argument("--rounds", type=int, default=24,
                        help="samples per worker and workload (default 24)")
    parser.add_argument("--count", action="store_true",
                        help="count Python and C calls of one sample per tree instead")
    parser.add_argument("--import", dest="imports", action="store_true",
                        help="measure the cost of import repro.api instead")
    parser.add_argument("--worker", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.fw)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        try:
            rev_src = PARITY.extract_src(args.rev, tmp)
        except ValueError as bad:
            print(f"ab: {bad}", file=sys.stderr)
            return 2
        print(f"ab: A and A' = {args.rev}'s src, B = {ROOT / 'src'}; ratios are X/A")
        if args.imports:
            print("\n".join(import_costs({"A": rev_src, "B": ROOT / "src"})))
            return 0
        if args.count:
            for workload in args.workload:
                try:
                    lines = counted(workload, {"A": rev_src, "B": ROOT / "src"}, args.fw)
                except Refused as refused:
                    print(f"ab: refusing to compare: {refused}", file=sys.stderr)
                    return 2
                print("\n".join(lines), flush=True)
            return 0
        trees = {"A": rev_src, "A'": rev_src, "B": ROOT / "src"}
        dropped_any = False
        for workload in args.workload:
            try:
                sides, dropped = lockstep(workload, trees, args.fw, args.rounds)
            except Refused as refused:
                print(f"ab: refusing to compare: {refused}", file=sys.stderr)
                return 2
            dropped_any |= dropped > 0
            print("\n".join(report(workload, args.fw, sides, dropped)), flush=True)
    return 1 if dropped_any else 0


if __name__ == "__main__":
    raise SystemExit(main())
