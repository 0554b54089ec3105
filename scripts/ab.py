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

``--import`` measures instead, in ten fresh processes per tree, what
``import repro.api`` costs over ``import numpy``: peak RSS, wall time,
the number of modules it loads, and which of OpenSSL's ``_hashlib``,
``multiprocessing`` and ``numpy.ma`` it loads.

Usage (about 12 minutes for the four workloads at the default 24 rounds)::

    python scripts/ab.py [--rev HEAD] [--workload des-null-p16 ...]
                         [--fw 1] [--rounds 24]
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
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

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
    percentile-bootstrap 95 % interval, and how often ``num`` was lower."""

    ratio: float
    low: float
    high: float
    wins: int
    n: int

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
    return Paired(statistics.median(ratios), low, high, wins, len(ratios))


# --------------------------------------------------------------- the worker


def worker(workload_name: str, fw: int) -> int:
    """Serve single samples: one line on stdin asks for one, one JSON line
    on the saved stdout answers.  Anything the run prints goes to stderr."""
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    import workloads

    sampler = workloads.Sampler(workloads.WORKLOADS[workload_name], workloads.DEFAULT_SEED,
                                quick=False)
    for _ in sys.stdin:
        failures = len(sampler.failures)
        sample = sampler.sample(fw)
        reply: Dict[str, Any] = {
            "deterministic": sampler.workload.backend != "mp",
            "setup": sampler.setups[-1],
            "peak_rss_mb": workloads.peak_rss_mb(),
        }
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

    def sample(self) -> Dict[str, Any]:
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write("\n")
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
                failed = [f"{label}: {reply['failure']}" for label, reply in replies.items()
                          if "failure" in reply]
                if failed and replies["A"]["deterministic"]:
                    raise Refused(f"{workload} fw={fw}: a sample failed\n" + "\n".join(failed))
                if failed:
                    dropped += index >= 0
                    print("\n".join(failed), file=sys.stderr)
                    continue
                makespans = {label: reply["makespans"] for label, reply in replies.items()}
                if replies["A"]["deterministic"] and len(set(map(tuple, makespans.values()))) > 1:
                    raise Refused(f"{workload} fw={fw}: virtual makespans differ between "
                                  f"the trees: {makespans}")
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
    aa = paired_ratio(sides["A'"].wall, sides["A"].wall)
    ab = paired_ratio(sides["B"].wall, sides["A"].wall)
    verdict = ("A/A interval excludes 1: the host drifted, nothing resolved"
               if not aa.contains_one() else
               f"B/A moved {metric}" if not ab.contains_one() else
               f"{metric} did not move beyond the A/A spread")
    lines.append(f"  verdict: {verdict}")
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
