#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end to end and layer by layer.

    python bench/run.py                  every workload, tracing off: end-to-end metrics
    python bench/run.py --trace          every workload, traced pass: per-layer metrics
    python bench/run.py --quick          the same code on toy sizes, in seconds
    python bench/run.py --compare A B    verdict per workload x metric between two outputs
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
                                         one run; last stdout line is the result as JSON

See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SCHEMA = "bench/v1"
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: A workload's subprocess must end well inside the harness's 180 s.
CHILD_TIMEOUT_S = 170


def load_declaration() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pin_environment() -> None:
    """One BLAS thread and no sanitizer; call before numpy is imported."""
    for name in PINNED_THREADS:
        os.environ[name] = "1"
    os.environ.pop("REPRO_SANITIZE", None)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: {ROOT / 'src' / 'repro'} is missing; nothing to measure")
    sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict[str, Any]:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "pinned": {name: os.environ[name] for name in PINNED_THREADS},
        "sanitize": False,
        "record_trace_on_timed_runs": False,
    }


def summarise(samples: list[float]) -> dict[str, float]:
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def print_table(title: str, metrics: dict[str, dict[str, Any]], off_path: set[str]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':<40} {'unit':<10} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for name, m in metrics.items():
        if name in off_path:
            continue
        exact = "  exact" if m["exact"] else ""
        print(f"  {name:<40} {m['unit']:<10} {m['median']:>14.6g} {m['q1']:>14.6g} "
              f"{m['q3']:>14.6g} {m['n']:>3}{exact}")
    if off_path:
        layers = sorted({name.split(".")[0] for name in off_path})
        print(f"  {len(off_path)} metrics of layers off this workload's path read 0 "
              f"({', '.join(layers)})")


def run_one(args: argparse.Namespace, declaration: dict[str, Any]) -> int:
    """One workload in this process; the contract's JSON is the last line."""
    pin_environment()
    import workloads
    from spans import SpanRecorder

    workload = workloads.WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in declaration[kind]}
    if args.trace:
        recorder = SpanRecorder()
        sampler, values, samples = workloads.measure_layers(
            workload, args.seed, args.seconds, args.quick, recorder)
        recorder.write(OUT / f"trace-{workload.name}.json", workload.name)
    else:
        sampler, values, samples = workloads.measure_end_to_end(
            workload, args.seed, args.seconds, args.quick)

    for failure in sampler.failures:
        print(f"FAILED {workload.name}: {failure}", file=sys.stderr)
    # A layer off this workload's path did no work here: its metrics read 0.
    off_path = set(declared) - set(values) if args.trace and values else set()
    values.update({name: [0.0] for name in off_path})
    if set(values) != set(declared) or not all(values.values()):
        print(f"bench: {workload.name} produced no complete set of {kind} metrics",
              file=sys.stderr)
        return 1

    deterministic = workload.backend != "mp"
    metrics = {}
    for name in declared:
        got = values[name]
        exact = (name in workloads.COMPUTED or name in off_path
                 or (deterministic and name in workloads.EXACT_WHEN_DETERMINISTIC))
        metrics[name] = {"unit": declared[name]["unit"], **summarise(got), "exact": exact}
    failed = len(sampler.failures)
    result = {
        "schema": SCHEMA, "workload": workload.name, "kind": kind,
        "seed": args.seed, "quick": args.quick, "seconds": args.seconds,
        "env": environment(), "samples": samples,
        "attempted": sampler.attempted, "failed": failed,
        "failed_frac": failed / sampler.attempted, "correct": failed == 0,
        "metrics": metrics,
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1))
    print_table(f"{workload.name}  seed={args.seed}  {kind}  samples={samples}  "
                f"failed {failed}/{sampler.attempted}", metrics, off_path)
    print(json.dumps({
        "correct": failed == 0, "attempted": sampler.attempted, "failed": failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace, declaration: dict[str, Any]) -> int:
    """Every workload, each in a fresh subprocess; one merged output file."""
    kind = "per_layer" if args.trace else "end_to_end"
    merged: dict[str, Any] = {"schema": SCHEMA, "kind": kind, "seed": args.seed,
                              "quick": args.quick, "workloads": {}}
    status = 0
    for spec in declaration["workloads"]:
        part = OUT / f"{kind}-{spec['name']}.json"
        part.unlink(missing_ok=True)
        command = [sys.executable, str(BENCH / "run.py"), "--workload", spec["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(part)]
        try:
            done = subprocess.run(command + ["--quick"] * args.quick, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            status |= done.returncode
        except subprocess.TimeoutExpired:
            print(f"FAILED {spec['name']}: no result in {CHILD_TIMEOUT_S} s", file=sys.stderr)
            status = 1
        if part.exists():
            result = json.loads(part.read_text())
            merged["env"] = result.pop("env")
            merged["workloads"][spec["name"]] = result
    out = args.out or OUT / f"{kind}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged, indent=1))
    print(f"\nwrote {out}" + ("" if status == 0 else "  (with failures)"))
    return status


def main(argv: list[str] | None = None) -> int:
    declaration = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in declaration["workloads"]],
                        help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=1,
                        help="initial-condition and platform seed (default 1 "
                             "reproduces harness.experiments.HEADLINE)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each workload measures "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: the traced pass and the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes and two samples: checks the benchmark, not the repo")
    parser.add_argument("--out", type=Path, help="write the full result here as JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two outputs of this command and exit")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(*args.compare, declaration)
    if args.seconds is None:
        args.seconds = float(declaration["run_seconds"])
    return (run_one if args.workload else run_all)(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
