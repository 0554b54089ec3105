"""The four workloads, the sampling loop, the correctness gate and the traced pass.

Everything here drives the system through ``repro.api.run(RunConfig)``
and measures it from outside; nothing under ``src/`` knows it is being
benchmarked.  Import this module only after ``run.pin_environment()``.
"""

from __future__ import annotations

import gc
import resource
import statistics
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Mapping, NamedTuple, Optional

import numpy as np

import micro
from repro.api import RunConfig, RunReport, run
from repro.apps import NBodyProgram
from repro.harness.toys import ConstantProgram, JumpyProgram
from repro.nbody import uniform_cube
from repro.platforms import wustl_1994
from spans import HOOKS, SpanRecorder, totals_by_name, traced

#: Reproduces ``harness.experiments.HEADLINE``: platform seed 1, initial
#: conditions seed 42 (= IC_SEED_OFFSET + seed).
DEFAULT_SEED = 1
IC_SEED_OFFSET = 41
DT, SOFTENING, THETA = micro.DT, micro.SOFTENING, 0.01

#: Correctness gate: a blocking run is the serial computation, so it must
#: match the reference to rounding; a speculative run may differ by what
#: theta lets through (observed 2e-4 des, 3e-5 loopback, 6e-4 mp).
FW0_TOLERANCE, FW1_TOLERANCE = 1e-12, 5e-3

#: Extra set-ups timed after every run for ``setup_s``.  One takes under a
#: millisecond, so fifty in a row would all see the host in one mood;
#: a few after each run see as many moods as the runs themselves do.
SETUP_REPEATS = 4

Wrap = Callable[[type], type]


def identity(cls: type) -> type:
    return cls


class Part(NamedTuple):
    """One ``api.run`` call of a sample."""

    label: str
    program: Any
    config: RunConfig


def _nbody(n: int, capacities: list[float], iterations: int, seed: int, wrap: Wrap):
    system = uniform_cube(n, seed=IC_SEED_OFFSET + seed, softening=SOFTENING)
    return wrap(NBodyProgram)(system, capacities, iterations=iterations,
                              dt=DT, threshold=THETA)


def _des_nbody_p16(seed: int, quick: bool, fw: int, wrap: Wrap) -> list[Part]:
    n, iterations = (120, 5) if quick else (1000, 20)
    platform = wustl_1994(p=16, jitter_sigma=0.8, background_frames_per_s=24.0,
                          bursty_traffic=True, seed=seed)
    program = _nbody(n, platform.capacities(), iterations, seed, wrap)
    return [Part("nbody", program, RunConfig(
        program, backend="des", fw=fw, cascade="none",
        cluster=platform.cluster(), sanitize=False))]


def _des_null_p16(seed: int, quick: bool, fw: int, wrap: Wrap) -> list[Part]:
    parts = []
    for label, cls, extra in (("constant", ConstantProgram, {}),
                              ("jumpy", JumpyProgram, {"threshold": 0.5})):
        program = wrap(cls)(nprocs=16, iterations=10 if quick else 100,
                            block_size=64, ops_per_compute=2e5, **extra)
        parts.append(Part(label, program, RunConfig(
            program, backend="des", fw=fw,
            cluster=wustl_1994(p=16, seed=seed).cluster(), sanitize=False)))
    return parts


def _loop_nbody_n2000(seed: int, quick: bool, fw: int, wrap: Wrap) -> list[Part]:
    n, iterations = (120, 5) if quick else (2000, 10)
    program = _nbody(n, [1.0] * 4, iterations, seed, wrap)
    return [Part("nbody", program, RunConfig(
        program, backend="loopback", fw=fw, cascade="none", sanitize=False))]


def _mp_nbody_p2(seed: int, quick: bool, fw: int, wrap: Wrap) -> list[Part]:
    n, iterations = (120, 5) if quick else (1000, 40)
    program = _nbody(n, [1.0] * 2, iterations, seed, wrap)
    return [Part("nbody", program, RunConfig(
        program, backend="mp", fw=fw, cascade="none", sanitize=False,
        latency=0.02, seed=seed, timeout=60.0))]


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    #: Layers on this workload's path; the per-layer metrics of any other
    #: layer read 0 here.
    layers: frozenset[str]
    build: Callable[[int, bool, int, Wrap], list[Part]]
    #: fw -> the run's virtual makespan to 6 d.p. at the default seed and
    #: full size (the BENCH_PR9 / fig8 values).
    pins: Mapping[int, float] = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload("des-nbody-p16", "des",
             frozenset({"nbody", "apps", "engine", "des", "vm", "trace"}),
             _des_nbody_p16, pins={0: 216.071644, 1: 126.705339}),
    Workload("des-null-p16", "des",
             frozenset({"apps", "engine", "des", "vm", "trace"}), _des_null_p16),
    Workload("loop-nbody-n2000", "loopback",
             frozenset({"nbody", "apps", "engine", "trace"}), _loop_nbody_n2000),
    Workload("mp-nbody-p2", "mp",
             frozenset({"nbody", "engine", "pipes", "parallel", "trace"}),
             _mp_nbody_p2),
)}

#: des-null-p16's two halves use the same engine differently.
PATH_METRICS = {"constant": "engine.accept_path_us_per_rank_iter",
                "jumpy": "engine.reject_path_us_per_rank_iter"}

#: Must repeat bit for bit on one commit and seed when the backend is
#: deterministic (des, loopback); on mp they depend on arrival timing.
EXACT_WHEN_DETERMINISTIC = frozenset(
    {f"apps.{hook}_calls" for hook in HOOKS}
    | {"apps.particle_reject_ratio", "apps.phys_err", "engine.msg_reject_ratio",
       "engine.spec_made", "engine.recomputes", "engine.events",
       "des.virtual_makespan_s", "des.virtual_speedup"})
#: Computed from sizes, so exact everywhere.
COMPUTED = frozenset({"nbody.force_bytes_per_call.b62", "nbody.force_bytes_per_call.b500",
                      "pipes.pickled_bytes.b500"})


def final_state(program: Any, blocks: dict[int, Any]) -> np.ndarray:
    """The run's answer as one array: positions for N-body, else all blocks."""
    gathered = program.gather(blocks)
    if isinstance(gathered, dict):
        return np.concatenate([np.ravel(gathered[r]) for r in sorted(gathered)])
    return gathered.pos


def reference_state(program: Any) -> np.ndarray:
    """Serial ground truth: ``program.reference()`` where the app has one,
    else the synchronous iteration itself, one rank after another."""
    if hasattr(program, "reference"):
        return program.reference().pos
    blocks = {r: program.initial_block(r) for r in range(program.nprocs)}
    for t in range(program.iterations):
        blocks = {r: program.compute(r, blocks, t) for r in blocks}
    return final_state(program, blocks)


class PartResult(NamedTuple):
    label: str
    program: Any
    report: RunReport
    wall: float
    err: float


class Sample(NamedTuple):
    parts: list[PartResult]

    @property
    def wall(self) -> float:
        """Host wall of the sample's ``api.run`` calls, as the caller sees it."""
        return sum(part.wall for part in self.parts)


class Sampler:
    """Builds, runs and checks one workload's samples and keeps the tally."""

    def __init__(self, workload: Workload, seed: int, quick: bool) -> None:
        self.workload, self.seed, self.quick = workload, seed, quick
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[float] = []
        self._references = {
            part.label: reference_state(part.program)
            for part in workload.build(seed, quick, 0, identity)}

    def build(self, fw: int, wrap: Wrap = identity) -> list[Part]:
        """Initial conditions, platform, program and cluster for one sample, timed."""
        start = perf_counter()
        parts = self.workload.build(self.seed, self.quick, fw, wrap)
        self.setups.append(perf_counter() - start)
        return parts

    def sample(self, fw: int, wrap: Wrap = identity,
               recorder: Optional[SpanRecorder] = None,
               **overrides: Any) -> Optional[Sample]:
        """One sample; None (and a recorded failure) if a run raised, timed
        out or failed the correctness gate."""
        parts = self.build(fw, wrap)
        gc.collect()
        results = []
        for part in parts:
            config = replace(part.config, **overrides)
            self.attempted += 1
            if recorder is not None:
                recorder.begin("run", run=f"{part.label}#{self.attempted}")
            start = perf_counter()
            try:
                report = run(config)
            except Exception:  # boundary: count the failure, keep measuring
                self.failures.append(
                    f"{part.label} fw={fw} raised:\n{traceback.format_exc()}")
                return None
            finally:
                wall = perf_counter() - start
                if recorder is not None:
                    recorder.end()
            err, problem = self._gate(part, report, fw)
            if problem:
                self.failures.append(f"{part.label} fw={fw}: {problem}")
                return None
            results.append(PartResult(part.label, part.program, report, wall, err))
        return Sample(results)

    def _gate(self, part: Part, report: RunReport, fw: int) -> tuple[float, str]:
        state = final_state(part.program, report.results)
        err = float(np.abs(state - self._references[part.label]).max())
        limit = FW0_TOLERANCE if fw == 0 else FW1_TOLERANCE
        if not err <= limit:
            return err, f"final state is {err:.3e} from the serial reference (limit {limit:g})"
        if self.seed == DEFAULT_SEED and not self.quick:
            pin = self.workload.pins.get(fw)
            if pin is not None and round(report.wall_seconds, 6) != pin:
                return err, f"virtual makespan {report.wall_seconds:.6f}, pinned {pin:.6f}"
        return err, ""


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure_end_to_end(workload: Workload, seed: int, seconds: float,
                       quick: bool) -> tuple[Sampler, dict[str, list[float]], int]:
    """Tracing off: alternate blocking and speculative runs for ``seconds``.

    Returns the sampler (for its tally), the samples behind each
    end-to-end metric, and the number of pairs timed.
    """
    sampler = Sampler(workload, seed, quick)
    sampler.sample(fw=1)  # warm-up: imports, allocator, first-call paths
    walls: dict[int, list[float]] = {0: [], 1: []}
    pairs = 0
    start = perf_counter()
    while (pairs < 2) if quick else (perf_counter() - start < seconds):
        for fw in (0, 1):
            sample = sampler.sample(fw)
            if sample is not None:
                walls[fw].append(sample.wall)
            for _ in range(SETUP_REPEATS):
                sampler.build(fw)
        pairs += 1
    return sampler, {
        "setup_s": sampler.setups,
        "run_wall_s": walls[1],
        "block_wall_s": walls[0],
        "peak_rss_mb": [peak_rss_mb()],
    }, pairs


def measure_layers(workload: Workload, seed: int, seconds: float, quick: bool,
                   recorder: SpanRecorder,
                   ) -> tuple[Sampler, dict[str, list[float]], int]:
    """The traced pass: one run with spans, its untraced baseline, one run
    with the event log on, and the micro-harnesses of the layers on the path."""
    sampler = Sampler(workload, seed, quick)
    layers = workload.layers
    sampler.sample(fw=1)  # warm-up
    untraced: list[Sample] = []
    start = perf_counter()
    while len(untraced) < 2 or (not quick and perf_counter() - start < seconds / 3):
        sample = sampler.sample(fw=1)
        if sample is None:
            return sampler, {}, 0
        untraced.append(sample)
    blocking = sampler.sample(fw=0)
    # Spans cannot cross a process boundary, so mp keeps only the root span
    # and reports its workers' own phase clocks under parallel.* instead.
    wrap = (lambda cls: traced(cls, recorder)) if "apps" in layers else identity
    spanned = sampler.sample(fw=1, wrap=wrap, recorder=recorder)
    logged = sampler.sample(fw=1, record_trace=True)
    if blocking is None or spanned is None or logged is None:
        return sampler, {}, 0

    values: dict[str, list[float]] = {}
    for layer, harness in micro.HARNESSES.items():
        if layer in layers:
            values.update(harness(quick))

    baseline = statistics.median(s.wall for s in untraced)
    totals = totals_by_name(recorder.spans)
    values["trace.root_s"] = [spanned.wall]
    values["trace.span_overhead_frac"] = [spanned.wall / baseline - 1.0]
    values["trace.eventlog_overhead_frac"] = [logged.wall / baseline - 1.0]

    if "apps" in layers:
        for hook in HOOKS:
            own, calls = totals.get(f"apps.{hook}", (0.0, 0))
            values[f"apps.{hook}_s"] = [own]
            values[f"apps.{hook}_calls"] = [float(calls)]
        values["engine.plumbing_self_s"] = [totals["run"][0]]
        stats = [part.program.spec_stats for part in spanned.parts
                 if hasattr(part.program, "spec_stats")]
        checked = sum(s.particles_checked for s in stats)
        values["apps.particle_reject_ratio"] = [
            sum(s.particles_rejected for s in stats) / checked if checked else 0.0]
        values["apps.phys_err"] = [max(part.err for part in spanned.parts)]

    ranks = [s for part in spanned.parts for s in part.report.stats]
    checks = sum(s.checks for s in ranks)
    values["engine.msg_reject_ratio"] = [
        sum(s.spec_rejected for s in ranks) / checks if checks else 0.0]
    values["engine.spec_made"] = [float(sum(s.spec_made for s in ranks))]
    values["engine.recomputes"] = [float(sum(s.recomputes for s in ranks))]
    values["engine.events"] = [
        float(sum(len(part.report.event_log) for part in logged.parts))]
    for i, part in enumerate(spanned.parts):
        if part.label in PATH_METRICS:
            rank_iters = part.program.nprocs * part.program.iterations
            values[PATH_METRICS[part.label]] = [
                s.parts[i].wall / rank_iters * 1e6 for s in untraced]

    if workload.backend == "des":
        makespan = {fw: sum(part.report.wall_seconds for part in sample.parts)
                    for fw, sample in ((0, blocking), (1, spanned))}
        values["des.virtual_makespan_s"] = [makespan[1]]
        values["des.virtual_speedup"] = [makespan[0] / makespan[1]]

    if "parallel" in layers:
        (part,) = spanned.parts
        values["parallel.spawn_s"] = [part.wall - part.report.wall_seconds]
        for phase in ("compute", "comm", "spec", "check", "correct"):
            values[f"parallel.{phase}_s"] = [part.report.timings.get(phase, 0.0)]
        values["parallel.comm_s.fw0"] = [blocking.parts[0].report.timings["comm"]]
        # Latency 0 leaves speculation nothing to mask: its pure overhead.
        lat0: dict[int, list[float]] = {0: [], 1: []}
        for _ in range(3):
            for fw in (0, 1):
                sample = sampler.sample(fw, latency=0.0)
                if sample is None:
                    return sampler, {}, 0
                lat0[fw].append(sample.wall)
        values["parallel.lat0_overhead"] = [
            statistics.median(lat0[1]) / statistics.median(lat0[0])]
    return sampler, values, len(untraced)
