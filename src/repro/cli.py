"""Command-line interface: ``python -m repro`` / ``repro``.

Two tables carry most of this module.  The *run* subcommands
(``nbody``, ``jacobi``, ``chaos``) share one argparse parent, one
:func:`_run_config` from those flags to a :class:`~repro.api.RunConfig`,
one :func:`_execute` into :func:`repro.api.run` and one report printer;
they differ only in the program they build and the detail lines they
add.  The *analyzer* subcommands (``lint``, ``analyze``) are one
handler and one argparse loop over :data:`repro.analysis.tools.TOOLS`,
which ``check`` iterates too.

Subcommands
-----------
``repro list``
    Show the reproducible artifacts.
``repro run fig8 [--out FILE]``
    Regenerate one of the paper's tables/figures and print it.
``repro nbody -p 8 --fw 1 [--backend des|loopback|mp] ...``
    Run a single N-body experiment with explicit knobs; optionally
    record the protocol event trace for later replay.  ``des`` runs on
    the calibrated 1994 cluster model, ``loopback`` on the clockless
    in-process scheduler, ``mp`` on real OS processes over pipes with
    injected latency — same flags, same report layout.
``repro jacobi -p 4 -n 64 [--backend des|loopback|mp] ...``
    Run a Jacobi solve on any backend.
``repro chaos [--plan FILE | --drop 0.01 ...] [--verify] ...``
    Run a seeded fault-injection campaign: a :class:`~repro.faults.FaultPlan`
    from a JSON file or inline flags perturbs the receive path while
    the engine's retransmit layer heals it; prints the fault/recovery
    summary and (with ``--verify``) checks physics against the
    fault-free twin.

The run subcommands spell and validate ``--backend/--fw/--bw/
--adaptive/--record-trace/--seed/--sanitize`` identically, and the
mp-only transport flags (``--latency/--jitter/--timeout``) error on
other backends instead of silently no-opping.  (``mc`` keeps its
sweep-valued ``--p/--fw/--bw`` spellings — same names, list-typed.)

``repro lint [paths] [--format json] [--sanitize-selftest]``
    speclint: the protocol-aware per-module static analyzer (SPL0xx),
    or a self-test of the runtime protocol sanitizer.
``repro analyze [paths] [--format text|json|sarif]``
    specflow (happens-before, SPF1xx).  It takes ``--select`` and
    ``--trace FILE``, which replays a recorded event log, marks the
    static findings CONFIRMED / REFUTED / UNOBSERVED against what the
    run actually did, then checks the protocol's occupancy bounds
    against the log's observed maxima.
``repro check [paths] [--sarif FILE] [--stats]``
    Umbrella: run both families in one process over one shared
    parse + call graph, optionally writing a single merged SARIF
    document; ``--stats`` prints per-tool wall time and parse counts.
``repro mc [--p 2,3] [--fw 0,1] [--iters 3] [--budget 60s] ...``
    Run specmc: exhaustively model-check every message-delivery and
    scheduling interleaving of bounded engine configurations against
    the shared invariant registry.  On a violation the counterexample
    schedule is shrunk (``--no-shrink`` disables) and can be exported
    as a replayable event trace (``--emit-trace``) and a ready-to-run
    pytest regression (``--emit-test``); ``--mutate`` injects a known
    engine bug to exercise that pipeline.

Exit codes (shared by the analyzers, ``check`` and ``mc``)
----------------------------------------------------------
* ``0`` — clean: no findings / no invariant violation.
* ``1`` — findings: at least one diagnostic, replay violation, or
  model-checking counterexample.
* ``2`` — usage error: bad paths, an unreadable trace file,
  out-of-bounds model-checking configuration.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Optional, Sequence

#: Exit codes shared by the analyzers, ``check`` and ``mc``.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    """A run-flag combination the shared parent rejects."""


def _run_flags_parent() -> argparse.ArgumentParser:
    """The argparse parent shared by ``nbody``/``jacobi``/``chaos``.

    One definition means ``--backend/--fw/--bw/--adaptive/
    --record-trace/--seed/--sanitize`` are spelled and validated
    identically on every run-style subcommand, and the mp-only
    transport flags use a None sentinel so :func:`_mp_flags` can
    *error* on other backends instead of silently ignoring them.
    """
    parent = argparse.ArgumentParser(add_help=False)
    run = parent.add_argument_group("run flags (shared)")
    run.add_argument(
        "--backend",
        choices=("des", "loopback", "mp"),
        default="des",
        help="des = discrete-event simulator (default); loopback = "
        "deterministic in-process scheduler (no clock, costs in ops); "
        "mp = real OS processes over pipes",
    )
    run.add_argument("--fw", type=int, default=1, help="forward window")
    run.add_argument(
        "--cascade", choices=("recompute", "none"), default=None,
        help="correction cascade policy (default: the subcommand's "
        "canonical policy — nbody keeps the paper's \"none\", "
        "jacobi/chaos use \"recompute\")",
    )
    run.add_argument(
        "--bw", type=int, default=None, metavar="N",
        help="backward window: verified iterations each rank retains "
        "for checking/correction (default: engine-derived)",
    )
    run.add_argument(
        "--adaptive",
        action="store_true",
        help="seat an adaptive window policy in every rank's engine: "
        "--fw becomes the initial window and each rank retunes its "
        "own FW at runtime",
    )
    run.add_argument(
        "--epoch", type=int, default=4, metavar="N",
        help="adaptive: iterations between window decisions (default: 4)",
    )
    run.add_argument(
        "--max-fw", type=int, default=4, metavar="N",
        help="adaptive: upper bound on the forward window (default: 4)",
    )
    run.add_argument(
        "--record-trace",
        metavar="FILE",
        help="record the protocol event trace (JSONL) for later "
        "`repro analyze --trace FILE` replay",
    )
    run.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="seed for the run's stochastic parts (default: the "
        "subcommand's canonical seed)",
    )
    run.add_argument(
        "--sanitize",
        action="store_const",
        const=True,
        default=None,
        help="arm the runtime protocol sanitizer (default: defer to "
        "the REPRO_SANITIZE environment variable)",
    )
    mp_only = parent.add_argument_group(
        "mp-only transport flags (error on other backends)"
    )
    mp_only.add_argument(
        "--latency", type=float, default=None, metavar="S",
        help="mp backend: injected one-way delay in wall seconds "
        "(default: 0.05)",
    )
    mp_only.add_argument(
        "--jitter", type=float, default=None, metavar="SIGMA",
        help="mp backend: log-normal sigma multiplying the latency",
    )
    mp_only.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="mp backend: parent-side wall-clock budget (default: 300)",
    )
    return parent


def _mp_flags(args: argparse.Namespace) -> tuple[float, float, float]:
    """Resolve ``--latency/--jitter/--timeout``; raise off-backend.

    Historically these flags existed only on ``nbody`` and silently
    no-opped when ``--backend des`` was selected; the shared parent
    makes that a usage error on every run-style subcommand.
    """
    supplied = [
        f"--{name}"
        for name, value in (
            ("latency", args.latency),
            ("jitter", args.jitter),
            ("timeout", args.timeout),
        )
        if value is not None
    ]
    if args.backend != "mp":
        if supplied:
            raise _UsageError(
                f"{', '.join(supplied)} require(s) --backend mp "
                f"(got --backend {args.backend})"
            )
        return 0.0, 0.0, 300.0
    return (
        args.latency if args.latency is not None else 0.05,
        args.jitter if args.jitter is not None else 0.0,
        args.timeout if args.timeout is not None else 300.0,
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.harness import EXPERIMENTS

    descriptions = {
        "fig2": "two-processor timelines: blocking vs good/bad speculation",
        "fig4": "forward window under a transient delay (FW=0/1/2)",
        "fig5": "model speedup vs p (Section 4, k=2%)",
        "fig6": "model speedup vs recomputation % (8 processors)",
        "fig8": "measured N-body speedup vs p for FW=0/1/2",
        "table2": "per-iteration phase times (16 procs, 1000 particles)",
        "table3": "threshold theta vs incorrect speculations / force error",
        "fig9": "model vs measured speedups",
    }
    for name in sorted(EXPERIMENTS):
        print(f"{name:8s} {descriptions.get(name, '')}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness import get_experiment

    try:
        runner = get_experiment(args.experiment)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    result = runner()
    print(result.text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.text)
        print(f"(written to {args.out})")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"(JSON written to {args.json})")
    return 0


def _window_policy(args: argparse.Namespace, degraded: bool = False):
    """The window-policy template for ``--adaptive`` (None when the
    run keeps its fixed forward window).  ``degraded=True`` (the chaos
    subcommand) wraps the cost-rule controller in
    :class:`~repro.policy.DegradedWindow` so persistent loss collapses
    FW toward 0 and recovery re-widens it."""
    if not args.adaptive:
        return None
    from repro.policy import CostWindow, DegradedWindow

    inner = CostWindow(epoch=args.epoch, min_fw=0, max_fw=args.max_fw)
    return DegradedWindow(inner) if degraded else inner


#: Per backend: the units ``RunReport.wall_seconds`` and ``.timings``
#: are measured in, and the format of one phase timing (ops are counts).
_CLOCK = {
    "des": ("virtual s", "virtual s", ".3f"),
    "loopback": ("rounds", "ops", ".0f"),
    "mp": ("wall s", "wall s", ".3f"),
}


def _mode(args: argparse.Namespace, label: str = "adaptive") -> str:
    """Header suffix naming the seated window policy, if any."""
    if not args.adaptive:
        return ""
    return f" {label}(epoch={args.epoch}, max_fw={args.max_fw})"


def _run_config(args: argparse.Namespace, program, *, cascade: str,
                seed: int, plan=None, cluster=None, degraded: bool = False):
    """One :class:`~repro.api.RunConfig` from the shared run flags.

    ``cascade`` is the subcommand's canonical policy, used when the
    user gave no ``--cascade``.  Raises :class:`_UsageError` /
    ``ValueError`` on a bad flag combination.
    """
    from repro.api import RunConfig

    latency, jitter, timeout = _mp_flags(args)
    return RunConfig(
        program,
        backend=args.backend,
        fw=args.fw,
        bw=args.bw,
        cascade=args.cascade if args.cascade is not None else cascade,
        window_policy=_window_policy(args, degraded),
        fault_plan=plan,
        record_trace=bool(args.record_trace),
        sanitize=args.sanitize,
        seed=seed,
        latency=latency,
        jitter=jitter,
        cluster=cluster,
        timeout=timeout,
    )


def _execute(config, trace_path: Optional[str] = None):
    """Run ``config`` — the CLI's only call into a backend — and save
    the recorded trace, if any, to ``trace_path``."""
    from repro.api import run

    report = run(config)
    if config.record_trace:
        report.event_log.save(trace_path)
        print(f"(trace: {len(report.event_log)} events written to {trace_path})")
    return report


def _print_report(config, report, header: str, details: Sequence[str] = ()) -> None:
    """The report every run subcommand prints, on every backend.

    ``details`` are the subcommand's own lines, placed between the
    timings and the rejection rates.  The message-level rate counts
    checked *messages* the engine rejected; the particle-level rate
    (N-body only) counts checked *particles* over θ, and is printed
    only where the program object that ran is this process's — on mp
    the workers' copies did the counting.
    """
    wall_unit, phase_unit, fmt = _CLOCK[report.backend]
    print(header)
    print(f"  wall                : {report.wall_seconds:.3f} {wall_unit}")
    phases = " / ".join(
        f"{phase}={total:{fmt}}" for phase, total in sorted(report.timings.items())
    )
    print(f"  phase timings       : {phases} ({phase_unit}, max over ranks)")
    for line in details:
        print(line)
    print(f"  rejected speculation (messages): {100 * report.rejection_rate:.2f}%")
    particles = getattr(config.program, "spec_stats", None)
    if particles is not None and particles.particles_checked:
        print("  rejected speculation (particles): "
              f"{100 * particles.incorrect_fraction:.2f}%")
    if config.window_policy is not None:
        changes = sum(len(h) - 1 for h in report.window_history.values())
        print(f"  final windows       : {report.final_windows()} "
              f"({changes} change(s))")


def _cmd_nbody(args: argparse.Namespace) -> int:
    """``repro nbody``: the HEADLINE N-body program on any backend."""
    from repro.harness import build_nbody

    try:
        program, cluster, cfg = build_nbody(
            args.p,
            iterations=args.iterations,
            n_particles=args.particles,
            threshold=args.theta,
            config={"seed": args.seed} if args.seed is not None else None,
            simulated=args.backend == "des",
        )
        config = _run_config(
            args, program, cascade=cfg["cascade"], seed=cfg["seed"],
            cluster=cluster,
        )
    except (_UsageError, ValueError) as exc:
        print(f"repro nbody: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = _execute(config, args.record_trace)
    wall_unit, phase_unit, fmt = _CLOCK[report.backend]
    b = report.steady_breakdown() if report.iterations > 1 else report.breakdown()
    details = [
        f"  time/iteration      : {report.time_per_iteration:.3f} {wall_unit}",
        f"  compute / comm      : {b['compute']:{fmt}} / {b['comm']:{fmt}} "
        f"{phase_unit} per iter",
        f"  spec / check / corr : {b['spec']:{fmt}} / {b['check']:{fmt}} / "
        f"{b['correct']:{fmt}}",
    ]
    _print_report(
        config, report,
        f"p={args.p} FW={args.fw} N={args.particles} T={args.iterations} "
        f"theta={args.theta} backend={args.backend}{_mode(args)}",
        details,
    )
    return 0


def _build_jacobi(args: argparse.Namespace):
    """The Jacobi program the ``jacobi``/``chaos`` subcommands run."""
    from repro.apps.jacobi import JacobiSolver, diagonally_dominant_system

    seed = args.seed if args.seed is not None else 3
    a, b = diagonally_dominant_system(args.n, seed=seed)
    program = JacobiSolver(
        a, b, capacities=[1000.0] * args.p,
        iterations=args.iterations, threshold=args.theta,
    )
    return program, seed


def _cmd_jacobi(args: argparse.Namespace) -> int:
    """``repro jacobi``: one solve on any backend."""
    import numpy as np

    try:
        program, seed = _build_jacobi(args)
        config = _run_config(args, program, cascade="recompute", seed=seed)
    except (_UsageError, ValueError) as exc:
        print(f"repro jacobi: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = _execute(config, args.record_trace)
    x = np.empty(program.partition.n)
    for rank, idx in enumerate(program.partition):
        x[idx] = report.results[rank]
    residual = float(np.max(np.abs(program.a @ x - program.b)))
    _print_report(
        config, report,
        f"p={args.p} FW={args.fw} n={args.n} T={args.iterations} "
        f"theta={args.theta} backend={args.backend}{_mode(args)}",
        [f"  residual (max |Ax-b|): {residual:.3e}"],
    )
    return 0


def _parse_rank_spec(spec: str, flag: str, cast) -> tuple[int, Any]:
    """Parse a ``RANK:VALUE`` CLI operand like ``1:2.0`` or ``2:5``."""
    try:
        rank_text, value_text = spec.split(":", 1)
        return int(rank_text), cast(value_text)
    except ValueError:
        raise _UsageError(
            f"{flag}: expected RANK:VALUE (e.g. 1:2.0), got {spec!r}"
        )


def _chaos_plan(args: argparse.Namespace):
    """The :class:`~repro.faults.FaultPlan` for ``repro chaos``."""
    from repro.faults import EdgeFault, FaultPlan, RankFault

    inline = (
        args.drop or args.duplicate or args.delay or args.reorder
        or args.straggler or args.crash
    )
    if args.plan and inline:
        raise _UsageError("--plan and inline fault flags are mutually exclusive")
    if args.plan:
        try:
            return FaultPlan.load(args.plan)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise _UsageError(f"cannot read fault plan {args.plan}: {exc}")
    edges = []
    for kind, rate in (("drop", args.drop), ("duplicate", args.duplicate),
                       ("delay", args.delay), ("reorder", args.reorder)):
        if rate:
            edges.append(EdgeFault(kind=kind, rate=rate, delay=args.delay_by))
    ranks = []
    for spec in args.straggler or ():
        rank, factor = _parse_rank_spec(spec, "--straggler", float)
        ranks.append(RankFault(rank=rank, slowdown=factor))
    for spec in args.crash or ():
        rank, at = _parse_rank_spec(spec, "--crash", int)
        ranks.append(RankFault(rank=rank, crash_at=at))
    try:
        return FaultPlan(
            seed=args.fault_seed,
            edges=tuple(edges),
            ranks=tuple(ranks),
            max_retries=args.max_retries,
            retransmit=not args.no_retransmit,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: a seeded fault-injection campaign."""
    import dataclasses

    import numpy as np

    from repro.engine.core import RetransmitExhausted
    from repro.engine.sanitizer import ProtocolViolation
    from repro.faults import InjectedCrash

    try:
        program, seed = _build_jacobi(args)
        plan = _chaos_plan(args)
        config = _run_config(
            args, program, cascade="recompute", seed=seed, plan=plan,
            degraded=True,
        )
    except (_UsageError, ValueError) as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = _execute(config, args.record_trace)
    except InjectedCrash as exc:
        print(f"chaos: planned crash terminated the run ({exc})")
        return EXIT_FINDINGS
    except ProtocolViolation as exc:
        print(f"chaos: sanitizer violation — {exc}")
        return EXIT_FINDINGS
    except RetransmitExhausted as exc:
        # The engine escalated past its retry budget: a loss was never
        # recovered (expected under --no-retransmit).
        print(f"chaos: unrecovered loss — {exc}")
        return EXIT_FINDINGS

    summary = report.fault_summary or {"injected": {}, "total_injected": 0,
                                       "retransmits_serviced": 0,
                                       "auto_retransmits": 0,
                                       "outstanding_losses": 0}
    injected = " ".join(
        f"{kind}={count}" for kind, count in sorted(summary["injected"].items())
    ) or "none"
    requested = sum(s.retransmits for s in report.stats)
    suppressed = sum(s.dups_suppressed for s in report.stats)
    _print_report(
        config, report,
        f"chaos: backend={args.backend} p={args.p} FW={args.fw} "
        f"T={args.iterations} plan-seed={plan.seed}"
        f"{_mode(args, 'adaptive+degraded')}",
        [
            f"  injected            : {injected} "
            f"(total {summary['total_injected']})",
            f"  retransmits         : {summary['retransmits_serviced']} "
            f"serviced + {summary['auto_retransmits']} sender-timeout, "
            f"{summary['outstanding_losses']} outstanding",
            f"  engine              : {requested} retransmit request(s), "
            f"{suppressed} duplicate(s) suppressed",
        ],
    )

    identical = None
    if args.verify:
        clean = _execute(dataclasses.replace(
            config, fault_plan=None, record_trace=False,
        ))
        identical = all(
            np.array_equal(clean.results[r], report.results[r])
            for r in report.results
        )
        print(f"  physics vs fault-free: "
              f"{'bit-identical' if identical else 'DIVERGED'}")

    healed = summary["outstanding_losses"] == 0
    if not healed:
        print("chaos: unrecovered losses remain", file=sys.stderr)
    if identical is False:
        print("chaos: physics diverged from the fault-free run",
              file=sys.stderr)
    return EXIT_CLEAN if healed and identical is not False else EXIT_FINDINGS


def _cmd_tool(args: argparse.Namespace) -> int:
    """``repro lint|analyze``: one analysis
    family (``args.tool``, a :class:`~repro.analysis.tools.Tool`)."""
    from repro.analysis.program import ProgramIndex
    from repro.analysis.tools import UnknownRuleCode

    tool = args.tool
    if args.sanitize_selftest:
        from repro.engine.sanitizer import run_selftest

        return run_selftest()
    try:
        index = ProgramIndex(args.paths or ["src"])
        diagnostics = tool.analyze(index, select=args.select)
    except (FileNotFoundError, UnknownRuleCode) as exc:
        print(f"{tool.name}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failing, trace = 0, None
    if args.trace:
        from repro.analysis.trace_view import TraceView
        from repro.trace import EventLog

        try:
            view = TraceView(EventLog.load(args.trace))
        except (OSError, ValueError, TypeError) as exc:
            print(tool.render(diagnostics, args.format).rstrip("\n"))
            print(f"{tool.name}: cannot read trace: {exc}", file=sys.stderr)
            return EXIT_USAGE
        report, _verdicts, failing = tool.judge(view, diagnostics)
        lines = "\n".join(report).splitlines()  # an entry may span lines
        trace = {"file": args.trace, "failing": failing, "report": lines}
    print(tool.render(diagnostics, args.format, trace).rstrip("\n"))
    return EXIT_FINDINGS if diagnostics or failing else EXIT_CLEAN


def _cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: both analysis families over one parse."""
    import time

    from repro.analysis.program import ProgramIndex
    from repro.analysis.reporting import (
        SARIF_SCHEMA,
        SARIF_VERSION,
        render_diag_text,
        rule_catalogue_entries,
        sarif_document,
        stable_json,
    )
    from repro.analysis.sarif import _result
    from repro.analysis.tools import TOOLS

    parse_start = time.perf_counter()
    try:
        index = ProgramIndex(args.paths or ["src"])
    except FileNotFoundError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return EXIT_USAGE
    index.callgraph  # build once, outside any single tool's timing
    parse_seconds = time.perf_counter() - parse_start

    tools = sorted(TOOLS, key=lambda tool: tool.name)
    per_tool: dict[str, list] = {}
    tool_seconds: dict[str, float] = {}
    for tool in tools:
        t0 = time.perf_counter()
        per_tool[tool.name] = tool.analyze(index)
        tool_seconds[tool.name] = time.perf_counter() - t0

    if args.sarif:
        merged: dict[str, object] = {
            "$schema": SARIF_SCHEMA,
            "version": SARIF_VERSION,
            "runs": [
                sarif_document(
                    tool.name,
                    rule_catalogue_entries(tool.rules),
                    [_result(d) for d in per_tool[tool.name]],
                )["runs"][0]
                for tool in tools
            ],
        }
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(stable_json(merged))
        print(f"repro check: merged SARIF written to {args.sarif}")

    total = sum(len(diags) for diags in per_tool.values())
    if args.format == "json":
        payload = {
            "tools": {
                name: [d.to_dict() for d in diags]
                for name, diags in per_tool.items()
            },
            "summary": {name: len(diags) for name, diags in per_tool.items()},
        }
        if args.stats:
            payload["stats"] = {
                "files_parsed": len(index.modules),
                "syntax_failures": len(index.syntax_errors),
                "parse_seconds": round(parse_seconds, 6),
                "tool_seconds": {
                    name: round(secs, 6) for name, secs in tool_seconds.items()
                },
            }
        print(stable_json(payload), end="")
    else:
        for name, diags in per_tool.items():
            print(render_diag_text(diags, name))
        print(
            f"repro check: {total} finding(s) across "
            f"{len(per_tool)} tool(s), {len(index.modules)} file(s) parsed once"
        )
        if args.stats:
            print(
                f"repro check stats: parse+callgraph {parse_seconds:.3f}s over "
                f"{len(index.modules)} file(s), "
                f"{len(index.syntax_errors)} syntax failure(s)"
            )
            for name, secs in tool_seconds.items():
                print(f"  {name:9s} {secs:7.3f}s  {len(per_tool[name])} finding(s)")
    return EXIT_FINDINGS if total else EXIT_CLEAN


def _parse_int_list(spec: str, name: str) -> list:
    """Parse a comma-separated sweep list like ``2,3`` into ints."""
    try:
        values = [int(part) for part in spec.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"--{name}: expected comma-separated integers, got {spec!r}")
    if not values:
        raise ValueError(f"--{name}: empty sweep list")
    return values


def _cmd_mc(args: argparse.Namespace) -> int:
    from repro.analysis.modelcheck import (
        MUTATIONS,
        Budget,
        McConfig,
        emit_test,
        emit_trace,
        explore,
        render_json,
        render_sarif_mc,
        render_text,
        report_dict,
        shrink_schedule,
    )

    if args.mutate is not None and args.mutate not in MUTATIONS:
        known = ", ".join(sorted(MUTATIONS))
        print(
            f"specmc: unknown mutation {args.mutate!r} (known: {known})",
            file=sys.stderr,
        )
        return EXIT_USAGE

    try:
        p_values = _parse_int_list(args.p, "p")
        fw_values = _parse_int_list(args.fw, "fw")
        bw_values = _parse_int_list(args.bw, "bw")
        iters_values = _parse_int_list(args.iters, "iters")
        budget = Budget.parse(args.budget) if args.budget else None
    except ValueError as exc:
        print(f"specmc: {exc}", file=sys.stderr)
        return EXIT_USAGE

    configs = []
    try:
        for p in p_values:
            for fw in fw_values:
                for bw in bw_values:
                    for iters in iters_values:
                        configs.append(
                            McConfig(
                                p=p,
                                fw=fw,
                                bw=bw,
                                iters=iters,
                                cascade=args.cascade,
                                scenario=args.scenario,
                                window=args.window,
                            )
                        )
    except ValueError as exc:
        print(f"specmc: {exc}", file=sys.stderr)
        return EXIT_USAGE

    results = []
    for config in configs:
        result = explore(config, mutation=args.mutate, budget=budget)
        if result.violation is not None and not args.no_shrink:
            result.shrunk_schedule = shrink_schedule(
                config,
                result.violation.schedule,
                result.violation.invariant,
                mutation=args.mutate,
            )
        results.append(result)
        if result.violation is not None:
            # First counterexample wins; later configs would only repeat it.
            break

    violating = next((r for r in results if r.violation is not None), None)
    if violating is not None:
        schedule = violating.counterexample_schedule() or ()
        if args.emit_trace:
            outcome = emit_trace(
                violating.config, schedule, args.emit_trace, mutation=args.mutate
            )
            reproduced = (
                outcome.violation is not None
                and outcome.violation.invariant == violating.violation.invariant
            )
            status = "reproduces" if reproduced else "DOES NOT reproduce"
            print(
                f"specmc: replayable trace written to {args.emit_trace} "
                f"({status} the violation)",
                file=sys.stderr,
            )
        if args.emit_test:
            emit_test(
                violating.config,
                schedule,
                violating.violation.invariant,
                args.emit_test,
                mutation=args.mutate,
                details=violating.violation.details,
            )
            print(
                f"specmc: regression test written to {args.emit_test}",
                file=sys.stderr,
            )

    if args.report:
        import json as _json

        with open(args.report, "w", encoding="utf-8") as fh:
            _json.dump(report_dict(results), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.format == "json":
        print(render_json(results), end="")
    elif args.format == "sarif":
        print(render_sarif_mc(results), end="")
    else:
        print(render_text(results))
    return EXIT_FINDINGS if violating is not None else EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Govindan & Franklin, WUCS-94-3 (1994): "
        "speculative computation for masking communication delays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list reproducible artifacts")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="regenerate a paper table/figure")
    p_run.add_argument("experiment", help="artifact id, e.g. fig8 or table2")
    p_run.add_argument("--out", help="also write the table to this file")
    p_run.add_argument("--json", help="also write the structured rows as JSON")
    p_run.set_defaults(func=_cmd_run)

    run_flags = _run_flags_parent()

    p_nb = sub.add_parser(
        "nbody", parents=[run_flags], help="run one N-body configuration"
    )
    p_nb.add_argument("-p", "--p", type=int, default=8, help="processors (1-16)")
    p_nb.add_argument("--particles", type=int, default=1000)
    p_nb.add_argument("--iterations", type=int, default=10)
    p_nb.add_argument("--theta", type=float, default=0.01)
    p_nb.set_defaults(func=_cmd_nbody)

    p_jc = sub.add_parser(
        "jacobi", parents=[run_flags],
        help="run one Jacobi solve through the unified run API "
        "(any backend)",
    )
    p_jc.add_argument("-p", "--p", type=int, default=4, help="processors")
    p_jc.add_argument(
        "-n", "--n", type=int, default=64, help="system size (rows of A)"
    )
    p_jc.add_argument("--iterations", type=int, default=12)
    p_jc.add_argument(
        "--theta", type=float, default=1e-6,
        help="speculation acceptance threshold",
    )
    p_jc.set_defaults(func=_cmd_jacobi)

    p_ch = sub.add_parser(
        "chaos", parents=[run_flags],
        help="run a seeded fault-injection campaign (FaultPlan file or "
        "inline flags) and print the fault/recovery summary",
    )
    p_ch.add_argument("-p", "--p", type=int, default=4, help="processors")
    p_ch.add_argument(
        "-n", "--n", type=int, default=64, help="system size (rows of A)"
    )
    p_ch.add_argument("--iterations", type=int, default=12)
    p_ch.add_argument(
        "--theta", type=float, default=0.0,
        help="speculation acceptance threshold (default 0: every "
        "speculation is checked against the exact value)",
    )
    p_ch.add_argument(
        "--plan", metavar="FILE",
        help="JSON FaultPlan (see FaultPlan.save); mutually exclusive "
        "with the inline fault flags",
    )
    fault = p_ch.add_argument_group("inline fault flags")
    fault.add_argument(
        "--drop", type=float, default=0.0, metavar="RATE",
        help="per-message drop probability on every edge",
    )
    fault.add_argument(
        "--duplicate", type=float, default=0.0, metavar="RATE",
        help="per-message duplication probability on every edge",
    )
    fault.add_argument(
        "--delay", type=float, default=0.0, metavar="RATE",
        help="per-message delay probability on every edge",
    )
    fault.add_argument(
        "--delay-by", type=float, default=2.0, metavar="UNITS",
        help="how long a delayed message is held, in receive polls "
        "(default: 2)",
    )
    fault.add_argument(
        "--reorder", type=float, default=0.0, metavar="RATE",
        help="per-message reorder probability on every edge",
    )
    fault.add_argument(
        "--straggler", action="append", metavar="RANK:FACTOR",
        help="slow one rank's receive path by FACTOR (repeatable)",
    )
    fault.add_argument(
        "--crash", action="append", metavar="RANK:ITER",
        help="crash one rank when iteration ITER completes (repeatable)",
    )
    fault.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for the plan's pure-hash fault decisions (default: 0)",
    )
    fault.add_argument(
        "--max-retries", type=int, default=4, metavar="N",
        help="engine retransmit budget per lost message (default: 4)",
    )
    fault.add_argument(
        "--no-retransmit", action="store_true",
        help="model a transport with no recovery: drops are never "
        "retransmitted (the retransmit-bounded invariant must flag it)",
    )
    p_ch.add_argument(
        "--verify", action="store_true",
        help="also run the fault-free twin and check the physics is "
        "bit-identical",
    )
    p_ch.set_defaults(func=_cmd_chaos)

    from repro.analysis.tools import TOOLS

    for tool in TOOLS:
        p_tool = sub.add_parser(tool.cli, help=tool.help)
        p_tool.add_argument(
            "paths", nargs="*", help="files/directories to analyse (default: src)"
        )
        p_tool.add_argument(
            "--format", choices=tool.formats, default="text", help="report format"
        )
        p_tool.add_argument(
            "--select",
            action="append",
            metavar="CODE",
            help="only run the given rule (repeatable), e.g. --select "
            f"{min(tool.rules)}",
        )
        if tool.judge is not None:
            p_tool.add_argument("--trace", metavar="FILE", help=tool.trace_help)
        for flag, kwargs in tool.flags:
            p_tool.add_argument(flag, **kwargs)
        # Absent flags read as unset, so one handler serves every tool.
        p_tool.set_defaults(
            func=_cmd_tool, tool=tool, trace=None, sanitize_selftest=False,
        )

    p_ck = sub.add_parser(
        "check",
        help="run every analysis family (speclint+specflow) over one "
        "shared parse",
    )
    p_ck.add_argument(
        "paths", nargs="*", help="files/directories to analyse (default: src)"
    )
    p_ck.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    p_ck.add_argument(
        "--sarif",
        metavar="FILE",
        help="write one merged SARIF document (one run per tool) to FILE",
    )
    p_ck.add_argument(
        "--stats",
        action="store_true",
        help="also report per-tool wall time and the shared parse's "
        "file/failure counts",
    )
    p_ck.set_defaults(func=_cmd_check)

    p_mc = sub.add_parser(
        "mc",
        help="run specmc (exhaustive interleaving model checking of the "
        "sans-I/O engine)",
    )
    p_mc.add_argument(
        "--p", default="2", metavar="LIST",
        help="processor counts to sweep, comma-separated (default: 2; max 3)",
    )
    p_mc.add_argument(
        "--fw", default="1", metavar="LIST",
        help="forward windows to sweep (default: 1; max 2)",
    )
    p_mc.add_argument(
        "--bw", default="1", metavar="LIST",
        help="backward windows to sweep (default: 1; max 2)",
    )
    p_mc.add_argument(
        "--iters", default="3", metavar="LIST",
        help="iteration counts to sweep (default: 3; max 4)",
    )
    p_mc.add_argument(
        "--cascade", choices=("recompute", "none"), default="recompute",
        help="cascade policy for every configuration",
    )
    p_mc.add_argument(
        "--scenario", choices=("drift", "constant"), default="drift",
        help="program scenario: drift rejects every speculation "
        "(cascades fire); constant accepts every speculation",
    )
    p_mc.add_argument(
        "--window", choices=("static", "cost"), default="static",
        help="window policy seated in every engine: static keeps FW "
        "fixed; cost explores the adaptive controller's widen/shrink "
        "schedule (one-iteration epochs, bounds [0, 2])",
    )
    p_mc.add_argument(
        "--budget", metavar="SPEC",
        help="per-configuration exploration budget, e.g. 60s, 2m or a "
        "state count like 50000 (default: unbounded)",
    )
    p_mc.add_argument(
        "--mutate", metavar="NAME",
        help="inject a known engine bug (see docs/static_analysis.md) to "
        "exercise the counterexample pipeline",
    )
    p_mc.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format",
    )
    p_mc.add_argument(
        "--report", metavar="FILE",
        help="also write the JSON report document to FILE (CI artifact)",
    )
    p_mc.add_argument(
        "--emit-trace", metavar="FILE",
        help="on violation: write the shrunk counterexample as a "
        "replayable event trace (`repro analyze --trace FILE`)",
    )
    p_mc.add_argument(
        "--emit-test", metavar="FILE",
        help="on violation: write a ready-to-run pytest regression "
        "replaying the shrunk counterexample",
    )
    p_mc.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging the counterexample schedule",
    )
    p_mc.set_defaults(func=_cmd_mc)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
