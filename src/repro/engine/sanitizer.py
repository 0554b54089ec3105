"""Runtime protocol sanitizer for the speculative protocol stack.

Opt-in (``REPRO_SANITIZE=1`` or ``RunConfig(sanitize=True)`` on any
backend), the sanitizer is the *runtime seat* on the declarative
invariant registry in :mod:`repro.engine.invariants`: it checks, on
the effect stream of one live execution, every invariant whose
``seats`` include ``"sanitizer"`` (:attr:`ProtocolSanitizer.INVARIANTS`),
and :mod:`repro.analysis.replay` runs it again over a recorded trace.
The registry's other ids are the exhaustive seat's,
:mod:`repro.analysis.modelcheck`: ``deadlock-freedom`` needs every
interleaving, and ``history-ring-bound`` is enforced by the
:class:`~repro.engine.ring.HistoryRing` itself, which cannot outgrow
its capacity and raises on a non-increasing append.

A violated invariant raises :class:`ProtocolViolation` carrying a
phase-trace excerpt (the most recent protocol events) so the failure
is debuggable without re-running under a tracer.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Deque, Optional

from repro.engine.invariants import require, sanitizer_invariant_ids
from repro.des.errors import SimulationError

#: Environment variable that turns the sanitizer on for every driver.
ENV_FLAG = "REPRO_SANITIZE"


class ProtocolViolation(SimulationError):
    """A runtime protocol invariant was broken.

    Attributes
    ----------
    invariant:
        Short invariant identifier (e.g. ``"forward-window-bound"``).
    details:
        Human-readable description of the violation.
    trace:
        The sanitizer's most recent phase-trace entries (oldest first).
    """

    def __init__(self, invariant: str, details: str, trace: list[str]) -> None:
        self.invariant = invariant
        self.details = details
        self.trace = trace
        excerpt = "\n".join(f"    {line}" for line in trace) or "    (empty)"
        super().__init__(
            f"protocol invariant violated [{invariant}]: {details}\n"
            f"  recent phase trace (oldest first):\n{excerpt}"
        )

    def __reduce__(self):
        # ``args`` is the rendered message, not the constructor's: rebuild
        # from the fields (an mp worker pickles its failure to the parent).
        return type(self), (self.invariant, self.details, self.trace)


def sanitize_enabled() -> bool:
    """Is :data:`ENV_FLAG` set to a truthy value?"""
    return os.environ.get(ENV_FLAG, "").strip().lower() in {"1", "true", "yes", "on"}


def sanitizer_from_env() -> Optional["ProtocolSanitizer"]:
    """A fresh sanitizer when :data:`ENV_FLAG` is set, else None."""
    return ProtocolSanitizer() if sanitize_enabled() else None


def resolve_sanitizer(
    sanitize: "Optional[bool | ProtocolSanitizer]",
) -> Optional["ProtocolSanitizer"]:
    """The ``sanitize`` knob every backend takes, resolved once.

    None defers to :data:`ENV_FLAG`, a bool arms or disarms, and an
    already-built sanitizer is passed through (so a runner can share
    the instance its engines were built with).
    """
    if sanitize is None:
        return sanitizer_from_env()
    if isinstance(sanitize, ProtocolSanitizer):
        return sanitize
    return ProtocolSanitizer() if sanitize else None


class ProtocolSanitizer:
    """Checks DES + speculative-protocol invariants as a run executes.

    One instance guards one simulation (attach it to the environment
    via ``env.sanitizer`` and pass it the driver hooks).  All hooks are
    cheap enough for test-suite use; production runs leave the
    sanitizer off (``env.sanitizer is None`` costs one attribute test
    per event).
    """

    #: The ids this seat enforces — derived from the shared registry,
    #: never hand-listed, so sanitizer/specmc/docs cannot drift apart.
    INVARIANTS = sanitizer_invariant_ids()

    def __init__(self) -> None:
        #: The last 40 notes, printed with a violation.
        self._trace: Deque[str] = deque(maxlen=40)
        #: Outstanding (rank, src, t) speculations awaiting verification.
        self._outstanding: set[tuple[int, int, int]] = set()
        #: Everything ever speculated (re-speculation during a cascade
        #: legitimately re-registers the same key).
        self._speculated: set[tuple[int, int, int]] = set()
        #: Per-rank last cascade iteration (None = no cascade open).
        self._cascade_last: dict[int, int] = {}
        #: Per (dst_rank, src) last delivered wire sequence number.
        self._last_seq: dict[tuple[int, int], int] = {}
        #: Outstanding (rank, src) -> missing seq retransmit requests
        #: awaiting a healing delivery (``retransmit-bounded``).
        self._open_gaps: dict[tuple[int, int], int] = {}
        #: Per-rank current FW as announced by WindowChanged events
        #: (present only for ranks running an adaptive window policy).
        self._current_fw: dict[int, int] = {}
        self._last_now: float = float("-inf")
        #: Totals, exposed for tests / reporting.
        self.events_checked = 0
        self.checks_passed = 0

    # ----------------------------------------------------------- trace
    def note(self, entry: str) -> None:
        """Append one entry to the phase-trace ring buffer."""
        self._trace.append(entry)

    def trace_excerpt(self) -> list[str]:
        """Current ring-buffer contents (oldest first)."""
        return list(self._trace)

    def _violate(self, invariant: str, details: str) -> None:
        require(invariant)  # ids must come from the shared registry
        raise ProtocolViolation(invariant, details, self.trace_excerpt())

    # ------------------------------------------------------- DES hooks
    def on_event_processed(self, event: object, now: float, prev_now: float) -> None:
        """Called by ``Environment.step`` with each calendar entry's
        callback before it runs: the clock on every entry, the state
        machine when the callback is an ``Event`` (its own entry)."""
        self.events_checked += 1
        if now < prev_now:
            self._violate(
                "monotonic-virtual-time",
                f"clock moved backwards: {prev_now} -> {now}",
            )
        if now < self._last_now:
            self._violate(
                "monotonic-virtual-time",
                f"clock moved backwards across steps: {self._last_now} -> {now}",
            )
        self._last_now = now
        triggered = getattr(event, "triggered", True)
        if not triggered:
            self._violate(
                "event-state-machine",
                f"{event!r} reached the calendar without being triggered",
            )
        if getattr(event, "callbacks", ()) is None:
            self._violate(
                "event-state-machine",
                f"{event!r} processed twice (callbacks already consumed)",
            )
        self.checks_passed += 1

    # -------------------------------------------------- protocol hooks
    def on_speculate(self, rank: int, src: int, t: int) -> None:
        """Rank ``rank`` speculated the input from ``src`` at iteration ``t``."""
        self.note(f"rank {rank}: speculate src={src} t={t}")
        self._outstanding.add((rank, src, t))
        self._speculated.add((rank, src, t))

    def on_verify(self, rank: int, src: int, t: int) -> None:
        """Rank ``rank`` verifies the (src, t) speculation."""
        self.note(f"rank {rank}: verify src={src} t={t}")
        if (rank, src, t) not in self._speculated:
            self._violate(
                "verify-without-speculate",
                f"rank {rank} verifying (src={src}, t={t}) which was never "
                "speculated",
            )
        self._outstanding.discard((rank, src, t))

    def on_compute_begin(
        self, rank: int, t: int, verified_upto: int, fw: int
    ) -> None:
        """Rank ``rank`` enters the compute of iteration ``t``."""
        self.note(f"rank {rank}: compute t={t} verified_upto={verified_upto} fw={fw}")
        current = self._current_fw.get(rank)
        if current is not None and fw != current:
            self._violate(
                "window-policy-bound",
                f"rank {rank} computing t={t} gated on fw={fw} but the "
                f"window policy last announced fw={current}: gates must "
                "respect the current window, not a stale one",
            )
        if verified_upto >= t:
            return  # nothing unverified at or before t
        oldest_unverified = verified_upto + 1
        if fw == 0:
            self._violate(
                "forward-window-bound",
                f"rank {rank} computing t={t} with fw=0 but iteration "
                f"{oldest_unverified} unverified (blocking algorithm must "
                "wait)",
            )
        elif t - oldest_unverified > fw:
            self._violate(
                "forward-window-bound",
                f"rank {rank} computing t={t} while oldest unverified "
                f"iteration is {oldest_unverified}: distance "
                f"{t - oldest_unverified} exceeds fw={fw}",
            )

    def on_cascade_begin(self, rank: int, t: int) -> None:
        """A correction cascade repairs iteration ``t`` and opens."""
        self.note(f"rank {rank}: cascade begin t={t}")
        self._cascade_last[rank] = t

    def on_cascade_step(self, rank: int, t: int) -> None:
        """The open cascade recomputes iteration ``t``."""
        self.note(f"rank {rank}: cascade recompute t={t}")
        last = self._cascade_last.get(rank)
        if last is None:
            self._violate(
                "cascade-order",
                f"rank {rank} cascade recompute of t={t} outside any cascade",
            )
        elif t <= last:
            self._violate(
                "cascade-order",
                f"rank {rank} cascade recomputed t={t} after t={last}; "
                "cascades must repair ascending iterations",
            )
        self._cascade_last[rank] = t

    def on_cascade_end(self, rank: int) -> None:
        """The open cascade for ``rank`` finished."""
        self.note(f"rank {rank}: cascade end")
        self._cascade_last.pop(rank, None)

    def on_window_changed(
        self, rank: int, t: int, old_fw: int, new_fw: int,
        min_fw: int, max_fw: int,
    ) -> None:
        """The seated window policy moved ``rank``'s FW
        (``window-policy-bound``)."""
        self.note(
            f"rank {rank}: window t={t} fw {old_fw}->{new_fw} "
            f"bounds=[{min_fw}, {max_fw}]"
        )
        if not min_fw <= new_fw <= max_fw:
            self._violate(
                "window-policy-bound",
                f"rank {rank} window moved to fw={new_fw} outside the "
                f"policy bounds [{min_fw}, {max_fw}]",
            )
        self._current_fw[rank] = new_fw

    def on_ring_occupancy(
        self, rank: int, src: object, occupancy: int, capacity: int
    ) -> None:
        """A history ring on ``rank`` holds ``occupancy`` entries after
        an insert (``buffer-occupancy-bounded``)."""
        self.note(
            f"rank {rank}: ring src={src} occupancy={occupancy}/{capacity}"
        )
        if occupancy > capacity:
            self._violate(
                "buffer-occupancy-bounded",
                f"rank {rank} history ring for src={src} holds "
                f"{occupancy} entries, over its capacity {capacity}: the "
                "backward window no longer bounds memory",
            )

    def on_inbox_depth(
        self, rank: int, src: object, depth: int, bound: int
    ) -> None:
        """Rank ``rank`` has ``depth`` arrived-but-unverified iterations
        from ``src`` (``buffer-occupancy-bounded``)."""
        self.note(f"rank {rank}: inbox src={src} depth={depth}/{bound}")
        if depth > bound:
            self._violate(
                "buffer-occupancy-bounded",
                f"rank {rank} run-ahead backlog from src={src} is "
                f"{depth} iterations, over the FW-derived bound {bound}: "
                "arrivals are outrunning verification unboundedly",
            )

    def on_delivery(self, rank: int, src: int, seq: int) -> None:
        """A transport delivered the ``seq``-th message from ``src`` to
        ``rank``'s engine (``sequence-gap-freedom``)."""
        self.note(f"rank {rank}: deliver src={src} seq={seq}")
        last = self._last_seq.get((rank, src), -1)
        if seq != last + 1:
            self._violate(
                "sequence-gap-freedom",
                f"rank {rank} received seq={seq} from src={src} after "
                f"seq={last}: per-destination sequence numbers must be "
                "delivered gap-free and in order",
            )
        self._last_seq[(rank, src)] = seq

    def on_retransmit(
        self, rank: int, src: int, seq: int, attempt: int, max_attempts: int
    ) -> None:
        """Rank ``rank`` requested retransmission of the missing
        ``seq``-th message from ``src`` (``retransmit-bounded``)."""
        self.note(
            f"rank {rank}: retransmit src={src} seq={seq} "
            f"attempt={attempt}/{max_attempts}"
        )
        if attempt > max_attempts:
            self._violate(
                "retransmit-bounded",
                f"rank {rank} escalated the retransmit of seq={seq} from "
                f"src={src} to attempt {attempt}, over the budget of "
                f"{max_attempts}: a lost message was never recovered",
            )
        self._open_gaps[(rank, src)] = seq

    def on_gap_healed(self, rank: int, src: int, seq: int) -> None:
        """The missing ``seq``-th message from ``src`` finally reached
        ``rank`` — the outstanding retransmit is settled."""
        self.note(f"rank {rank}: gap healed src={src} seq={seq}")
        self._open_gaps.pop((rank, src), None)

    # ---------------------------------------------------------- final
    def on_run_end(self) -> None:
        """Called once the driver finished: no speculation may remain
        unverified and no retransmit may remain unanswered."""
        self.note("run end")
        if self._open_gaps:
            sample = sorted(self._open_gaps.items())[:5]
            self._violate(
                "retransmit-bounded",
                f"{len(self._open_gaps)} retransmit request(s) never "
                f"healed by a delivery (e.g. {sample})",
            )
        if self._outstanding:
            sample = sorted(self._outstanding)[:5]
            self._violate(
                "eventual-verification",
                f"{len(self._outstanding)} speculation(s) never verified "
                f"(e.g. {sample})",
            )

    def __repr__(self) -> str:
        return (
            f"<ProtocolSanitizer events={self.events_checked} "
            f"outstanding={len(self._outstanding)}>"
        )


def run_selftest() -> int:
    """Prove the sanitizer fires: run a clean simulation under it, then
    deliberately violate each driver-level invariant.

    Returns a process exit code (0 = sanitizer behaves as specified).
    """
    failures: list[str] = []

    def expect_violation(invariant: str, thunk: Callable[[], None]) -> None:
        try:
            thunk()
        except ProtocolViolation as exc:
            if exc.invariant != invariant:
                failures.append(
                    f"{invariant}: raised {exc.invariant} instead"
                )
            return
        failures.append(f"{invariant}: violation NOT detected")

    # 1. A clean speculative run under the sanitizer must pass.
    try:
        from repro.api import RunConfig, run
        from repro.harness.toys import ConstantProgram
        from repro.netsim import ConstantLatency, DelayNetwork
        from repro.vm import Cluster, uniform_specs

        prog = ConstantProgram(nprocs=3, iterations=6, ops_per_compute=1e3)
        cluster = Cluster(
            uniform_specs(3, capacity=1e3),
            network_factory=lambda env: DelayNetwork(env, ConstantLatency(0.5)),
        )
        result = run(RunConfig(prog, fw=2, sanitize=True, cluster=cluster))
        if result.iterations != 6:  # pragma: no cover - sanity
            failures.append("clean run: unexpected result")
    except ProtocolViolation as exc:  # pragma: no cover - would be a bug
        failures.append(f"clean run violated {exc.invariant}")

    # 2. Each invariant must fire on a crafted violation.
    def bad_verify() -> None:
        ProtocolSanitizer().on_verify(0, 1, 3)

    def bad_window() -> None:
        ProtocolSanitizer().on_compute_begin(0, t=5, verified_upto=1, fw=2)

    def bad_cascade() -> None:
        san = ProtocolSanitizer()
        san.on_cascade_begin(0, 4)
        san.on_cascade_step(0, 3)

    def bad_clock() -> None:
        san = ProtocolSanitizer()
        san.on_event_processed(object(), now=1.0, prev_now=2.0)

    def bad_seq_gap() -> None:
        san = ProtocolSanitizer()
        san.on_delivery(0, src=1, seq=0)
        san.on_delivery(0, src=1, seq=2)  # seq=1 lost on the wire

    def bad_run_end() -> None:
        san = ProtocolSanitizer()
        san.on_speculate(0, src=1, t=3)
        san.on_run_end()

    def bad_window_policy() -> None:
        san = ProtocolSanitizer()
        san.on_window_changed(0, t=4, old_fw=2, new_fw=3, min_fw=0, max_fw=2)

    def bad_occupancy() -> None:
        san = ProtocolSanitizer()
        san.on_ring_occupancy(0, src=1, occupancy=5, capacity=4)

    def bad_inbox() -> None:
        san = ProtocolSanitizer()
        san.on_inbox_depth(0, src=1, depth=4, bound=3)

    def bad_retransmit() -> None:
        san = ProtocolSanitizer()
        san.on_retransmit(0, src=1, seq=2, attempt=5, max_attempts=4)

    expect_violation("verify-without-speculate", bad_verify)
    expect_violation("forward-window-bound", bad_window)
    expect_violation("cascade-order", bad_cascade)
    expect_violation("monotonic-virtual-time", bad_clock)
    expect_violation("sequence-gap-freedom", bad_seq_gap)
    expect_violation("eventual-verification", bad_run_end)
    expect_violation("window-policy-bound", bad_window_policy)
    expect_violation("buffer-occupancy-bounded", bad_occupancy)
    expect_violation("buffer-occupancy-bounded", bad_inbox)
    expect_violation("retransmit-bounded", bad_retransmit)

    if failures:
        for failure in failures:
            print(f"sanitizer selftest FAILED: {failure}")
    else:
        print(
            "sanitizer selftest ok: clean run passed; "
            f"{len(ProtocolSanitizer.INVARIANTS)} invariants armed, "
            "10 crafted violations detected"
        )
    return 1 if failures else 0
