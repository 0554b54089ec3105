"""PipeTransport unit tests: no busy-wait, sequenced FIFO delivery.

The two protocol-critical properties of the pipe transport:

* blocking receives park in the kernel (``connection.wait`` for bytes,
  ``select.select`` to a pending stamp) — a blocked worker burns ~zero
  CPU, unlike the old mailbox's 1e-4 s sleep-poll, and wakes at the
  stamp, not at the next millisecond;
* wire messages are sequence-checked and their delivery stamps floored
  at their per-peer predecessor's, so injected jitter can never
  reorder one peer's ``vars`` conversation (the SPF111 race).
"""

import multiprocessing as mp
import threading
import time

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.engine import Recv, TransportError, TryRecv
from repro.engine.pipes import PipeTransport

from tests.toy_programs import CoupledIncrement


def make_transport(**kwargs):
    """A transport on one duplex pipe; returns (transport, sender_end)."""
    ours, theirs = mp.Pipe(duplex=True)
    transport = PipeTransport(rank=0, conns={1: ours}, **kwargs)
    return transport, theirs


# --------------------------------------------------------------- no busy-wait
def test_blocking_recv_does_not_spin_while_latency_gated():
    """A receive that waits out an injected-latency stamp must sleep in
    select, not poll: CPU time ≪ wall time."""
    transport, sender = make_transport()
    delay = 0.5
    sender.send((0, time.monotonic() + delay, 1, "payload"))

    cpu0, wall0 = time.process_time(), time.monotonic()
    arrival = transport.recv(Recv(phase="comm", iteration=1))
    wall = time.monotonic() - wall0
    cpu = time.process_time() - cpu0

    assert arrival.payload == "payload"
    assert wall >= delay * 0.9
    # The old sleep-poll mailbox woke 10_000×/s; genuine parking keeps
    # CPU time a small fraction of the wall time spent blocked.
    assert cpu < 0.1 * wall + 0.02, f"spun: cpu={cpu:.3f}s of wall={wall:.3f}s"


def test_arrival_reports_the_injected_transit_as_latency():
    """The receiver adds the injected delay to the wire's send stamp;
    Arrival.latency is the difference — the transit a forward window
    hides, which the window policy reads."""
    transport, sender = make_transport(latency=0.2)
    sender.send((0, time.monotonic(), 1, "payload"))
    arrival = transport.recv(Recv(phase="comm", iteration=1))
    assert arrival.latency == pytest.approx(0.2, abs=1e-9)
    assert arrival.waited >= 0.2 * 0.9


def test_blocking_recv_parks_until_bytes_arrive():
    """With nothing buffered the receiver waits for bytes (no deadline),
    wakes promptly when they land, and still burns ~no CPU."""
    transport, sender = make_transport()
    delay = 0.4

    def late_send():
        time.sleep(delay)
        sender.send((0, time.monotonic(), 3, "late"))

    thread = threading.Thread(target=late_send)
    thread.start()
    cpu0, wall0 = time.process_time(), time.monotonic()
    arrival = transport.recv(Recv(phase="comm", iteration=3))
    wall = time.monotonic() - wall0
    cpu = time.process_time() - cpu0
    thread.join()

    assert arrival.iteration == 3
    assert delay * 0.9 <= wall < delay + 0.3
    assert cpu < 0.1 * wall + 0.02, f"spun: cpu={cpu:.3f}s of wall={wall:.3f}s"
    # The blocked span is charged to the receive's phase.
    assert transport.trace.total("comm") == pytest.approx(wall, abs=0.05)
    ((phase, start, end, iteration),) = transport.trace.records
    assert (phase, iteration) == ("comm", 3) and 0.0 <= start < end


def test_blocking_recv_parks_to_the_stamp_not_to_the_next_millisecond():
    """``connection.wait`` is ``poll(2)`` and rounds its timeout up to a
    whole millisecond, which made every latency-gated hop up to 1 ms
    late; the maturity wait must wake at the stamp (and still sleep)."""
    transport, sender = make_transport()
    stamp, parks = 0.0023, 20
    lateness = []
    cpu0, wall0 = time.process_time(), time.monotonic()
    for seq in range(parks):
        deliver_at = time.monotonic() + stamp
        sender.send((seq, deliver_at, seq, "payload"))
        transport.recv(Recv(phase="comm", iteration=seq))
        lateness.append(time.monotonic() - deliver_at)
    wall = time.monotonic() - wall0
    cpu = time.process_time() - cpu0

    assert min(lateness) >= 0.0
    median = sorted(lateness)[parks // 2]
    assert median < 0.0005, f"median park overshoots its stamp by {median * 1e3:.2f} ms"
    assert cpu < 0.25 * wall + 0.02, f"spun: cpu={cpu:.3f}s of wall={wall:.3f}s"


# ------------------------------------------------------- sequenced delivery
def test_wire_sequence_break_raises():
    transport, sender = make_transport()
    sender.send((1, time.monotonic(), 1, "skipped ahead"))
    with pytest.raises(TransportError, match="sequence break"):
        transport.try_recv(TryRecv())


def test_jitter_cannot_reorder_one_peers_stream():
    """SPF111 regression at the transport level: a later message whose
    jittered stamp matured *earlier* must still deliver after its
    predecessor (per-peer FIFO floor)."""
    transport, sender = make_transport()
    now = time.monotonic()
    sender.send((0, now + 0.30, 1, "first"))   # slow copy of X(1)
    sender.send((1, now - 1.00, 2, "second"))  # jitter made X(2) "beat" it
    time.sleep(0.05)

    # X(2) alone is mature, but delivering it would reorder the
    # conversation — the floor holds it behind X(1).
    assert transport.try_recv(TryRecv()) is None

    first = transport.recv(Recv(phase="comm", iteration=1))
    second = transport.recv(Recv(phase="comm", iteration=2))
    assert (first.iteration, first.payload) == (1, "first")
    assert (second.iteration, second.payload) == (2, "second")


def test_latency_and_jitter_validation():
    # Checked once, by the run's configuration, before any pipe exists.
    prog = CoupledIncrement(nprocs=2, iterations=2)
    with pytest.raises(ValueError, match="latency and jitter"):
        RunConfig(prog, backend="mp", latency=-1.0)
    with pytest.raises(ValueError, match="latency and jitter"):
        RunConfig(prog, backend="mp", jitter=-0.5)


# ------------------------------------------- end-to-end SPF111 regression
def test_p4_heavy_jitter_stays_exact():
    """The fixed race, end to end: 4 real processes, θ = 0, and jitter
    strong enough to reorder raw delivery stamps many times over.  The
    sequenced FIFO-floored transport must keep every conversation
    ordered, so the run completes (no TransportError, no deadlock)
    and the numerics equal the serial reference bit-for-bit."""
    prog = CoupledIncrement(nprocs=4, iterations=6, coupling=0.2, threshold=0.0)
    result = run(RunConfig(prog, backend="mp", fw=1, latency=0.02, jitter=1.5, seed=11,
                           timeout=120))
    ref = prog.reference_run()
    for rank in range(4):
        np.testing.assert_allclose(result.results[rank], ref[rank],
                                   atol=1e-12)
