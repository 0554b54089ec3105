"""Fixture: the fixed idioms — the SPP rule stays silent here.

The payload isolator probes immutability before copying, the fan-out
sizes the payload once and sends the caller's own state, and nothing
scans the history ring inside a message loop (SPP204): each is the
fix of a per-message cost.
"""

import copy


def _is_immutable(value):
    return isinstance(value, (int, float, str, bytes, tuple))


def isolate_payload(value):
    if _is_immutable(value):
        return value
    return copy.deepcopy(value)


def payload_nbytes(value):
    return 8


def fanout(proc, peers, state, t):
    size = payload_nbytes(state)
    for dst in peers:
        proc.send(dst, state, tag=("vars", t), nbytes=size)
