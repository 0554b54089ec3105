"""Fixture: speculated values sent unverified, as specflow sees them.

Each function sends a speculated ``vars`` block, unordered with every
other ``vars`` sender of the tree (SPF111); ``one_path_unchecked`` also
drops a ``proc.recv(...)`` generator (SPL001).  Sending a guess before
it is verified is the runtime sanitizer's finding, not a static one.
"""

VARS = "vars"


def direct(proc, t, history):
    guess = speculate(history, t)
    proc.send(1, guess, tag=(VARS, t))        # SPF111: never verified


def produce(history, t):
    return extrapolate(history, t)


def interprocedural(proc, t, history):
    estimate = produce(history, t)
    proc.send(1, estimate, tag=(VARS, t))     # SPF111: via a helper


def one_path_unchecked(proc, t, history, lucky):
    guess = speculate(history, t)
    if lucky:
        actual = proc.recv(src=0, tag=(VARS, t))
        guess = check(guess, actual)
    proc.send(1, guess, tag=(VARS, t))        # else-path sends the raw guess
