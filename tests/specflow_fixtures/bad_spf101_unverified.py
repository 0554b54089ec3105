"""Fixture: SPT302 in a second tree — direct, via summary, one path.

``guess`` is produced by a speculator and sent to another rank without
every path passing it through ``check``/``verify`` first.  The
interprocedural variant launders the value through a helper whose
summary says "returns unconfirmed speculation".
"""

VARS = "vars"


def direct(proc, t, history):
    guess = speculate(history, t)
    proc.send(1, guess, tag=(VARS, t))        # SPT302: never verified


def produce(history, t):
    return extrapolate(history, t)


def interprocedural(proc, t, history):
    estimate = produce(history, t)
    proc.send(1, estimate, tag=(VARS, t))     # SPT302: via summary


def one_path_unchecked(proc, t, history, lucky):
    guess = speculate(history, t)
    if lucky:
        actual = proc.recv(src=0, tag=(VARS, t))
        guess = check(guess, actual)
    proc.send(1, guess, tag=(VARS, t))        # SPT302: else-path unchecked
