"""Fixture: interprocedural escape through two calls.

Neither ``relay`` nor ``emit`` speculates, and ``produce`` never
sends — only the whole chain is broken: the speculation made in
``produce`` flows through ``relay``'s parameter into ``emit``'s
parameter, which sends it.  Catching this requires the call-graph
summaries, not any single-function view.
"""


def emit(value):
    PEER.send(1, value)  # sink: tainted only via callers


def relay(value):
    emit(value)         # forwards its parameter to the sink


def produce(history):
    guess = speculate(history)
    relay(guess)        # SPT302: escape through a two-call chain
