"""Fixture (clean): a declared commit point is a sanctioned escape.

``adopt_arrival`` is decorated ``@commits``: spectaint trusts its body
(its ``send`` would otherwise make each caller's guess an SPT302) and
treats every value passed into it as confirmed from the call onward.
"""


def commits(func):
    return func


@commits
def adopt_arrival(store, value):
    store.state = value      # sanctioned: inside a declared commit point
    store.send(0, value)     # sanctioned: ditto


def on_arrival(store, history):
    guess = speculate(history)
    adopt_arrival(store, guess)   # clean: callee is a commit point
    store.send(1, guess)          # clean: the call confirmed `guess`
