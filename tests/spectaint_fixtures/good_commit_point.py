"""Fixture (clean): a declared commit point is a sanctioned escape.

``adopt_arrival`` is decorated ``@commits``: spectaint trusts its body
(its ``print`` would otherwise make each caller's guess an SPT301) and
treats every value passed into it as confirmed from the call onward.
"""


def commits(func):
    return func


@commits
def adopt_arrival(store, value):
    store.state = value      # sanctioned: inside a declared commit point
    print("adopted", value)  # sanctioned: ditto


def on_arrival(store, history):
    guess = speculate(history)
    adopt_arrival(store, guess)   # clean: callee is a commit point
    print(guess)                  # clean: the call confirmed `guess`
