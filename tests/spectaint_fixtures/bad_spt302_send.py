"""Fixture: SPT302 — an unconfirmed speculation is sent to a peer.

The predicted block travels to another rank with no rollback seat;
the receiver folds it into its own state as if it were confirmed.
"""


def exchange(transport, history):
    guess = predict(history)
    transport.send(1, guess)     # SPT302: payload is unconfirmed
    transport.send(2, guess)     # SPT302: and so is every other peer
