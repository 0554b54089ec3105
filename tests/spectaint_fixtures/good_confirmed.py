"""Fixture (clean): confirm-then-commit, the protocol done right.

Every speculative value passes a check/verify (or a justified
``# spectaint: commit`` line) before it is sent.
"""


def step(transport, history, actual):
    guess = speculate(history)
    check(guess, actual)      # confirmation happens first ...
    transport.send(1, guess)  # ... so the send is clean
    transport.send(2, guess)  # ... and so is the next


def barrier_step(transport, history):
    guess = speculate(history)
    # The surrounding barrier guarantees the actual arrived and matched
    # before this function is entered; the dataflow cannot see that.
    adopted = guess  # spectaint: commit — barrier-confirmed upstream
    transport.send(1, adopted)
