"""Fixture (clean): a reclaimed speculation ledger is not an escape.

Storing the guess into ``self.pending`` is exactly how a rollback
ledger works: the receiver's own attribute is not a caller-owned
object, and the guess reaches no send before ``check``.
"""


class Ledger:
    def speculate_input(self, key, history):
        guess = speculate(history)
        self.pending[key] = guess       # clean: reclaimed below
        return guess

    def on_arrival(self, key, actual):
        guess = self.pending.pop(key, None)
        if guess is not None:
            check(guess, actual)
