"""Fixture: SPB406 in a second tree — event buffer appended, never trimmed.

The arrival handler accumulates every event forever: memory and any
later scan grow linearly with run length.  A ring buffer (or trimming
on consumption) bounds it.
"""


class Collector:
    def __init__(self):
        self.events = []

    def record_arrival(self, batch):
        for item in batch:
            self.events.append(item)   # SPB406: never trimmed
