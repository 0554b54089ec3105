"""Watch one engine from outside: the effects it yields and the calls
it makes on its :class:`~repro.engine.observer.RankObserver`, in one
list, in the order they happened."""

from __future__ import annotations


class ObserverSpy:
    """Stands in for ``inner``: each method call is appended to ``seen``
    as ``(name, args)``, then made on ``inner``; attributes read
    through."""

    def __init__(self, inner, seen):
        self._inner, self._seen = inner, seen

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if name == "record" or not callable(value):
            return value

        def call(*args):
            self._seen.append((name, args))
            return value(*args)

        return call


def spy_on(engine, seen):
    """Make ``engine.run(observer)`` append each effect it yields, and
    each call it makes on ``observer``, to ``seen``; ``engine``."""
    inner = engine.run

    def recording(observer):
        gen = inner(ObserverSpy(observer, seen))
        response = None
        while True:
            try:
                effect = gen.send(response)
            except StopIteration as stop:
                return stop.value
            seen.append(effect)
            response = yield effect

    engine.run = recording
    return engine
