"""Fixture: rules must reach decorated, nested and async-nested defs.

Regression guard for the rule visitors: every function below hides an
un-driven ``proc.recv(...)`` (SPL001) behind a nesting shape that a
naive top-level-only visitor would skip — a decorator, a closure
inside a closure, an async-nested def, and a method of a class defined
inside a function.
"""

import functools


def decorate(fn):
    return fn


@decorate
@functools.lru_cache(maxsize=None)
def decorated(proc):
    def body():
        proc.recv(src=1)        # SPL001: dropped generator (decorated)
        yield None

    return body


def outer(proc):
    def middle():
        def inner():
            proc.recv(src=2)    # SPL001: dropped generator (doubly nested)
            yield None

        return inner

    return middle


async def async_outer(proc):
    def inner():
        proc.recv(src=3)        # SPL001: dropped generator (async-nested)
        yield None

    return inner


def factory(proc):
    class Stepper:
        def step(self):
            proc.recv(src=4)    # SPL001: dropped generator (class-in-def)
            yield None

    return Stepper
