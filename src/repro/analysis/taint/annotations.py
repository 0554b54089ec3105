"""The commit-point annotation API spectaint type-checks against.

The speculative protocol's correctness obligation is that data derived
from an *unconfirmed* speculative receive stays reversible until the
actual value arrives.  Some sites legitimately end that obligation —
the engine's arrival handler, an application's barrier-synchronised
adoption step — and the analysis must not flag them.  Two spellings
mark such sites:

``@commits``
    Decorate a function to declare it a commit point: spectaint
    treats every argument passed into it as *confirmed* from the call
    onward, and never reports the function's own body as an escape.
    The decorator is a pure marker at runtime (it tags the function
    and returns it unchanged), so production code can carry it with
    zero overhead.

``# spectaint: commit``
    Annotate a single line: values produced by assignments on that
    line are treated as confirmed.  Use it where a value is known to
    be safe for reasons the dataflow cannot see (e.g. a barrier
    guarantees the actual arrived), and say why in the same comment.

Both are honoured *by name* during static analysis (the analyser never
imports the code it checks), so fixtures and third-party code may use
any decorator called ``commits``.
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable[..., object])

#: Attribute set on decorated functions (runtime introspection hook).
COMMITS_ATTR = "__spectaint_commits__"


def commits(func: F) -> F:
    """Mark ``func`` as a legitimate commit point (pure marker)."""
    setattr(func, COMMITS_ATTR, True)
    return func

