"""The correction-cascade policy as a first-class enum.

``cascade="recompute"`` / ``cascade="none"`` are the two spellings;
:class:`~repro.api.RunConfig` coerces its ``cascade`` through
:meth:`CascadePolicy.coerce`, the one validation site, and documents
what each policy does.

It subclasses :class:`str` so every existing comparison
(``engine.cascade == "none"``), dict key, JSON serialisation and
pickle round-trip keeps working unchanged.
"""

from __future__ import annotations

from enum import Enum


class CascadePolicy(str, Enum):
    """What happens to iterations computed *after* a rejected one.

    * :attr:`RECOMPUTE` — redo them in order from the corrected state,
      re-speculating still-missing inputs (rigorous under θ = 0).
    * :attr:`NONE` — the paper's behaviour: repair only the iteration
      whose message just arrived; downstream iterations keep their
      θ-bounded stale state.
    """

    RECOMPUTE = "recompute"
    NONE = "none"

    @classmethod
    def coerce(cls, cascade: "CascadePolicy | str") -> "CascadePolicy":
        """Validate and normalise a cascade spelling.

        Accepts an enum member or its string value; raises the
        historical ``ValueError`` message on anything else.
        """
        try:
            return cls(cascade)
        except ValueError:
            raise ValueError(f"unknown cascade policy {cascade!r}") from None

    def __str__(self) -> str:  # "recompute", not "CascadePolicy.RECOMPUTE"
        return self.value
