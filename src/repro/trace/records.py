"""Frozen records that are cheap to build: one ``__init__`` generator
for the effect alphabet, ``vm.Message`` and ``TraceEvent``."""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import TypeVar

T = TypeVar("T", bound=type)


def record(cls: T) -> T:
    """Stack on ``@dataclass(frozen=True)``: fill the instance dict directly.

    The stock ``__init__`` of a frozen dataclass calls
    ``object.__setattr__`` once per field, because the class's own
    ``__setattr__`` raises; on the per-message path those calls are
    half of what a record costs.  This swaps in an ``__init__`` of the
    same signature that stores into ``self.__dict__``, which no
    ``__setattr__`` guards.  The rest stays the dataclass's: fields,
    ``==``, ``hash``, ``repr``, ``replace`` / ``fields`` / ``asdict``,
    pickling, ``FrozenInstanceError`` on assignment.  Plain fields with
    plain defaults only (an ``init=False`` field is set to its default)
    — ``default_factory`` and ``__post_init__`` are refused rather than
    emulated.
    """
    if not cls.__dataclass_params__.frozen or hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: not a plain frozen dataclass")
    for f in fields(cls):
        if (f.kw_only or f.default_factory is not MISSING
                or not f.init and f.default is MISSING):
            raise TypeError(f"{cls.__name__}.{f.name}: not a plain field")
    names = [f.name for f in fields(cls) if f.init]
    namespace = {f"_default_{f.name}": f.default for f in fields(cls) if not f.init}
    exec(f"def __init__(self, {', '.join(names)}):\n  _dict = self.__dict__\n  "
         + "\n  ".join(f"_dict[{f.name!r}] = {f.name if f.init else '_default_' + f.name}"
                        for f in fields(cls)),
         namespace)  # generated from source, as dataclasses does
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    # Defaulted fields trail the others, which is how __defaults__ binds.
    cls.__init__.__defaults__ = tuple(
        f.default for f in fields(cls) if f.init and f.default is not MISSING)
    return cls
