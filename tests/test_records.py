"""``repro.trace.records.record`` changes how a record is filled and
nothing else: every converted class against a stock
``@dataclass(frozen=True)`` twin built from the same fields."""

from __future__ import annotations

import dataclasses
import inspect
import pickle
from dataclasses import FrozenInstanceError, asdict, dataclass, field, fields, replace

import pytest

from repro.engine import events as effects
from repro.trace import TraceEvent
from repro.trace.records import record
from repro.vm import Message

#: Field-less effects have nothing to fill; the engine builds each once.
FIELDLESS = (effects.TryRecv, effects.CascadeEnd)
CONVERTED = [cls for cls in effects.Effect if cls not in FIELDLESS] + [
    effects.Arrival, Message, TraceEvent]


def twin_of(cls: type) -> type:
    """The same fields under the stock decorator (and the same
    hand-written ``__repr__``, where the class has one)."""
    params = cls.__dataclass_params__
    namespace = {"__repr__": cls.__repr__} if cls is Message else {}
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, field(default=f.default, init=f.init, compare=f.compare))
         for f in fields(cls)],
        frozen=True, order=params.order, namespace=namespace,
    )


def described(cls: type) -> list:
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr,
             f.hash, f.compare, f.kw_only) for f in fields(cls)]


def signature(cls: type) -> list:
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("cls", CONVERTED, ids=lambda cls: cls.__name__)
def test_a_record_is_its_stock_twin_but_for_how_it_is_filled(cls):
    twin = twin_of(cls)
    assert "_dict" in cls.__init__.__code__.co_varnames  # converted at all
    assert described(cls) == described(twin)
    assert signature(cls) == signature(twin)
    assert cls.__match_args__ == twin.__match_args__

    names = [f.name for f in fields(cls) if f.init]
    required = [f.name for f in fields(cls) if f.default is dataclasses.MISSING]
    values = dict(zip(names, range(1, len(names) + 1)))
    for build in (
        lambda c: c(*values.values()),                       # positional
        lambda c: c(**values),                               # keyword
        lambda c: c(*[values[n] for n in required]),         # defaults
        lambda c: c(values[names[0]], **{n: values[n] for n in required[1:]}),
    ):
        mine, theirs = build(cls), build(twin)
        assert repr(mine) == repr(theirs)
        assert asdict(mine) == asdict(theirs) == vars(mine)
        assert hash(mine) == hash(theirs)
        assert mine == build(cls) and mine is not build(cls)
        assert mine != theirs  # equality stays class-specific
        assert pickle.loads(pickle.dumps(mine)) == mine
        assert vars(pickle.loads(pickle.dumps(mine))) == vars(mine)

        changed = {names[-1]: -7}
        assert asdict(replace(mine, **changed)) == asdict(replace(theirs, **changed))
        assert type(replace(mine, **changed)) is cls
        compared = [f.name for f in fields(cls) if f.compare]
        for name in names:
            bumped = replace(mine, **{name: 99})
            assert (bumped == mine) == (name not in compared)
        if cls.__dataclass_params__.order:
            later = replace(mine, **{names[0]: 99})
            assert mine < later and not later < mine

        with pytest.raises(FrozenInstanceError):
            setattr(mine, names[0], 0)
        with pytest.raises(FrozenInstanceError):
            delattr(mine, names[0])
        with pytest.raises(FrozenInstanceError):
            mine.brand_new = 0

    for bad in (lambda c: c(), lambda c: c(*range(len(names) + 1)),
                lambda c: c(**values, surplus=1),
                lambda c: c(*values.values(), **{names[0]: 1})):
        with pytest.raises(TypeError):
            bad(cls)
        with pytest.raises(TypeError):
            bad(twin)


def test_records_of_different_classes_never_compare_equal():
    assert effects.Verified(1, 2) != effects.Corrected(1, 2)
    assert hash(effects.Verified(1, 2)) == hash(effects.Verified(peer=1, iteration=2))


def test_message_is_delivered_once_and_stays_frozen():
    msg = Message(src=0, dst=1, tag=("vars", 3), payload="x", nbytes=8, sent_at=1.0)
    assert msg.delivered_at is None
    with pytest.raises(ValueError, match="precedes send"):
        msg.mark_delivered(0.5)
    msg.mark_delivered(2.5)
    assert msg.delivered_at == 2.5
    with pytest.raises(ValueError, match="already delivered"):
        msg.mark_delivered(3.0)
    with pytest.raises(FrozenInstanceError):
        msg.delivered_at = 9.0
    # The stamp is not part of the message's identity.
    assert msg == Message(0, 1, ("vars", 3), "x", 8, 1.0)


def test_record_refuses_what_its_init_would_not_emulate():
    with pytest.raises(TypeError, match="frozen"):
        @record
        @dataclass
        class Thawed:
            x: int

    with pytest.raises(TypeError, match="frozen"):
        @record
        @dataclass(frozen=True)
        class Checked:
            x: int

            def __post_init__(self):
                pass

    with pytest.raises(TypeError, match="plain field"):
        @record
        @dataclass(frozen=True)
        class Factory:
            xs: list = field(default_factory=list)

    with pytest.raises(TypeError, match="plain field"):
        @record
        @dataclass(frozen=True)
        class Derived:
            x: int = field(init=False)
