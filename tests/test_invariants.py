"""The invariant registry is the single source of truth.

The registry (:mod:`repro.engine.invariants`) feeds three consumers:
the runtime :class:`ProtocolSanitizer`, the specmc model checker, and
the documentation.  These tests pin the consistency the tentpole
promises: every id a consumer enumerates is registered, every seat
holds exactly the invariants it claims, and the docs catalogue lists
each one.
"""

import pathlib
import re

import pytest

from repro.analysis.modelcheck import MUTATIONS, report_dict
from repro.engine.invariants import (
    INVARIANTS,
    SEAT_SANITIZER,
    SEAT_SPECMC,
    require,
    sanitizer_invariant_ids,
    specmc_invariant_ids,
)
from repro.engine.sanitizer import ProtocolSanitizer

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_registry_is_well_formed():
    assert len(INVARIANTS) == 12
    for invariant_id, inv in INVARIANTS.items():
        assert inv.id == invariant_id
        assert inv.title and inv.summary
        assert inv.kind in ("safety", "liveness")
        assert inv.seats <= {SEAT_SANITIZER, SEAT_SPECMC}
        assert inv.seats, f"{invariant_id} has no seat"
        # ids are kebab-case
        assert re.fullmatch(r"[a-z][a-z-]*[a-z]", invariant_id)


def test_seat_views_partition_the_registry():
    assert set(sanitizer_invariant_ids()) <= set(INVARIANTS)
    assert set(specmc_invariant_ids()) <= set(INVARIANTS)
    # Every invariant is enforced somewhere.
    assert set(sanitizer_invariant_ids()) | set(specmc_invariant_ids()) == set(INVARIANTS)


def test_sanitizer_enumerates_registry_seat():
    assert ProtocolSanitizer.INVARIANTS == sanitizer_invariant_ids()


def test_specmc_reports_enumerate_registry_seat():
    doc = report_dict([])
    assert doc["invariants"] == list(specmc_invariant_ids())


def test_mutation_targets_are_registered():
    for mutation in MUTATIONS.values():
        assert mutation.expected_invariant in INVARIANTS


def test_require_rejects_unregistered_ids():
    require("forward-window-bound")  # no raise
    with pytest.raises(KeyError):
        require("totally-made-up")


def test_docs_catalogue_lists_every_invariant():
    protocol_md = (REPO_ROOT / "docs" / "protocol.md").read_text()
    for invariant_id in INVARIANTS:
        assert f"`{invariant_id}`" in protocol_md, (
            f"docs/protocol.md invariant catalogue is missing {invariant_id}"
        )


def test_lint_effect_alphabet_matches_engine():
    """SPL008's mirrored alphabet must track the real effect union."""
    from repro.analysis.rules import EFFECT_ALPHABET, IO_EFFECTS, NOTIFY_EFFECTS
    from repro.engine.events import Arrival, Charge, Effect, Recv, Send, TryRecv

    real = {cls.__name__ for cls in Effect}
    assert EFFECT_ALPHABET == real
    assert IO_EFFECTS == {Send.__name__, Recv.__name__, TryRecv.__name__,
                          Charge.__name__}
    assert NOTIFY_EFFECTS == real - IO_EFFECTS
    assert Arrival.__name__ not in EFFECT_ALPHABET  # response, not effect
