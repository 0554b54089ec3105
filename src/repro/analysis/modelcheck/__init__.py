"""specmc — exhaustive interleaving model checker for the sans-I/O
protocol engine.

The static-analysis ladder's semantic rung: speclint checks syntax,
specflow checks dataflow and happens-before, specmc *executes* every
reachable message-delivery/scheduling interleaving of bounded
configurations (p <= 3, FW <= 2, BW <= 2, T <= 4) of real
:class:`~repro.engine.core.SpecEngine` instances and checks the shared
invariant registry (:mod:`repro.engine.invariants`) in every state.

Entry points:

* :func:`explore` — the search (sleep-set DPOR + fingerprint dedup);
* :func:`shrink_schedule` — ddmin a counterexample schedule;
* :func:`replay_schedule` — deterministic replay (used by generated
  regression tests);
* :func:`emit_trace` / :func:`emit_test` — counterexample to
  ``repro analyze --trace`` JSONL / ready-to-run pytest;
* ``repro mc`` (:mod:`repro.cli`) — the command-line surface.
"""

from repro.analysis.modelcheck.emit import emit_test, emit_trace
from repro.analysis.modelcheck.explorer import (
    Budget,
    McResult,
    explore,
)
from repro.analysis.modelcheck.model import (
    MUTATIONS,
    Action,
    Execution,
    McViolation,
    Mutation,
    ReplayOutcome,
    replay_schedule,
    resolve_mutation,
    schedule_from_json,
    schedule_to_json,
)
from repro.analysis.modelcheck.report import (
    render_json,
    render_sarif_mc,
    render_text,
    report_dict,
)
from repro.analysis.modelcheck.scenario import (
    CASCADES,
    MAX_BW,
    MAX_FW,
    MAX_ITERS,
    MAX_P,
    SCENARIOS,
    ConstantProgram,
    DriftProgram,
    McConfig,
    build_program,
)
from repro.analysis.modelcheck.shrink import shrink_schedule

__all__ = [
    "Action",
    "Budget",
    "CASCADES",
    "ConstantProgram",
    "DriftProgram",
    "Execution",
    "MAX_BW",
    "MAX_FW",
    "MAX_ITERS",
    "MAX_P",
    "MUTATIONS",
    "McConfig",
    "McResult",
    "McViolation",
    "Mutation",
    "ReplayOutcome",
    "SCENARIOS",
    "build_program",
    "emit_test",
    "emit_trace",
    "explore",
    "render_json",
    "render_sarif_mc",
    "render_text",
    "replay_schedule",
    "report_dict",
    "resolve_mutation",
    "schedule_from_json",
    "schedule_to_json",
    "shrink_schedule",
]
