"""Which check catches each static rule's bug when it is written into the real code?

``MUTANTS`` holds one or two one-site edits per rule the static
analyzers have had, each applied to the real file the rule guards (the
engine, the loopback runner, the pipe transport, the network and
latency models, the DES kernel, the mp worker, the window policy or an
application hook).  A deleted rule's mutants stay: they show what
catches its bug now.  For each
mutant, in a temporary copy of the working tree, the script records
which of four checks fails:

* ``rule``: ``repro check src`` reports a finding under the mutant's
  rule code that the unmutated tree does not;
* ``selftest``: ``repro lint --sanitize-selftest`` exits non-zero;
* ``mc``: one of CI's clean ``repro mc`` scenarios, within its budget,
  exits non-zero;
* ``tier-1``: ``pytest -x -q`` fails (the first failing test is
  named).  The tests that only assert that an analyzer is clean over
  ``src`` are deselected (``ANALYZER_GATES``), since they would report
  every rule's mutant as caught.

Run it from anywhere (about 30 minutes; nothing runs in parallel)::

    python scripts/mutants.py            # every mutant
    python scripts/mutants.py SPL005     # only those of the named rules

It prints one row per mutant and exits 0; ``docs/mutants.txt`` holds
the last full run, read by ``docs/static_analysis.md``'s rule audit.
It is not a CI step.
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Tier-1 tests whose only assertion is that an analyzer is clean over
#: ``src`` (or a part of it).
ANALYZER_GATES = (
    "tests/test_analysis_tools.py::test_src_is_clean",
    "tests/test_speclint.py::test_repo_tree_is_speclint_clean",
    "tests/test_specflow.py::test_trace_replay_cross_references_static_findings",
)
#: CI's clean model-checker scenarios (the ``mc-smoke`` job).
MC_SCENARIOS = (
    ("--p", "2", "--fw", "1", "--iters", "3", "--budget", "60s"),
    ("--p", "3", "--fw", "2", "--iters", "2", "--budget", "120s"),
    ("--p", "2", "--fw", "1", "--iters", "3", "--window", "cost",
     "--budget", "120s"),
)
TIER1_TIMEOUT = 900


@dataclass(frozen=True)
class Mutant:
    rule: str
    name: str
    path: str
    #: ``(old, new)`` replacements; each ``old`` occurs exactly once.
    edits: Tuple[Tuple[str, str], ...]
    what: str


ENGINE = "src/repro/engine/core.py"
LOOPBACK = "src/repro/engine/loopback.py"

MUTANTS: Tuple[Mutant, ...] = (
    Mutant("SPL001", "ingress-hold-not-yielded", "src/repro/netsim/network.py",
           (("self.env.now + message[2], self._leave_ingress",
             "self.env.now, self._leave_ingress"),),
           "the receiver-ingress port releases the link without holding it"),
    Mutant("SPL003", "global-rng-system", "src/repro/apps/jacobi.py",
           (("b = rng.normal(size=n)", "b = np.random.normal(size=n)"),),
           "Jacobi's right-hand side drawn from numpy's global RNG"),
    Mutant("SPL003", "unseeded-jitter", "src/repro/netsim/latency.py",
           (("np.random.default_rng(seed)", "np.random.default_rng()"),),
           "the latency jitter's generator is not seeded"),
    Mutant("SPL004", "send-family-literal", ENGINE,
           (("payload=payload,\n", "payload=payload, family=\"var\",\n"),),
           "the engine's sends carry an inline, misspelt family"),
    Mutant("SPL005", "repair-in-place", "src/repro/apps/nbody_app.py",
           (("block = next_block.copy()", "block = next_block"),),
           "N-body's correct writes into a block that may be on the wire"),
    Mutant("SPL005", "speculate-into-arrival", "src/repro/apps/nbody_app.py",
           (("block = np.empty_like(last)", "block = last"),),
           "N-body's speculate overwrites the received block it reads"),
    Mutant("SPL006", "worker-traceback-dropped", "src/repro/parallel/worker.py",
           (("error_traceback=traceback.format_exc()",
             "error_traceback=str(exc)"),),
           "a failed mp worker reports its error without the traceback"),
    Mutant("SPL006", "process-error-swallowed", "src/repro/des/events.py",
           (("except BaseException as exc:\n            self.fail(exc)",
             "except BaseException as exc:\n            self.succeed(None)"),),
           "a DES process that raises ends as if it had succeeded"),
    Mutant("SPL007", "engine-prints", ENGINE,
           (("        yield CascadeBegin(iteration=t)\n",
             "        print(\"cascade\", j, t)\n"
             "        yield CascadeBegin(iteration=t)\n"),),
           "the engine prints each cascade"),
    Mutant("SPL007", "engine-reads-clock", ENGINE,
           (("from __future__ import annotations\n",
             "from __future__ import annotations\nimport time\n"),
            ("now = self.work + self.overhead + self.wait",
             "now = time.monotonic()")),
           "with no transport clock the window policy reads the wall clock"),
    Mutant("SPL008", "charge-to-observer", LOOPBACK,
           (("elif kind is Charge:\n                response = self._charge",
             "elif kind is None:\n                response = self._charge"),),
           "the loopback / DES dispatch hands Charge to the observer"),
    Mutant("SPL008", "tryrecv-to-observer", LOOPBACK,
           (("elif kind is Recv or kind is TryRecv:",
             "elif kind is Recv:"),),
           "the loopback / DES dispatch hands TryRecv to the observer"),
    Mutant("SPF110", "receive-family-typo", ENGINE,
           (("match=(VARS, t)", "match=(\"var\", t)"),),
           "the receive-driven engine waits on a family nobody sends"),
    Mutant("SPF110", "receive-iteration-skew", LOOPBACK,
           (("if match is None or (family, iteration) == match:",
             "if match is None or (family, iteration + 1) == match:"),),
           "the loopback runner never satisfies a matched receive"),
    Mutant("SPF111", "newest-first-delivery", LOOPBACK,
           (("in enumerate(\n            self.queues[rank]\n        ):",
             "in reversed(list(enumerate(\n            self.queues[rank]\n"
             "        ))):"),),
           "the loopback runner delivers the newest matching message"),
    Mutant("SPT301", "engine-prints-guess", ENGINE,
           (("                    self.spec_used[(k, t)] = spec\n",
             "                    print(spec)\n"
             "                    self.spec_used[(k, t)] = spec\n"),),
           "the engine prints each guess before it is checked"),
    Mutant("SPT301", "app-prints-guess", "src/repro/apps/nbody_app.py",
           (("        self._speculated.setdefault(rank, {})[k] = block\n",
             "        print(block)\n"
             "        self._speculated.setdefault(rank, {})[k] = block\n"),),
           "N-body's speculate prints its guess"),
    Mutant("SPT302", "send-before-verify", ENGINE,
           (("while self.verified_upto < self.pre_send_horizon(t):",
             "while False:"),),
           "X_j(t) goes on the wire before its inputs are verified"),
    Mutant("SPB405", "cost-window-past-ceiling", "src/repro/policy/window.py",
           (("range(self.min_fw, self.max_fw + 1)",
             "range(self.min_fw, self.max_fw + 2)"),),
           "the cost policy may pick max_fw + 1"),
    Mutant("SPB405", "cost-window-always-widens", "src/repro/policy/window.py",
           (("return fw + (1 if best > fw else -1)", "return fw + 1"),),
           "the cost policy widens whichever way the cost points"),
    Mutant("SPB408", "inputs-never-pruned", ENGINE,
           (("        for t in [t for t in self.inputs_used if t < horizon]:\n"
             "            del self.inputs_used[t]\n", ""),),
           "the engine keeps every iteration's inputs"),
    Mutant("SPB408", "actuals-never-pruned", ENGINE,
           (("        for key in [key for key in self.actual if key[1] < horizon]:\n"
             "            del self.actual[key]\n", ""),),
           "the engine keeps every actual block it received"),
    Mutant("SPP204", "cascade-reads-every-ring", ENGINE,
           (("            for k2 in sorted(self.needed):\n",
             "            for k2 in sorted(self.needed):\n"
             "                self.history[k2].series()\n"),),
           "each cascade step reads every peer's ring, speculated or not"),
    Mutant("SPP207", "pipe-frame-list", "src/repro/engine/pipes.py",
           (("conn.send((effect.seq, time.monotonic(), effect.iteration,\n"
             "                   effect.payload))",
             "conn.send([effect.seq, time.monotonic(), effect.iteration,\n"
             "                   effect.payload])"),),
           "the pipe transport pickles each frame as a list"),
)


def run(argv: List[str], tree: pathlib.Path, timeout: float) -> Tuple[Optional[int], str]:
    """(exit code or None on timeout, stdout + stderr) of one command."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("REPRO_SANITIZE", None)
    try:
        done = subprocess.run(argv, cwd=tree, env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


_FINDING = re.compile(r"^(\S+?):\d+:\d+: (\w+) (.*)$")


def check_findings(tree: pathlib.Path) -> Dict[Tuple[str, str, str], int]:
    """``repro check src``'s findings, keyed without line and column."""
    _, out = run([sys.executable, "-m", "repro.cli", "check", "src"], tree, 300)
    counts: Dict[Tuple[str, str, str], int] = {}
    for line in out.splitlines():
        m = _FINDING.match(line)
        if m:
            key = (m.group(1), m.group(2), re.sub(r"line \d+", "line N", m.group(3)))
            counts[key] = counts.get(key, 0) + 1
    return counts


def new_codes(base: Dict[Tuple[str, str, str], int],
              now: Dict[Tuple[str, str, str], int]) -> List[str]:
    return sorted({key[1] for key, n in now.items() if n > base.get(key, 0)})


def tier1(tree: pathlib.Path) -> str:
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "tests"]
    for gate in ANALYZER_GATES:
        argv += ["--deselect", gate]
    code, out = run(argv, tree, TIER1_TIMEOUT)
    if code is None:
        return f"timeout ({TIER1_TIMEOUT} s)"
    if code == 0:
        return "-"
    failed = re.search(r"^FAILED (\S+)", out, re.M)
    if failed:
        return failed.group(1).split(" - ")[0]
    error = re.search(r"^ERROR (\S+)", out, re.M)
    return error.group(1) if error else f"exit {code}"


def mc(tree: pathlib.Path) -> str:
    for scenario in MC_SCENARIOS:
        code, _ = run([sys.executable, "-m", "repro.cli", "mc", *scenario],
                      tree, 300)
        if code != 0:
            return f"mc {' '.join(scenario)}: " + (
                "timeout" if code is None else f"exit {code}")
    return "-"


def selftest(tree: pathlib.Path) -> str:
    code, _ = run([sys.executable, "-m", "repro.cli", "lint",
                   "--sanitize-selftest"], tree, 300)
    return "-" if code == 0 else ("timeout" if code is None else f"exit {code}")


def apply(text: str, mutant: Mutant) -> str:
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise SystemExit(
                f"{mutant.rule} {mutant.name}: {old!r} occurs "
                f"{text.count(old)} times in {mutant.path}")
        text = text.replace(old, new)
    return text


def audit(rules: List[str]) -> int:
    chosen = [m for m in MUTANTS if not rules or m.rule in rules]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "parity-out"))
        base = check_findings(tree)
        print("| rule | mutant | file | edit | rule fires | selftest | mc | tier-1 |")
        print("| --- | --- | --- | --- | --- | --- | --- | --- |")
        for mutant in chosen:
            target = tree / mutant.path
            original = target.read_text(encoding="utf-8")
            target.write_text(apply(original, mutant), encoding="utf-8")
            try:
                codes = new_codes(base, check_findings(tree))
                fires = "yes" if mutant.rule in codes else "no"
                others = [c for c in codes if c != mutant.rule]
                if others:
                    fires += f" (also {', '.join(others)})"
                row = (mutant.rule, mutant.name, mutant.path[len("src/repro/"):],
                       mutant.what, fires, selftest(tree), mc(tree), tier1(tree))
            finally:
                target.write_text(original, encoding="utf-8")
            print("| " + " | ".join(
                f"`{c}`" if i in (0, 1) else c for i, c in enumerate(row)
            ) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(audit(sys.argv[1:]))
