"""Compare every pinned artifact of the reproduction: one table, one command.

``ARTIFACTS`` declares each artifact once: the command that produces it
(a ``repro`` CLI call or a repo script) and the ``tests/golden/`` file
that pins it, if any.  A row's outputs are its exit code, its stdout and
stderr, and every file it writes (the argv entries under
``parity-out/``).  Text is compared line by line, JSON / JSONL / SARIF
as parsed documents, and ``elapsed`` readings are blanked first.

Two modes, run from anywhere:

* ``python scripts/parity.py`` runs the rows that have a golden file
  against this tree's ``src`` and compares the pinned output (the
  written file, else stdout) with the golden file, line by line.  CI
  gates on this mode.
* ``python scripts/parity.py --parent REV`` extracts REV's ``src`` with
  ``git archive`` into a temporary directory and runs *every* row twice
  from the repository root, once with REV's ``src`` and once with this
  tree's on ``PYTHONPATH``.  Both sides write their files under the
  same relative names, so printed paths match.

Each row prints one verdict: ``identical``, ``moved`` with the first
difference, or ``failed`` when a run exits with neither 0 nor 1 (the
findings code).  The exit code is 1 unless every row is identical.
"""

import argparse
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Every file a row writes lives here, relative to the repository root.
OUT = "parity-out"
GOLDEN_TRACE = "tests/golden/jacobi_p4_fw1.jsonl"
TREES = tuple(
    f"tests/{family}_fixtures"
    for family in ("speclint", "specflow")
)

#: An output's name (``exit code``, ``stdout``, ``stderr`` or a written
#: path) -> its text; None for a file the run did not write.
Outputs = Dict[str, Optional[str]]


@dataclass(frozen=True)
class Artifact:
    name: str
    argv: Tuple[str, ...]
    #: The golden file pinning the row's written file, or its stdout if
    #: it writes none.
    golden: Optional[str] = None

    @property
    def files(self) -> Tuple[str, ...]:
        return tuple(arg for arg in self.argv if arg.startswith(OUT + "/"))

    def kind(self, output: str) -> str:
        """How ``output`` compares: ``text``, ``json`` or ``jsonl``."""
        if output == "stdout":
            argv = list(self.argv)
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else ""
            return "json" if fmt in ("json", "sarif") else "text"
        suffix = pathlib.PurePath(output).suffix
        return {".json": "json", ".sarif": "json", ".jsonl": "jsonl"}.get(
            suffix, "text"
        )


def _rows() -> Iterator[Artifact]:
    yield Artifact("fig8", ("repro", "run", "fig8"), "tests/golden/fig8.txt")
    yield Artifact("table2", ("repro", "run", "table2"), "tests/golden/table2.txt")
    yield Artifact(
        "nbody-loopback-p4",
        ("repro", "nbody", "--backend", "loopback", "-p", "4",
         "--particles", "2000", "--iterations", "10"),
        "tests/golden/nbody_loopback_p4.txt",
    )
    yield Artifact(
        "jacobi-p4-fw1-trace",
        ("repro", "jacobi", "-p", "4", "--fw", "1",
         "--record-trace", f"{OUT}/jacobi-p4-fw1.jsonl"),
        GOLDEN_TRACE,
    )
    yield Artifact("capture-golden", ("python", "scripts/capture_golden.py"))
    for cli, family, formats in (
        ("lint", "speclint", ("text", "json")),
        ("analyze", "specflow", ("text", "json", "sarif")),
    ):
        for fmt in formats:
            argv = ("repro", cli, f"tests/{family}_fixtures", "--format", fmt)
            yield Artifact(f"{family}-{fmt}", argv)
            if cli != "lint":
                yield Artifact(
                    f"{family}-{fmt}-trace", argv + ("--trace", GOLDEN_TRACE)
                )
    yield Artifact("check-text", ("repro", "check") + TREES)
    yield Artifact("check-json", ("repro", "check") + TREES + ("--format", "json"))
    yield Artifact(
        "check-sarif", ("repro", "check") + TREES + ("--sarif", f"{OUT}/check.sarif")
    )
    for mutation in ("ungated-window", "no-seq-floor", "seq-skip",
                     "drop-message", "runaway-window"):
        fw = "0" if mutation == "ungated-window" else "1"
        yield Artifact(
            f"mc-{mutation}",
            ("repro", "mc", "--p", "2", "--fw", fw, "--iters", "3",
             "--mutate", mutation, "--report", f"{OUT}/mc-{mutation}.json",
             "--emit-trace", f"{OUT}/mc-{mutation}.jsonl"),
        )
    for app, flags in (
        ("nbody", ("-p", "2", "--particles", "64", "--iterations", "4")),
        ("jacobi", ("-p", "4", "--fw", "2", "--iterations", "8")),
        ("chaos", ("-p", "2", "-n", "32", "--iterations", "12", "--fw", "1",
                   "--drop", "0.01", "--straggler", "1:3.0", "--fault-seed", "1")),
    ):
        yield Artifact(
            f"{app}-loopback-trace",
            ("repro", app, "--backend", "loopback") + flags
            + ("--record-trace", f"{OUT}/{app}-loopback.jsonl"),
        )
    yield Artifact("sanitize-selftest", ("repro", "lint", "--sanitize-selftest"))
    yield Artifact(
        "nbody-des-p16-trace",
        ("repro", "nbody", "-p", "16", "--fw", "2", "--particles", "160",
         "--iterations", "6", "--record-trace", f"{OUT}/nbody-des-p16.jsonl"),
    )


ARTIFACTS: Tuple[Artifact, ...] = tuple(_rows())


# ------------------------------------------------------------ running


def run(row: Artifact, src: pathlib.Path) -> Outputs:
    """Run ``row`` from the repository root with ``src`` on PYTHONPATH."""
    out_dir = ROOT / OUT
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    head = {"repro": [sys.executable, "-m", "repro.cli"], "python": [sys.executable]}
    proc = subprocess.run(
        head[row.argv[0]] + list(row.argv[1:]),
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    outputs: Outputs = {
        "exit code": str(proc.returncode),
        "stdout": proc.stdout,
        "stderr": proc.stderr,
    }
    for name in row.files:
        path = ROOT / name
        outputs[name] = path.read_text() if path.exists() else None
    return outputs


def failure(outputs: Outputs) -> Optional[str]:
    """Why a run failed (an exit code other than 0 or 1, the findings
    code), or None."""
    if outputs["exit code"] in ("0", "1"):
        return None
    last = (outputs["stderr"] or "").strip().splitlines()[-1:]
    return f"exit code {outputs['exit code']}" + (f": {last[0]}" if last else "")


# --------------------------------------------------------- comparing


_ELAPSED = re.compile(r"(elapsed\s*:\s*)[0-9.]+")


def _blank(doc: Any) -> Any:
    if isinstance(doc, dict):
        return {
            key: None if "elapsed" in key else _blank(value)
            for key, value in doc.items()
        }
    if isinstance(doc, list):
        return [_blank(value) for value in doc]
    return doc


def _pair(a: Any, b: Any) -> str:
    """``a != b``, both cut to the neighbourhood of their first difference."""
    ra, rb = repr(a), repr(b)
    at = next((i for i, (x, y) in enumerate(zip(ra, rb)) if x != y),
              min(len(ra), len(rb)))
    start = max(0, at - 24)

    def cut(text: str) -> str:
        return ("..." if start else "") + text[start:start + 60] + (
            "..." if len(text) > start + 60 else ""
        )

    return f"{cut(ra)} != {cut(rb)}"


def _first_change(a: Any, b: Any, path: str) -> Optional[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                return f"{path}.{key}: on one side only"
            change = _first_change(a[key], b[key], f"{path}.{key}")
            if change:
                return change
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            change = _first_change(x, y, f"{path}[{i}]")
            if change:
                return change
        if len(a) != len(b):
            return f"{path}: {len(a)} items != {len(b)}"
        return None
    if type(a) is type(b) and a == b:
        return None
    return f"{path}: {_pair(a, b)}"


def _parse(text: str, kind: str) -> Any:
    if kind == "jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def difference(a: Optional[str], b: Optional[str], kind: str) -> Optional[str]:
    """The first difference between two texts of ``kind``, or None."""
    if a is None or b is None:
        return None if a is b else "written on one side only"
    if kind != "text":
        try:
            return _first_change(
                _blank(_parse(a, kind)), _blank(_parse(b, kind)), "$"
            )
        except ValueError:
            pass  # not a document on one side: compare the text
    lines_a = _ELAPSED.sub(r"\1-", a).splitlines(keepends=True)
    lines_b = _ELAPSED.sub(r"\1-", b).splitlines(keepends=True)
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        if x != y:
            return f"line {i + 1}: {_pair(x, y)}"
    if len(lines_a) != len(lines_b):
        n = min(len(lines_a), len(lines_b))
        return f"line {n + 1}: one side ends after {n} lines"
    return None


def compare(row: Artifact, ours: Outputs, theirs: Outputs) -> Optional[str]:
    """Where ``row``'s two runs first differ, or None."""
    for output in ("exit code", "stdout", "stderr") + row.files:
        change = difference(ours[output], theirs[output], row.kind(output))
        if change:
            return f"{output}: {change}"
    return None


def verdict(row: Artifact, *runs: Outputs, change: Optional[str]) -> str:
    failed = [reason for reason in map(failure, runs) if reason]
    label = "failed" if failed else "moved" if change else "identical"
    detail = failed[0] if failed else change
    return f"{label:<10} {row.name}" + (f": {detail}" if detail else "")


# ------------------------------------------------------------- modes


def against_golden(src: pathlib.Path) -> List[str]:
    verdicts = []
    for row in ARTIFACTS:
        if row.golden is None:
            continue
        outputs = run(row, src)
        pinned = row.files[0] if row.files else "stdout"
        change = difference(outputs[pinned], (ROOT / row.golden).read_text(), "text")
        verdicts.append(verdict(
            row, outputs, change=change and f"{pinned} vs {row.golden}: {change}"
        ))
        print(verdicts[-1], flush=True)
    return verdicts


def against_parent(parent_src: pathlib.Path, src: pathlib.Path) -> List[str]:
    verdicts = []
    for row in ARTIFACTS:
        theirs = run(row, parent_src)
        ours = run(row, src)
        verdicts.append(verdict(row, theirs, ours, change=compare(row, theirs, ours)))
        print(verdicts[-1], flush=True)
    return verdicts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent", metavar="REV",
        help="run every row with REV's src and with this tree's, and "
        "compare the two (default: the golden rows against tests/golden/)",
    )
    args = parser.parse_args(argv)
    src = ROOT / "src"
    try:
        if args.parent is None:
            verdicts = against_golden(src)
        else:
            with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
                archive = subprocess.run(
                    ["git", "archive", args.parent, "src"],
                    cwd=ROOT, capture_output=True,
                )
                if archive.returncode:
                    print(f"parity: {archive.stderr.decode().strip()}",
                          file=sys.stderr)
                    return 2
                subprocess.run(
                    ["tar", "-x", "-C", tmp], input=archive.stdout, check=True
                )
                verdicts = against_parent(pathlib.Path(tmp) / "src", src)
    finally:
        shutil.rmtree(ROOT / OUT, ignore_errors=True)
    moved = sum(not line.startswith("identical") for line in verdicts)
    against = f"{args.parent}'s src" if args.parent else "tests/golden/"
    print(f"parity: {len(verdicts)} rows against {against}, {moved} not identical")
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
