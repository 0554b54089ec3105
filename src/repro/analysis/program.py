"""One shared parse of the program for every analysis family.

:class:`ProgramIndex` is the single cache the two families read:
files are discovered once, each parseable file becomes exactly one
:class:`~repro.analysis.cfg.ModuleGraphs` (tree + source + CFGs), the
:class:`~repro.analysis.cfg.CallGraph` over them is built on first use
and kept, and syntax errors are recorded per file so
every tool can report them under its own ``xxx000`` code without
re-hitting the parser.  A family is a function from this index to raw
findings (``findings(index)``); :meth:`repro.analysis.tools.Tool.analyze`
is the one driver that selects, suppresses, de-duplicates and sorts.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Sequence

from repro.analysis.cfg import CallGraph, ModuleGraphs
from repro.analysis.diagnostics import Diagnostic, syntax_diagnostic


#: Directories never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    seen.add(sub)
        elif path.suffix == ".py":
            seen.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such path: {path}")
    return sorted(seen)


class ProgramIndex:
    """Parsed modules + call graph for one program.

    The program is every ``.py`` file under ``paths``.  All parseable
    files contribute to one call graph — that is what makes
    every family's summaries *inter*-procedural: a helper defined in
    one file is charged to its caller in another.
    """

    def __init__(self, paths: Sequence[str | Path]) -> None:
        self.modules: list[ModuleGraphs] = []
        #: ``(path, exception)`` for every unparseable file.
        self.syntax_errors: list[tuple[str, SyntaxError]] = []
        for file_path in iter_python_files(paths):
            path = str(file_path)
            try:
                self.modules.append(ModuleGraphs.from_source(
                    file_path.read_text(encoding="utf-8"), path=path))
            except SyntaxError as exc:
                self.syntax_errors.append((path, exc))

    @cached_property
    def callgraph(self) -> CallGraph:
        """The shared interprocedural call graph (built on first use)."""
        return CallGraph(self.modules)

    @property
    def sources(self) -> dict[str, str]:
        """``path -> source text`` for suppression filtering."""
        return {m.path: m.source for m in self.modules}

    def syntax_diags(self, code: str) -> list[Diagnostic]:
        """Every syntax error as one diagnostic under ``code``."""
        return [
            syntax_diagnostic(path, exc, code)
            for path, exc in self.syntax_errors
        ]
