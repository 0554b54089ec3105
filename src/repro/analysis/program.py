"""One shared parse of the program for every analysis family.

``repro analyze`` and ``repro perf-lint`` each used to re-discover the
files, re-parse every module and rebuild the interprocedural call
graph from scratch; with four analysis families the umbrella ``repro
check`` would have parsed the tree four times.  :class:`ProgramIndex`
is the single cache they now share: files are discovered once, each
parseable file becomes exactly one
:class:`~repro.analysis.cfg.ModuleGraphs` (tree + source + CFGs), the
:class:`~repro.analysis.cfg.CallGraph` is built lazily once, and
syntax errors are recorded per file so every tool can report them
under its own ``xxx000`` code without re-hitting the parser.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

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
            raise FileNotFoundError(f"speclint: no such path: {path}")
    return sorted(seen)


class ProgramIndex:
    """Parsed modules + call graph for one set of paths, built once."""

    def __init__(self, paths: Sequence[str | Path]) -> None:
        self.modules: list[ModuleGraphs] = []
        #: ``(path, exception)`` for every unparseable file.
        self.syntax_errors: list[tuple[str, SyntaxError]] = []
        self._callgraph: Optional[CallGraph] = None
        for file_path in iter_python_files(paths):
            source = file_path.read_text(encoding="utf-8")
            try:
                self.modules.append(
                    ModuleGraphs.from_source(source, path=str(file_path))
                )
            except SyntaxError as exc:
                self.syntax_errors.append((str(file_path), exc))

    @property
    def callgraph(self) -> CallGraph:
        """The shared interprocedural call graph (built on first use)."""
        if self._callgraph is None:
            self._callgraph = CallGraph(self.modules)
        return self._callgraph

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


#: A family's rule runner: ``(modules, select=, callgraph=) -> findings``.
AnalyzeModules = Callable[..., list[Diagnostic]]


def analyze_index(
    analyze_modules: AnalyzeModules,
    syntax_code: str,
    index: ProgramIndex,
    select: Optional[Iterable[str]] = None,
) -> list[Diagnostic]:
    """One family's findings over a shared parse, syntax errors included."""
    return sorted(
        index.syntax_diags(syntax_code)
        + analyze_modules(index.modules, select=select, callgraph=index.callgraph)
    )


def analyze_paths(
    analyze_modules: AnalyzeModules,
    syntax_code: str,
    paths: Sequence[str | Path],
    select: Optional[Iterable[str]] = None,
) -> list[Diagnostic]:
    """Analyse every ``.py`` file under ``paths`` as one program.

    All parseable files contribute to one shared call graph (that is
    what makes every family's summaries *inter*-procedural: a helper
    defined in one file is charged to its caller in another);
    unparseable files each yield a ``syntax_code`` diagnostic instead
    of aborting the run.  Each family binds its own runner and code
    with :func:`functools.partial`.
    """
    return analyze_index(analyze_modules, syntax_code, ProgramIndex(paths), select)


def analyze_source(
    analyze_modules: AnalyzeModules,
    syntax_code: str,
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> list[Diagnostic]:
    """Analyse one source text (testing convenience)."""
    try:
        module = ModuleGraphs.from_source(source, path=path)
    except SyntaxError as exc:
        return [syntax_diagnostic(path, exc, syntax_code)]
    return analyze_modules([module], select=select)


def rule_catalogue(rules: Mapping[str, Any]) -> dict[str, str]:
    """``code -> summary`` for one family's rule registry (docs/CLI)."""
    return {code: rules[code].summary for code in sorted(rules)}
