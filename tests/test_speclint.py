"""Tests for the speclint static-analysis pass (rules SPL001, SPL004).

Each rule is exercised twice: against a ``bad_*`` fixture that must
fire at known lines, and against the ``good_*`` fixtures that must stay
silent.  The fixtures live in ``tests/speclint_fixtures/`` and are
deliberately *not* collected by pytest (``python_files = test_*.py``)
nor linted by ruff (excluded in pyproject.toml): they exist only as
lint input.
"""

import json
import pathlib

import pytest

from repro.analysis import ProgramIndex, iter_python_files, parse_suppressions
from repro.analysis.reporting import render_diag_text
from repro.analysis.tools import TOOLS
from repro.cli import main

SPECLINT, SPECFLOW = (
    next(tool for tool in TOOLS if tool.name == name)
    for name in ("speclint", "specflow")
)


def lint_source(tmp_path, source, name="t.py", select=None):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return SPECLINT.analyze(ProgramIndex([path]), select)


def lint_paths(paths, select=None):
    return SPECLINT.analyze(ProgramIndex(paths), select)


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).resolve().parent / "speclint_fixtures"


def lint_fixture(name):
    return lint_paths([FIXTURES / name])


def codes(diagnostics):
    return sorted({d.code for d in diagnostics})


# ------------------------------------------------------------ per-rule firing
def test_spl001_unawaited_simulation_calls():
    diags = lint_fixture("bad_spl001_unawaited.py")
    assert codes(diags) == ["SPL001"]
    assert sorted(d.line for d in diags) == [10, 11, 12]


def test_spl001_silent_on_driven_generators(tmp_path):
    src = (
        "def body(env, proc):\n"
        "    msg = yield from proc.recv(match=None)\n"
        "    yield env.timeout(2.0)\n"
        "    return msg\n"
    )
    assert lint_source(tmp_path, src) == []


def test_spl004_tag_discipline():
    diags = lint_fixture("bad_spl004_tags.py")
    assert codes(diags) == ["SPL004"]
    assert sorted(d.line for d in diags) == [8, 9, 10]


def test_good_fixture_is_clean():
    assert lint_fixture("good_protocol.py") == []


# ------------------------------------------------------------- suppressions
def test_line_and_file_suppressions():
    assert lint_fixture("good_suppressed.py") == []


def test_collect_suppressions_parses_both_directives():
    src = (
        "# speclint: disable-file=SPL003\n"
        "x = 1  # speclint: disable=SPL001,SPL004\n"
        "y = 2  # speclint: disable=all\n"
    )
    per_line, file_wide = parse_suppressions(src)
    assert file_wide == {"SPL003"}
    assert per_line[2] == {"SPL001", "SPL004"}
    # Codes are normalised to upper-case, including the wildcard.
    assert per_line[3] == {"ALL"}


def test_disable_all_wildcard_suppresses_everything(tmp_path):
    src = "def f(env):\n    env.timeout(1.0)  # speclint: disable=all\n"
    assert lint_source(tmp_path, src) == []


def test_multi_tool_directive_suppresses_every_named_id():
    # One line may carry both families' directives, and every
    # spelling accepts every family's codes — a single unified parse
    # (shared by both tools) must honour the union of them.
    src = (
        "x = 1  # speclint: disable=SPL001  # specflow: disable=SPF111\n"
        "y = 2  # specflow: disable=SPF201, SPP203, SPL004\n"
    )
    per_line, file_wide = parse_suppressions(src)
    assert per_line[1] == {"SPL001", "SPF111"}
    assert per_line[2] == {"SPF201", "SPP203", "SPL004"}
    assert file_wide == set()


def test_multi_tool_suppression_silences_findings_in_each_family(tmp_path):
    src = (
        'VARS = "vars"\n'
        "def early(proc, state):\n"
        '    yield from proc.send(1, state, tag="vars")'
        "  # specflow: disable=SPL004, SPF111\n"
        "def late(proc, update, t):\n"
        "    yield from proc.send(1, update, tag=(VARS, t))\n"
        "def drain(proc):\n"
        "    return (yield from proc.recv())\n"
    )
    assert lint_source(tmp_path, src) == []
    assert SPECFLOW.analyze(ProgramIndex([tmp_path / "t.py"])) == []
    # Without the directive both families fire on that line.
    bare = src.replace("  # specflow: disable=SPL004, SPF111", "")
    assert [(d.code, d.line) for d in lint_source(tmp_path, bare)] == [
        ("SPL004", 3)
    ]
    flow = SPECFLOW.analyze(ProgramIndex([tmp_path / "t.py"]))
    assert [(d.code, d.line) for d in flow] == [
        ("SPF111", 3)
    ]


# ---------------------------------------------------------------- reporters
def test_text_reporter_clean_and_dirty():
    assert render_diag_text([]) == "speclint: clean"
    diags = lint_fixture("bad_spl001_unawaited.py")
    text = render_diag_text(diags)
    assert "SPL001" in text and "error(s)" in text


def test_json_reporter_shape():
    diags = lint_fixture("bad_spl004_tags.py")
    doc = json.loads(SPECLINT.render(diags, "json"))
    assert doc["tool"] == "speclint"
    assert set(doc["summary"]) == {"total", "errors", "warnings"}
    assert doc["summary"]["total"] == len(diags)
    assert doc["summary"]["errors"] + doc["summary"]["warnings"] == len(diags)
    for code in SPECLINT.rules:
        assert code in doc["rules"]
    for record in doc["diagnostics"]:
        assert set(record) == {"path", "line", "col", "code", "severity", "message"}


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        SPECLINT.render([], "xml")


# -------------------------------------------------------------------- files
def test_iter_python_files_skips_caches(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "mod.cpython-311.py").write_text("x = 1\n")
    files = iter_python_files([tmp_path])
    assert [f.name for f in files] == ["mod.py"]


def test_lint_paths_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        lint_paths([str(FIXTURES / "does_not_exist.py")])


# ------------------------------------------------------------------ the CLI
def test_cli_lint_json_format(capsys):
    assert main(["lint", str(FIXTURES / "bad_spl004_tags.py"), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["errors"] == 3


def test_cli_lint_missing_path_is_usage_error(capsys):
    assert main(["lint", str(FIXTURES / "nope.py")]) == 2


def test_cli_lint_select(capsys):
    rc = main(["lint", str(FIXTURES / "bad_spl001_unawaited.py"), "--select", "SPL004"])
    assert rc == 0


# ------------------------------------------------- the tree itself is clean
def test_repo_tree_is_speclint_clean():
    """examples/ and benchmarks/ must lint clean — the rest of the gate
    CI applies (``src`` is ``test_analysis_tools::test_src_is_clean``).
    Fixture files are deliberately not part of this set."""
    diags = lint_paths([REPO_ROOT / "examples", REPO_ROOT / "benchmarks"])
    assert diags == [], render_diag_text(diags)
