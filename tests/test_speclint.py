"""Tests for the speclint static-analysis pass (rules SPL001, SPL003..SPL008).

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

from repro.analysis import ProgramIndex, Severity, iter_python_files, parse_suppressions
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
        "    yield from proc.compute(1.0)\n"
        "    msg = yield from proc.recv(match=None)\n"
        "    yield env.timeout(2.0)\n"
        "    return msg\n"
    )
    assert lint_source(tmp_path, src) == []


def test_spl003_nondeterminism_sources():
    diags = lint_fixture("bad_spl003_nondet.py")
    assert codes(diags) == ["SPL003"]
    assert sorted(d.line for d in diags) == [11, 12, 13, 14]
    # The injected-Generator function must not be flagged.
    assert all(d.line < 18 for d in diags)


def test_spl003_allows_default_rng(tmp_path):
    src = (
        "import numpy as np\n"
        "def make(seed):\n"
        "    return np.random.default_rng(seed)\n"
    )
    assert lint_source(tmp_path, src) == []


def test_spl004_tag_discipline():
    diags = lint_fixture("bad_spl004_tags.py")
    assert codes(diags) == ["SPL004"]
    assert sorted(d.line for d in diags) == [8, 9, 10]


def test_spl005_payload_aliasing_is_warning():
    diags = lint_fixture("bad_spl005_aliasing.py")
    assert codes(diags) == ["SPL005"]
    assert all(d.severity is Severity.WARNING for d in diags)


def test_spl005_silent_when_copy_is_sent(tmp_path):
    src = (
        "VARS = 'vars'\n"
        "def body(proc, block, t):\n"
        "    proc.send(1, block.copy(), tag=(VARS, t))\n"
        "    yield from proc.compute(1.0)\n"
        "    block += 1.0\n"
    )
    assert lint_source(tmp_path, src) == []


def test_spl006_broad_and_bare_excepts():
    diags = lint_fixture("bad_spl006_broad_except.py")
    assert codes(diags) == ["SPL006"]
    assert sorted(d.line for d in diags) == [8, 12, 21]


def test_spl006_allows_reraise_and_traceback_preservation(tmp_path):
    src = (
        "import traceback\n"
        "def a(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception:\n"
        "        raise\n"
        "def b(fn, log):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception:\n"
        "        log(traceback.format_exc())\n"
        "        return None\n"
    )
    assert lint_source(tmp_path, src) == []


def test_spl007_impure_engine_fixture():
    diags = lint_fixture("bad_spl007_impure_engine.py")
    assert codes(diags) == ["SPL007"]
    assert sorted(d.line for d in diags) == [9, 10, 11, 12, 13, 25, 26]


def test_spl007_applies_to_engine_core_by_path(tmp_path):
    src = "import time\n"
    diags = lint_source(tmp_path, src, name="src/repro/engine/core.py", select=["SPL007"])
    assert codes(diags) == ["SPL007"]
    # Same source outside the engine core (and unmarked) is fine.
    assert lint_source(tmp_path, src, name="src/repro/harness.py", select=["SPL007"]) == []


def test_spl007_allows_type_checking_imports(tmp_path):
    src = (
        "# speclint: sans-io\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import os\n"
    )
    assert lint_source(tmp_path, src, select=["SPL007"]) == []


def test_spl008_partial_dispatch_fixture():
    diags = lint_fixture("bad_spl008_partial_dispatch.py")
    assert codes(diags) == ["SPL008"]
    # Each incomplete chain fires twice: missing I/O branches and the
    # missing notification default.
    assert sorted({d.line for d in diags}) == [21, 37]
    assert len(diags) == 4


def test_spl008_silent_on_observers_and_inspectors(tmp_path):
    # A notification-only observer (no Send branch) may be partial.
    src = (
        "def observe(effect, log):\n"
        "    kind = type(effect)\n"
        "    if kind is Speculated:\n"
        "        log('s')\n"
        "    elif kind is Verified:\n"
        "        log('v')\n"
    )
    assert lint_source(tmp_path, src, select=["SPL008"]) == []


def test_spl008_real_transports_are_exhaustive():
    diags = lint_paths([REPO_ROOT / "src" / "repro" / "engine"],
                       select=["SPL007", "SPL008"])
    assert diags == [], render_diag_text(diags)


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
    # One line may carry several families' directives, and every
    # spelling accepts every family's codes — a single unified parse
    # (shared by all four tools) must honour the union of them.
    src = (
        "x = 1  # speclint: disable=SPL001  # spectaint: disable=SPT301\n"
        "y = 2  # specflow: disable=SPF201, SPP203, SPL004\n"
    )
    per_line, file_wide = parse_suppressions(src)
    assert per_line[1] == {"SPL001", "SPT301"}
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
    diags = lint_fixture("bad_spl006_broad_except.py")
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
    assert main(["lint", str(FIXTURES / "bad_spl003_nondet.py"), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["errors"] == 4


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
