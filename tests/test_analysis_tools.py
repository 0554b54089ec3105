"""The one driver, tested once for every family.

``Tool.analyze`` (select, suppress, de-duplicate, sort, syntax errors)
and the one CLI handler behind ``repro lint | analyze`` are the same
code for both families, so what they promise is asserted here once,
parametrized over ``TOOLS``; so is ``repro check``, the umbrella over
both on one shared parse.  What is particular to a family — which
fixture fires which rule, the replay, the occupancy contracts — stays
in its own ``tests/test_spec*.py``.
"""

import json
import pathlib
import re
import shutil

import pytest

from repro.analysis import RULES, ProgramIndex, cfg
from repro.analysis.cfg import ModuleGraphs
from repro.analysis.linter import _FILE_DIRECTIVE, _LINE_DIRECTIVE, parse_suppressions
from repro.analysis.tools import TOOLS, UnknownRuleCode
from repro.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DOCS = TESTS.parent / "docs" / "static_analysis.md"

#: tool -> (a fixture that fires ``code``, a clean fixture, ``code``).
CASES = {
    "speclint": ("bad_spl001_unawaited.py", "good_protocol.py", "SPL001"),
    "specflow": ("bad_spf111_race.py", "good_protocol.py", "SPF111"),
}

every_tool = pytest.mark.parametrize("tool", TOOLS, ids=lambda tool: tool.name)


def _case(tool):
    bad, good, code = CASES[tool.name]
    fixtures = TESTS / f"{tool.name}_fixtures"
    return fixtures / bad, fixtures / good, code


def _codes(diagnostics):
    return sorted({d.code for d in diagnostics})


@pytest.fixture(scope="module")
def src_index():
    """``src/`` parsed once for the two ``src is clean`` cases."""
    return ProgramIndex([SRC])


# ----------------------------------------------------------- the registry


@every_tool
def test_catalogue_is_the_codes_with_the_tools_prefix(tool):
    assert tool.rules
    assert list(tool.rules) == sorted(
        code for code in RULES if code.startswith(tool.prefix)
    )
    for code, info in tool.rules.items():
        assert info.code == code and info.name and info.summary
    assert tool.syntax_code == f"{tool.prefix}000"
    assert tool.syntax_code not in RULES


def test_every_rule_belongs_to_exactly_one_tool():
    owners = {code: [t.name for t in TOOLS if code in t.rules] for code in RULES}
    assert all(len(names) == 1 for names in owners.values()), owners
    assert len(RULES) == 3


def test_documented_rules_are_the_registry():
    """The ``### SPL001 — title (error)`` headings and the
    ``| `SPL004` | error |`` catalogue rows of the docs name exactly
    the registered rules, each with its severity (the ``xxx000`` parse
    codes are not rules; the audit table's second column is not a
    severity, so its rows do not match)."""
    text = DOCS.read_text()
    documented = re.findall(
        r"^### (SP[A-Z]\d{3}) — .*\((error|warning)\)$", text, re.M
    ) + re.findall(r"^\| `(SP[A-Z]\d{3})` \| (error|warning) \|", text, re.M)
    documented = [(code, sev) for code, sev in documented if code[3:] != "000"]
    assert sorted(documented) == sorted(
        (code, info.severity.value) for code, info in RULES.items()
    )


# ------------------------------------------------------------- the driver


@every_tool
def test_select_restricts_and_is_case_insensitive(tool):
    bad, _good, code = _case(tool)
    tree = ProgramIndex([bad.parent])
    everything = tool.analyze(tree)
    assert code in _codes(everything)
    assert tool.analyze(tree, select=[code.lower()]) == [
        d for d in everything if d.code == code
    ]
    assert tool.analyze(ProgramIndex([bad]), select=[tool.syntax_code]) == []


@every_tool
def test_select_rejects_unknown_and_foreign_codes(tool):
    bad, _good, _code = _case(tool)
    foreign = next(t for t in TOOLS if t is not tool).rules
    for wrong in ("NOPE", min(foreign)):
        with pytest.raises(UnknownRuleCode, match=f"{wrong}.*{min(tool.rules)}"):
            tool.analyze(ProgramIndex([bad]), select=[wrong])


@every_tool
@pytest.mark.parametrize("spelling", [t.name for t in TOOLS])
def test_any_familys_directive_silences_a_finding(tool, spelling, tmp_path):
    bad, _good, code = _case(tool)
    found = [d for d in tool.analyze(ProgramIndex([bad])) if d.code == code]
    assert found
    lines = bad.read_text().splitlines()
    for line in {d.line for d in found}:
        lines[line - 1] += f"  # {spelling}: disable={code}"
    quiet = tmp_path / bad.name
    quiet.write_text("\n".join(lines) + "\n")
    silenced = tool.analyze(ProgramIndex([quiet]))
    assert code not in _codes(silenced)


def test_directive_spellings_are_the_tool_names(tmp_path):
    """One suppression spelling per family: the directive regexes accept
    exactly the tool names, and a deleted family's spelling is gone."""
    names = {tool.name for tool in TOOLS}
    for regex in (_LINE_DIRECTIVE, _FILE_DIRECTIVE):
        (alternation,) = re.findall(r"spec\(\?:([a-z|]+)\)", regex.pattern)
        assert {f"spec{part}" for part in alternation.split("|")} == names
    for gone in ("specperf", "spectaint", "specbound"):
        per_line, file_wide = parse_suppressions(
            f"x = 1  # {gone}: disable=SPF111\n# {gone}: disable-file=SPL001\n"
        )
        assert per_line == {} and file_wide == set()
    specflow = next(tool for tool in TOOLS if tool.name == "specflow")
    race = TESTS / "specflow_fixtures" / "bad_spf111_race.py"
    respelled = tmp_path / race.name
    respelled.write_text(race.read_text().replace(
        "# SPF111: races", "# specbound: disable=SPF111 races"
    ))
    assert _codes(specflow.analyze(ProgramIndex([respelled]))) == ["SPF111"]


@every_tool
def test_syntax_error_yields_the_tools_000_code(tool, tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    diags = tool.analyze(ProgramIndex([broken]))
    assert [(d.path, d.code) for d in diags] == [(str(broken), tool.syntax_code)]
    # ... whatever is selected: an unparseable file is never silent.
    selected = tool.analyze(ProgramIndex([broken]), select=[min(tool.rules)])
    assert _codes(selected) == [tool.syntax_code]


@every_tool
def test_src_is_clean(tool, src_index):
    assert tool.analyze(src_index) == []


@every_tool
def test_each_finding_is_reported_once_and_in_order(tool):
    diags = tool.analyze(ProgramIndex([TESTS / f"{tool.name}_fixtures"]))
    assert diags == sorted(set(diags))


def test_same_named_senders_in_two_files_report_each_race_once(tmp_path):
    """Two copies of one racy module analysed as one program: SPF111's
    messages name functions, not files, so the cross-file pairs used to
    come out as exact duplicates (6 findings, one of them twice)."""
    specflow = next(tool for tool in TOOLS if tool.name == "specflow")
    race = TESTS / "specflow_fixtures" / "bad_spf111_race.py"
    for name in ("a.py", "b.py"):
        shutil.copy(race, tmp_path / name)
    diags = specflow.analyze(ProgramIndex([tmp_path]))
    assert _codes(diags) == ["SPF111"]
    assert len(diags) == len(set(diags)) == 5


@every_tool
def test_two_runs_render_identical_bytes(tool):
    fixtures = TESTS / f"{tool.name}_fixtures"
    for fmt in tool.formats:
        first = tool.render(tool.analyze(ProgramIndex([fixtures])), fmt)
        assert first == tool.render(tool.analyze(ProgramIndex([fixtures])), fmt)


# ---------------------------------------------------------------- the CLI


@every_tool
def test_cli_exit_codes(tool, capsys):
    bad, good, code = _case(tool)
    assert main([tool.cli, str(bad)]) == EXIT_FINDINGS
    assert code in capsys.readouterr().out
    assert main([tool.cli, str(good)]) == EXIT_CLEAN
    assert capsys.readouterr().out == f"{tool.name}: clean\n"
    assert main([tool.cli, str(bad), "--select", code.lower()]) == EXIT_FINDINGS
    capsys.readouterr()


@every_tool
def test_cli_usage_errors_name_the_tool_that_ran(tool, capsys):
    bad, _good, _code = _case(tool)
    assert main([tool.cli, "no/such/path"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{tool.name}: no such path: no/such/path\n"
    # A typo in --select must not turn the gate green.
    assert main([tool.cli, str(bad), "--select", "NOPE"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{tool.name}: unknown rule code(s) NOPE; ")
    assert all(code in captured.err for code in tool.rules)


def test_check_usage_error_names_check(capsys):
    assert main(["check", "no/such/path"]) == EXIT_USAGE
    assert capsys.readouterr().err == "repro check: no such path: no/such/path\n"


def test_fingerprint_baseline_flags_are_unknown_arguments(capsys):
    """An in-source directive is the one way to accept a finding, so
    the baseline flags are argparse usage errors."""
    argvs = [[tool.cli, "--baseline", "b.json"] for tool in TOOLS]
    argvs += [["analyze", "--write-baseline", "b.json"], ["check", "--baselines", "b.json"]]
    for argv in argvs:
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@every_tool
def test_cli_json_and_sarif_documents_name_the_tool(tool, capsys):
    bad, _good, code = _case(tool)
    for fmt in tool.formats:
        if fmt == "text":
            continue
        assert main([tool.cli, str(bad), "--format", fmt]) == EXIT_FINDINGS
        doc = json.loads(capsys.readouterr().out)
        if fmt == "json":
            assert doc["tool"] == tool.name
            ids = list(doc["rules"])
            assert doc["summary"]["total"] == len(doc["diagnostics"]) > 0
            assert code in {d["code"] for d in doc["diagnostics"]}
        else:
            run = doc["runs"][0]
            assert run["tool"]["driver"]["name"] == tool.name
            ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
            assert code in {r["ruleId"] for r in run["results"]}
            for result in run["results"]:
                assert "speclint/v1" in result["partialFingerprints"]
        # A report lists its own family's catalogue and no other's.
        assert ids == list(tool.rules)



# -------------------------------------------------------------- repro check


CHECKED = TESTS / "specflow_fixtures"
#: A file both families find clean.
CLEAN = TESTS / "speclint_fixtures" / "good_protocol.py"


def test_cli_check_exit_codes_match_individual_tools(capsys):
    dirty = str(CHECKED)
    clean = str(CLEAN)
    assert main(["check", dirty]) == main(["analyze", dirty]) == EXIT_FINDINGS
    assert main(["check", clean]) == main(["analyze", clean]) == EXIT_CLEAN
    assert main(["check", "no/such/path.py"]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_check_text_summary(capsys):
    assert main(["check", str(CLEAN)]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "repro check:" in out
    assert "1 file(s) parsed once" in out


def test_cli_check_merged_sarif_has_one_run_per_tool(tmp_path, capsys):
    sarif = tmp_path / "merged.sarif"
    assert main(["check", str(CHECKED), "--sarif", str(sarif)]) == EXIT_FINDINGS
    capsys.readouterr()
    doc = json.loads(sarif.read_text())
    names = [r["tool"]["driver"]["name"] for r in doc["runs"]]
    assert names == ["specflow", "speclint"]
    spf_run = doc["runs"][names.index("specflow")]
    assert {r["ruleId"] for r in spf_run["results"]} == {"SPF111"}


def test_check_parses_each_file_exactly_once(monkeypatch, capsys):
    parsed = []
    original = ModuleGraphs.from_source.__func__

    def counting(cls, source, path="<string>"):
        parsed.append(path)
        return original(cls, source, path=path)

    monkeypatch.setattr(cfg.ModuleGraphs, "from_source", classmethod(counting))
    assert main(["check", str(CHECKED)]) == EXIT_FINDINGS
    capsys.readouterr()
    files = sorted(str(p) for p in CHECKED.glob("*.py"))
    assert sorted(parsed) == files  # each file parsed exactly once
    assert len(parsed) == len(set(parsed))


def test_program_index_shares_one_callgraph():
    index = ProgramIndex([CHECKED])
    assert index.callgraph is index.callgraph
    assert {pathlib.Path(m.path).name for m in index.modules} == {
        p.name for p in CHECKED.glob("*.py")
    }


# ----------------------------------------------------------- suppressions


def test_suppression_parser_accepts_both_spellings():
    source = (
        "a = 1  # speclint: disable=SPL101\n"
        "b = 2  # specflow: disable=SPF201\n"
        "# specflow: disable-file=SPL004\n"
    )
    per_line, file_wide = parse_suppressions(source)
    assert per_line == {1: {"SPL101"}, 2: {"SPF201"}}
    assert file_wide == {"SPL004"}


def test_one_directive_suppresses_codes_across_families(tmp_path):
    # One spelling may carry any family's ids: a single directive on the
    # offending line silences both the speclint and the specflow finding.
    source = (
        'VARS = "vars"\n'
        "def early(proc, state):\n"
        '    yield from proc.send(1, state, tag="vars")'
        "  # speclint: disable=SPL004, SPF111\n"
        "def late(proc, update, t):\n"
        "    yield from proc.send(1, update, tag=(VARS, t))\n"
        "def drain(proc):\n"
        "    return (yield from proc.recv())\n"
    )
    per_line, _ = parse_suppressions(source)
    assert per_line == {3: {"SPL004", "SPF111"}}
    path = tmp_path / "t.py"
    path.write_text(source)
    for tool in TOOLS:
        assert tool.analyze(ProgramIndex([path])) == []
