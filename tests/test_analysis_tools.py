"""The one driver, tested once for every family.

``Tool.analyze`` (select, suppress, de-duplicate, sort, syntax errors)
and the one CLI handler behind ``repro lint | analyze | taint |
bounds`` are the same code for all four families, so what they
promise is asserted here once, parametrized over ``TOOLS``.  What is
particular to a family — which fixture fires which rule, attribution,
the taint lattice, the bound table, the contracts' semantics — stays in
its own ``tests/test_spec*.py``.
"""

import json
import pathlib
import re
import shutil

import pytest

from repro.analysis import RULES, ProgramIndex
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
    "spectaint": ("bad_spt302_send.py", "good_confirmed.py", "SPT302"),
    "specbound": ("bad_unclamped_widen.py", "good_ring_window.py", "SPB405"),
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
    """``src/`` parsed once for the four ``src is clean`` cases."""
    return ProgramIndex([SRC])


# ----------------------------------------------------------- the registry


@every_tool
def test_catalogue_is_the_codes_with_the_tools_prefix(tool):
    assert tool.rules
    assert list(tool.rules) == sorted(
        code for code in RULES if code.startswith(tool.prefixes)
    )
    for code, info in tool.rules.items():
        assert info.code == code and info.name and info.summary
    assert tool.syntax_code == f"{tool.prefixes[0]}000"
    assert tool.syntax_code not in RULES


def test_every_rule_belongs_to_exactly_one_tool():
    owners = {code: [t.name for t in TOOLS if code in t.rules] for code in RULES}
    assert all(len(names) == 1 for names in owners.values()), owners
    assert len(RULES) == 8


def test_documented_rules_are_the_registry():
    """The ``### SPL001 — title (error)`` headings and the
    ``| `SPB405` | warning |`` catalogue rows of the docs name exactly
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
    exactly the tool names, and a folded family's spelling is gone."""
    names = {tool.name for tool in TOOLS}
    for regex in (_LINE_DIRECTIVE, _FILE_DIRECTIVE):
        (alternation,) = re.findall(r"spec\(\?:([a-z|]+)\)", regex.pattern)
        assert {f"spec{part}" for part in alternation.split("|")} == names
    per_line, file_wide = parse_suppressions(
        "x = 1  # specperf: disable=SPP204\n# specperf: disable-file=SPP207\n"
    )
    assert per_line == {} and file_wide == set()
    specbound = next(tool for tool in TOOLS if tool.name == "specbound")
    ring_scan = TESTS / "specbound_fixtures" / "bad_spp204_ringscan.py"
    respelled = tmp_path / ring_scan.name
    respelled.write_text(ring_scan.read_text().replace(
        "# SPP204", "# specperf: disable=SPP204"
    ))
    assert _codes(specbound.analyze(ProgramIndex([respelled]))) == ["SPP204"]


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


@pytest.mark.parametrize(
    "tool_name, code, fixture, line",
    [
        ("spectaint", "SPT302", "specflow_fixtures/bad_spf101_unverified.py", 14),
        ("spectaint", "SPT302", "specflow_fixtures/bad_spf101_unverified.py", 23),
        ("spectaint", "SPT302", "specflow_fixtures/bad_spf101_unverified.py", 31),
        ("spectaint", "SPT302", "spectaint_fixtures/bad_spt302_send.py", 10),
        ("spectaint", "SPT302", "spectaint_fixtures/bad_spt302_send.py", 11),
        ("specbound", "SPB406", "specbound_fixtures/bad_spp206_buffer.py", 15),
    ],
)
def test_surviving_rule_fires_where_the_deleted_duplicate_did(
    tool_name, code, fixture, line
):
    """The five SPF101 sites are SPT302 sites (direct, via summary,
    else-path) and the one SPP206 site is an SPB406 site: what ISSUE 22
    deleted the duplicates on."""
    tool = next(tool for tool in TOOLS if tool.name == tool_name)
    diags = tool.analyze(ProgramIndex([TESTS / fixture]))
    assert (code, line) in {(d.code, d.line) for d in diags}


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

