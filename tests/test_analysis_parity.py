"""Byte-parity pins for every analyzer report.

``PARENT_DIGESTS`` were captured on the commit *before* the five
families were folded behind one rule registry, one driver, one
``TraceView`` and one ``Verdict`` (ISSUE 20), by running exactly the
calls in this file against that tree.  A refactor of
``repro.analysis`` must leave every one of them unchanged; a rule
change moves them deliberately (a failing assertion prints the new
digest — say which report moved, and why, in CHANGES.md).

``MOVED_DIGESTS`` are the four ISSUE 20 itself re-captured, each for a
change it asked for:

* ``trace/specflow`` — its verdict lines took the common ``{kind}
  {rule} {where}: {STATUS} — {detail}`` shape (``SPF110: refuted — …``
  became ``protocol-contract SPF110: REFUTED — …``); the ``trace
  replay: …`` stats line and the static report above it are unchanged.
* ``check/text``, ``check/json``, ``check/sarif`` — ``repro check`` over
  the five fixture trees *together*.  Same-named senders in different
  trees made specflow print 29 exact duplicate SPF111 lines there
  (none over any one tree); the one driver prints each finding once,
  so the report went 196 -> 167 findings.  Checked when re-captured:
  the parent's text, JSON and merged SARIF with each duplicate dropped
  equal the new ones but for the two count lines.
  ``check-one-tree/*`` (the specflow tree alone, duplicate-free on the
  parent) keep a parent-captured pin on all three ``check`` formats.

Everything runs from the repo root so the paths inside the reports are
the relative ones CI prints.  The structural pins at the bottom say
*how* the reports are produced: one grouping pass over the log, one
message matching, one escape scan, one attribution.
"""

import argparse
import hashlib
import pathlib

import pytest

from repro.analysis import program, trace_view
from repro.analysis.perf import attribution
from repro.analysis.program import ProgramIndex
from repro.analysis.taint import verdicts as taint_verdicts
from repro.analysis.tools import TOOLS
from repro.cli import EXIT_FINDINGS, main
from repro.trace.events import EventLog

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_TRACE = "tests/golden/jacobi_p4_fw1.jsonl"
GOLDEN_CHECK = "tests/golden/check_fixtures.txt"
#: ``repro check`` over these, in this order, is the golden text report.
TREES = [
    f"tests/{name}_fixtures"
    for name in ("speclint", "specflow", "specperf", "spectaint", "specbound")
]
TRACED = [tool for tool in TOOLS if tool.judge is not None]

#: Captured on the parent commit; this PR must not move them.
PARENT_DIGESTS = {
    "speclint/text": "36ca5f9cbd1388715346c279010b9a6d7f250dcc20089d1b864c1c2001577717",
    "speclint/json": "4a2dbf9152d3c56ee9a5bb39fe27dd982dfef1387e47ca0237833dd3df4ac27b",
    "specflow/text": "b4cbfac422dc3d3f812b52a0361a08428e208a006a7cc7dddcb72da596db6463",
    "specflow/json": "27317e0364bf424aa8e3bd521185edd12752e30f2a83925845d1ca5a847c7ac7",
    "specflow/sarif": "11286eb2fc52b9d1c80ff9f639097d0f62991969ff749ebf342f9f618b431669",
    "specperf/text": "eb4e6b90c246a0fda2575ce1a7e9b36befafed9c809a203ed3577f892a1ccb6b",
    "specperf/json": "d4e10d88d73d14de65c89db2586c5a0329e879bd5e444d871860f037ddc320ef",
    "specperf/sarif": "1ed9b14316e8abd9c0996b5128822c1e283f38cfcaeb23609b09d15f65b59e5d",
    "spectaint/text": "74278adccf81f597e0e734e6f5b572605a834445217af46cf65aadc000f13662",
    "spectaint/json": "1d3e3aa51d3d1a9cf3169e4eddf1c7f7de64e39cb05b2acd0c6822762182777a",
    "spectaint/sarif": "3b3a4c07524cedb1baab55af77fc514b806178ce9cbb2c45f38e7394939cb362",
    "specbound/text": "8a72d93f4cf6e063ff959fed767d6a4b22cd538a61aee25b0bdafa2b1801b0b8",
    "specbound/json": "825e43b22c7ff7e6a90988792fd28f179c310f9354be44999218a82142718376",
    "specbound/sarif": "0316f08fd553614c102509cad56af38f4f1cbce02ead8d0858ad7bff57633a20",
    "check-one-tree/text": "8bf6f73e79b12027babaec3e2912ee11f1a93dd4c382f59d693c41a62aac32a8",
    "check-one-tree/json": "71fa3d6f8bf5e3f0ce4965ffd8dcebadd9dc3db9b3d8de79f1715ca5e8aab8bb",
    "check-one-tree/sarif": "58d6cd6e389d9ff3e9e37aefb66cfd9e34872b5a9c0d51d2395627bb0db9dda4",
    "trace/specperf": "bc09ca48d3cc0966c7435091a9056f6600a9f222e680ee62436bbdfedc44b891",
    "trace/spectaint": "766ae29d2e1e6c9fa02a457d15a441e184539d1f766185b4f50ff445d47be659",
    "trace/specbound": "e617c3fddf3dfeeb9d53e72476a78261a8472e3b4dc1f13ce0671fec301b12bd",
}

#: Re-captured by ISSUE 20, each for a change the issue asked for (see
#: the module docstring).
MOVED_DIGESTS = {
    "check/text": "9455b63ef8771ac738f3404f44ab7d2a8fb7f06abb519fd2984fb00295abf46f",
    "check/json": "7994d58b7ec56a4da3df8e868c531d91c2fb805ddb074f0cd602a25478823956",
    "check/sarif": "ff824a90257b16e27da09c2d99e789d60d975f17d47ab43e8f711022061d6075",
    "trace/specflow": "671cf3fec1d6b721e592aa797e2a86a98114d642ee4875451f40597506f97624",
}

DIGESTS = {**PARENT_DIGESTS, **MOVED_DIGESTS}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def _from_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


def _stdout(capsys, argv):
    capsys.readouterr()
    assert main(argv) == EXIT_FINDINGS
    return capsys.readouterr().out


# ------------------------------------------------------ tool x format


@pytest.mark.parametrize(
    "tool, fmt",
    [(tool, fmt) for tool in TOOLS for fmt in tool.formats],
    ids=lambda value: getattr(value, "name", value),
)
def test_tool_report_is_byte_identical(tool, fmt):
    index = ProgramIndex([f"tests/{tool.name}_fixtures"])
    report = tool.render(tool.analyze(index), fmt)
    assert _sha(report) == DIGESTS[f"{tool.name}/{fmt}"]


def test_every_tool_and_format_is_pinned_to_the_parent():
    pinned = {key for key in PARENT_DIGESTS if key.startswith("spec")}
    assert pinned == {f"{t.name}/{fmt}" for t in TOOLS for fmt in t.formats}
    assert len(pinned) == 14


# -------------------------------------------------------- repro check


def _check_reports(capsys, tmp_path, trees):
    sarif = tmp_path / "merged.sarif"
    return {
        "text": _stdout(capsys, ["check", *trees]),
        "json": _stdout(capsys, ["check", *trees, "--format", "json"]),
        "sarif": (
            _stdout(capsys, ["check", *trees, "--sarif", str(sarif)])
            and sarif.read_text()
        ),
    }


def test_check_over_one_tree_is_byte_identical_to_the_parent(capsys, tmp_path):
    reports = _check_reports(capsys, tmp_path, ["tests/specflow_fixtures"])
    for fmt, report in reports.items():
        assert _sha(report) == PARENT_DIGESTS[f"check-one-tree/{fmt}"], fmt


def test_check_over_the_five_trees_matches_the_golden_file(capsys, tmp_path):
    reports = _check_reports(capsys, tmp_path, TREES)
    assert reports["text"] == (REPO_ROOT / GOLDEN_CHECK).read_text()
    for fmt, report in reports.items():
        assert _sha(report) == MOVED_DIGESTS[f"check/{fmt}"], fmt
    lines = reports["text"].splitlines()
    assert len(lines) == len(set(lines))  # every finding once


# ------------------------------------------------------------ --trace


#: What the ``trace/*`` digests pin, in words (ISSUE 20's inventory).
GOLDEN_TRACE_VERDICTS = {
    "specflow": {"REFUTED": 5},
    "specperf": {"CONFIRMED": 5, "REFUTED": 3},
    "spectaint": {"REFUTED": 13},
    "specbound": {"CONFIRMED": 14},
}


@pytest.mark.parametrize("tool", TRACED, ids=lambda tool: tool.name)
def test_trace_report_is_byte_identical(tool, capsys):
    out = _stdout(
        capsys,
        [tool.cli, f"tests/{tool.name}_fixtures", "--trace", GOLDEN_TRACE],
    )
    assert _sha(out) == DIGESTS[f"trace/{tool.name}"]
    counts = {
        status: sum(f": {status} — " in line for line in out.splitlines())
        for status in ("CONFIRMED", "REFUTED", "UNOBSERVED")
    }
    assert {
        status: n for status, n in counts.items() if n
    } == GOLDEN_TRACE_VERDICTS[tool.name]


# ---------------------------------------------------- structural pins


def _judge_args(tool):
    """The namespace ``repro <tool.cli> --trace`` hands ``judge``."""
    return argparse.Namespace(
        **{
            flag.lstrip("-").replace("-", "_"): kwargs.get("default")
            for flag, kwargs in tool.flags
        }
    )


def test_judges_never_ask_the_log_to_sort_itself(monkeypatch):
    """All four contracts read the one TraceView: with the log's own
    sorting accessors gone they still answer."""
    log = EventLog.load(GOLDEN_TRACE)
    view = trace_view.TraceView(log)

    def boom(self, *args):
        raise AssertionError("a judge went back to the EventLog")

    monkeypatch.setattr(EventLog, "for_rank", boom)
    monkeypatch.setattr(EventLog, "of_kind", boom)
    for tool in TRACED:
        index = ProgramIndex([f"tests/{tool.name}_fixtures"])
        header, verdicts, failing = tool.judge(
            view, tool.analyze(index), _judge_args(tool)
        )
        assert header and verdicts
        assert failing == (5 if tool.name == "specperf" else 0)


@pytest.mark.parametrize("tool", TRACED, ids=lambda tool: tool.name)
def test_one_matching_pass_and_one_escape_scan_per_trace(
    tool, monkeypatch, capsys
):
    calls = {"match": 0, "escapes": 0}
    match, escapes = trace_view.match_messages, taint_verdicts.find_escapes

    def counting_match(*args):
        calls["match"] += 1
        return match(*args)

    def counting_escapes(*args):
        calls["escapes"] += 1
        return escapes(*args)

    monkeypatch.setattr(trace_view, "match_messages", counting_match)
    monkeypatch.setattr(taint_verdicts, "find_escapes", counting_escapes)
    _stdout(
        capsys,
        [tool.cli, f"tests/{tool.name}_fixtures", "--trace", GOLDEN_TRACE],
    )
    assert calls["match"] <= 1 and calls["escapes"] <= 1
    assert calls["match"] == (tool.name == "specflow")
    assert calls["escapes"] == (tool.name == "spectaint")


def test_check_builds_the_attribution_once(monkeypatch, capsys):
    """Sibling of ``test_check_parses_each_file_exactly_once``: specperf
    and specbound share the index's attribution."""
    built = []
    original = attribution.build_attribution

    def counting(callgraph):
        built.append(callgraph)
        return original(callgraph)

    monkeypatch.setattr(program, "build_attribution", counting)
    _stdout(capsys, ["check", "tests/specperf_fixtures"])
    assert len(built) == 1

