"""Byte-parity pins for every analyzer report.

``DIGESTS`` were first captured on the commit *before* the five
families were folded behind one rule registry, one driver, one
``TraceView`` and one ``Verdict`` (ISSUE 20), by running exactly the
calls in this file against that tree.  A refactor of
``repro.analysis`` must leave every one of them unchanged; a rule
change moves them deliberately (a failing assertion prints the new
digest — say which report moved, and why, in CHANGES.md).  Each cut of
the rule audit below re-captured the reports that listed a deleted
rule, and nothing else.

The first cut deleted four rules (SPF101, SPF102, SPF103, SPP206)
and the two fixtures only they fired on (``bad_spf102_unbounded.py``,
``bad_spf103_descending.py``).  Every report that listed one of the
four — as a finding, a catalogue entry (speclint's JSON and
specflow's JSON / SARIF advertise a union of families) or a
``--trace`` verdict — moved, and nothing else did.
Checked when re-captured, report by report: the parent's code run
over the tree without the two fixtures, with the findings, catalogue
entries and verdicts of the four codes dropped, equals the new report
but for the count lines; and removing the two fixtures from the
parent's tree removes only findings located in them or pairing with a
site in them (one SPL001, and over the specflow tree alone five
SPF111 pairs with ``bad_spf102_unbounded.py:16``).  The ``check/*``
and ``trace/specflow`` pins had already moved once, in ISSUE 20
(verdict lines in the common ``{kind} {rule} {where}: {STATUS} —
{detail}`` shape; 29 exact duplicate SPF111 lines printed once).

The second cut deleted SPB401, SPB403 and SPB404 with the four
fixtures only they fired on (``bad_append_loop.py``,
``bad_interproc_chain.py``, ``bad_bare_deque.py``,
``bad_ungated_inbox.py``) and moved ``specbound/*``, ``check/*``,
``check-one-tree/sarif`` (its merged catalogue lists specbound's rules)
and ``trace/specbound`` (which prints the fixture findings above the
verdicts).  Checked the same way: the parent's code over the tree
without the four fixtures printed the same text byte for byte, and its
JSON / SARIF, parsed, with the three codes' catalogue entries dropped,
equal the new documents.

The third cut deleted SPT303, SPT304, SPT305, SPT306 and SPL002 with
the five fixtures only they fired on (``bad_spt303_store.py``,
``bad_spt304_commit.py``, ``bad_spt305_order.py``,
``bad_spt306_raise.py``, ``bad_spl002_blocking_spec.py``) and moved
``speclint/text`` / ``json``, ``spectaint/*``, ``specflow/json`` /
``sarif`` (their catalogues), ``check/*``, ``check-one-tree/sarif``
and ``trace/spectaint`` (five fewer findings and REFUTED verdicts).
Checked the same way, over every tool and ``check`` in every format,
with and without ``--trace``, over ``src`` and the five trees: the
parent's code over the tree without the five fixtures printed the same
text byte for byte, and its JSON / SARIF, parsed, with the five codes'
catalogue entries dropped, equal the new documents.

When recorded traces started carrying their run's parameters in a
header line, ``--trace`` lost the flags that restated them and only
``trace/specbound`` moved: its header line names the header's
``(p, max_fw, iterations)``, the four ``history-ring`` rows went (a
ring cannot outgrow its capacity; the sanitizer checks the real
occupancy), and the ``inbox`` / ``in-flight`` rows print the engine's
run-ahead bound, ``2 * max(fw, 1)`` and ``(p - 1) * 2 * max(fw, 1)``,
whose values at fw = 1 are the 2 and 6 they always were.  Checked
when re-captured: the golden trace's events are byte-identical to the
previous file's, and the other three ``--trace`` reports, run by the
parent's code on the previous file with ``--bw 4 --model-p 4``, equal
the new ones byte for byte.

Everything runs from the repo root so the paths inside the reports are
the relative ones CI prints.  The structural pins at the bottom say
*how* the reports are produced: one grouping pass over the log, one
message matching, one escape scan, one attribution.
"""

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

#: ``family/format``, ``check*/format`` and ``trace/family`` -> sha256.
DIGESTS = {
    "speclint/text": "425c95ff511464bd377633730dac6c51f432c5d48548668cbedfa1629735a7df",
    "speclint/json": "52a6f1ba233b2b74816e2a808cc2fa7967a059df2a3ee5f299e19ef1026a49e9",
    "specflow/text": "71edb7f99ba3279639401662479a94a6c268028a5d5b67bdb51d48cabc60991a",
    "specflow/json": "e69c83e98b9af812f8ac8f58ca8e012ef7c67b83be07e4be21e0a010807f3496",
    "specflow/sarif": "a761bbe527a2e8e45021c269f7250e3c391f0210da232553415670ce2ff7487f",
    "specperf/text": "57ae5a4eb2286cdb21533d55b65581135c82bbc748ca7cdc711a5c7584cf40e5",
    "specperf/json": "3ac96b1a95ffcd91a01ee722f638620c5c27e19dc66866b80deb9d07de7ffa49",
    "specperf/sarif": "a8c43fed38b2d1736b31e8d6416e7d2c9bde0fcb53baa260765b016ea07971e6",
    "spectaint/text": "30b96ad2f1d645b82fa26c2693a9196fbd5844b344261a231b8634acc5719e6c",
    "spectaint/json": "8cd8e5d89a2ebbd7cea0b0535a7f04cee697539af7e647d16fa0fead10e2c14e",
    "spectaint/sarif": "400ec4164a31c1b47adc71b5887ca9cc3a55af7d99cc8c0dda86789c590b9406",
    "specbound/text": "367f89afc3af8d13978aaf43b54f4e4ecc43eaee357df8c40ba867f563aa5fb7",
    "specbound/json": "d6283237aa4a77009f85957bfe4787ceac6f91cceb0f71ffad928dfb5d8a6639",
    "specbound/sarif": "6e4103841a36fe1e69e7a9a442c14db386e7b4388fd815fdee276b08d8a02a30",
    "check-one-tree/text": "aaa52c900cb6a2d37f40f5ac3c2be528181771c478b2fd28503dd4c7cfec79fe",
    "check-one-tree/json": "38ded0dc7bd8b31312a38c88d4cfed83f8fd54a24585ac0a8b8147a5cec7c3f2",
    "check-one-tree/sarif": "e94eae828b53636bbbe4282463207379aea9ee3b737db92f5c61ff98e96a1e35",
    "check/text": "68ee1d5c4a4a4e406d156c5815f1d992b72fd9663ea957652948b4736c10a216",
    "check/json": "907f378b4aaea542509a0922971879b60619b5b801e2fc41f1ecf6205a0e44b9",
    "check/sarif": "b1b9e8e3bc570f70a4f26f023fd5eac60a2d916393ee4ec4444888d5dd0f2f42",
    "trace/specflow": "b35bd3bda14c5d879ddb2d08728272ef8ab1c3595d17575a979c2c4c8edc712e",
    "trace/specperf": "01bf58050408e84f0ffe53053c7b83d187b2602833e65acd845f1b0c63fd7144",
    "trace/spectaint": "e9d699668844fb15ef7e2d62ebca0e72cd4165b68963689463c951344163fbbe",
    "trace/specbound": "14c1fbdc3d5f23fc823add1fefa0497d31cfa60efcef7779c15c1460fb689b1f",
}


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
    pinned = {key for key in DIGESTS if key.startswith("spec")}
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
        assert _sha(report) == DIGESTS[f"check-one-tree/{fmt}"], fmt


def test_check_over_the_five_trees_matches_the_golden_file(capsys, tmp_path):
    reports = _check_reports(capsys, tmp_path, TREES)
    assert reports["text"] == (REPO_ROOT / GOLDEN_CHECK).read_text()
    for fmt, report in reports.items():
        assert _sha(report) == DIGESTS[f"check/{fmt}"], fmt
    lines = reports["text"].splitlines()
    assert len(lines) == len(set(lines))  # every finding once


# ------------------------------------------------------------ --trace


#: What the ``trace/*`` digests pin, in words (ISSUE 20's inventory).
GOLDEN_TRACE_VERDICTS = {
    "specflow": {"REFUTED": 2},
    "specperf": {"CONFIRMED": 4, "REFUTED": 3},
    "spectaint": {"REFUTED": 8},
    "specbound": {"CONFIRMED": 10},
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
        header, verdicts, failing = tool.judge(view, tool.analyze(index))
        assert header and verdicts
        assert failing == (4 if tool.name == "specperf" else 0)


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

