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

The fourth cut deleted SPP201, SPP202, SPP203, SPP205 and SPP208 with
the five fixtures only they fired on (``bad_spp201_sendcopy.py``,
``bad_spp202_rebuild.py``, ``bad_spp203_alloc.py``,
``bad_spp205_attrchain.py``, ``bad_spp208_sizing.py``), folded what was
left of specperf (SPP204, SPP207, the cost contracts) into specbound,
and moved the four surviving ``specperf_fixtures`` files into
``tests/specbound_fixtures``.  It dropped the ``specperf/*`` and
``trace/specperf`` pins and moved ``speclint/json`` and
``specflow/json`` (their catalogues), ``specbound/*`` (SPP204, SPP207
and the SPB406 of ``bad_spp206_buffer.py`` join its tree; its
catalogue lists both prefixes), ``check*/*`` (four runs, four count
lines) and ``trace/specbound`` (the cost share table and the SPP204 /
SPP207 verdicts follow the occupancy report).  Checked when
re-captured: every surviving finding and verdict line equals the
parent's with ``tests/specperf_fixtures/`` read as
``tests/specbound_fixtures/``, except that an SPF111 pair is reported
at the site whose path sorts first, so the pairs with ``publish`` and
``fanout`` now print at those functions; as unordered pairs the sets
are equal but for the ``fanout``/``fanout`` pair the deleted
``bad_spp208_sizing.py`` made.  The parent's code run over the new
trees prints the same finding lines as the new code, byte for byte.

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
from repro.analysis.bounds import attribution
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
    for name in ("speclint", "specflow", "spectaint", "specbound")
]
TRACED = [tool for tool in TOOLS if tool.judge is not None]

#: ``family/format``, ``check*/format`` and ``trace/family`` -> sha256.
DIGESTS = {
    "speclint/text": "425c95ff511464bd377633730dac6c51f432c5d48548668cbedfa1629735a7df",
    "speclint/json": "9a6cc22011d33a569703186ee6c6db530e129e1112c69c0871ae957298c017ea",
    "specflow/text": "71edb7f99ba3279639401662479a94a6c268028a5d5b67bdb51d48cabc60991a",
    "specflow/json": "9b716c0ed8088e239598287f0b6203a92485f4d9a7c8047acfe2117c15b7a6f6",
    "specflow/sarif": "a761bbe527a2e8e45021c269f7250e3c391f0210da232553415670ce2ff7487f",
    "spectaint/text": "30b96ad2f1d645b82fa26c2693a9196fbd5844b344261a231b8634acc5719e6c",
    "spectaint/json": "8cd8e5d89a2ebbd7cea0b0535a7f04cee697539af7e647d16fa0fead10e2c14e",
    "spectaint/sarif": "400ec4164a31c1b47adc71b5887ca9cc3a55af7d99cc8c0dda86789c590b9406",
    "specbound/text": "53e053e48382dcbf79f1b02eb9535386139ddb1d03c5bc707bac12d63ed336e0",
    "specbound/json": "a70faa08fc0bfdf68478b9efefe6a433199f7617624507e1a62cc8c276ccc85c",
    "specbound/sarif": "6c04743bd2732502ee3da6e6183c5074a635838bada48a12d108c0a175b42244",
    "check-one-tree/text": "a29424abdea729c319b3be88875a769602719fe0603eb9cd6910292d964e3d75",
    "check-one-tree/json": "f9cf79b99fcb149ec4d5d9543da99ef0e54680ebf10d42cb8117e9bf86d246c6",
    "check-one-tree/sarif": "acd8c01b28ae328d1f3c409f0a20bf3ebf22bdbe11d97063db04468f36ec4b4d",
    "check/text": "6f8ce62e82cfeb82bcfb7ada7190800f8eda648826a635ab3371f0bb4a0e5527",
    "check/json": "8cab5d61907479e99622097578ca5caede41d45010733be8acc405d7584dcf87",
    "check/sarif": "13be8377be7b3f7b1a7a44599824e034fda96b2f3a4b2c688af2a652113d2de6",
    "trace/specflow": "b35bd3bda14c5d879ddb2d08728272ef8ab1c3595d17575a979c2c4c8edc712e",
    "trace/spectaint": "e9d699668844fb15ef7e2d62ebca0e72cd4165b68963689463c951344163fbbe",
    "trace/specbound": "9717d8883df1896d1aea7de83ee60f40cc3dded988e2b3d5036716a1909cb40a",
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
    assert len(pinned) == 11


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
    "spectaint": {"REFUTED": 8},
    "specbound": {"CONFIRMED": 12},
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
        assert failing == (2 if tool.name == "specbound" else 0)


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
    """Sibling of ``test_check_parses_each_file_exactly_once``: every
    specbound rule reads the index's one attribution."""
    built = []
    original = attribution.build_attribution

    def counting(callgraph):
        built.append(callgraph)
        return original(callgraph)

    monkeypatch.setattr(program, "build_attribution", counting)
    _stdout(capsys, ["check", "tests/specbound_fixtures"])
    assert len(built) == 1

