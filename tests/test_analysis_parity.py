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

The fifth cut deleted SPT307, SPT308, SPB402 and SPB407 with the
four fixtures only they fired on (``bad_spt307_alias.py``,
``bad_spt308_dead_rollback.py``, ``bad_literal_trim.py``,
``bad_unguarded_cascade.py``), and every standalone report now lists
only its own family's catalogue (speclint's JSON had listed SPF and SPP
rules, specflow's JSON SPL and SPP rules and its SARIF SPL rules).  It
moved ``speclint/json``, ``specflow/json`` and ``specflow/sarif`` (their
catalogues alone), ``spectaint/*``, ``specbound/*``, ``check/*``,
``check-one-tree/sarif`` (the merged catalogue) and ``trace/spectaint``
/ ``trace/specbound`` (three REFUTED verdicts and the two SPB findings
fewer).  Checked when re-captured: the parent's code run over the new
trees prints the same text and exit codes byte for byte, and its JSON /
SARIF, parsed, with the four codes' entries and the other families'
catalogue entries dropped, equal the new documents.

The sixth cut (the mutation audit, ``scripts/mutants.py``) deleted
SPL003, SPL005-SPL008, SPF110, SPT301 and SPP207 with the nine
fixtures only they fired on, kept only the tag methods that exist
(``send``, ``recv``) in the surviving rules, and rewrote the fixtures
that used ``proc.compute``, ``broadcast`` or ``print`` to use
``proc.recv`` and ``send``.  Every pin moved: the deleted fixtures'
findings and the SPF111 pairs with their sends went, SPL001 names
``proc.recv``, the SPT301 escape chain is an SPT302 one, and the
``trace/*`` reports lost the SPF110, SPT301 and SPP207 verdicts.
Checked when re-captured: the parent's code run over the new trees
prints the same text and exit codes byte for byte, and its JSON /
SARIF, parsed, with the eight codes' catalogue entries dropped and
SPL001's summary blanked, equal the new documents.

Everything runs from the repo root so the paths inside the reports are
the relative ones CI prints.  The structural pins at the bottom say
*how* the reports are produced: one grouping pass over the log, one
message matching, one escape scan, one attribution.
"""

import hashlib
import json
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
    "speclint/text": "6c30ddd97d7c24de233c9f7e514736230a1eafd20bd9d2ae71ec11b5b6c67603",
    "speclint/json": "6f92da80430241b92ffc0684aa4689b1ffbd2a7e8a5ac69ec9a29c637fd3b4a2",
    "specflow/text": "cc789680e3c064f8779a6d44524b0a5eff7b230d8a007c07ac112895ced7af49",
    "specflow/json": "91bdfc9f84fb7936aee2eb9b435878dbfada85b99d605867703f963ea0e2495d",
    "specflow/sarif": "03393a92a07d6db4665bf37e9629df7b70d2617a62f445f1debe34abb760a0b7",
    "spectaint/text": "9330ae012465d0c3a3d62c795a00aa54880d1269531391b7a5a186bcc44b6a4f",
    "spectaint/json": "b053300a376f2f6a612ac678dad2b27f812e2a17e4b39c63dc992d7e635cbacf",
    "spectaint/sarif": "381188606b76155eb46213a5e3b9a553e6ade234465e80505360698a47fce4d4",
    "specbound/text": "39ae3635755cf298d04b42d5440a18cc9de5587862ba6e7a1bb052cc93b14492",
    "specbound/json": "d95b8583fa88dc04405ddf32fb3e8544bc8b87d184a72b7f62095dcc7013e8b1",
    "specbound/sarif": "8cd80b94e29ce76d02c9cb70686e423dd982c552785b6084a084cf6d2c4491e2",
    "check-one-tree/text": "daecf204939c3e98a8ea3a72cc4921b980ab49265529b7f99f688dfda25f1c3e",
    "check-one-tree/json": "9f13f3f6183a4c1ac156602b8d454045bc0694202291c6ae381b55a73376800a",
    "check-one-tree/sarif": "5b117929d027088da029fa61f39d30abd5c878c195483f3484ccd79872cadf0d",
    "check/text": "61fbda000008937abe7be778f040497863efa6e9666ae3d1a7796bb8bda02b6e",
    "check/json": "4017a3077db10d73fc2c5ef39e877969f8f9e7b3ac5c8e96046ccfe46e5be1a3",
    "check/sarif": "36e6d4d05e552fe0edea0869f90178ceb0cd4eba517b833a1cb9e6151dced3fa",
    "trace/specflow": "45594f172b6baa8465223b0277a153cbbc2048c9125913acea83e0f0d974b27c",
    "trace/spectaint": "162d85def688b491a2b1e41c3969b1708c614e9029f507130dd1c601a796a732",
    "trace/specbound": "56339850ab7aed1466a214023358bd4da2b500d45d81a6b7c87641efc4d3c0dd",
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
    "specflow": {"REFUTED": 1},
    "spectaint": {"REFUTED": 3},
    "specbound": {"CONFIRMED": 11},
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


@pytest.mark.parametrize("tool", TRACED, ids=lambda tool: tool.name)
def test_json_and_sarif_carry_the_trace_verdict_in_the_document(tool, capsys):
    """``--format json|sarif --trace`` puts the verdict lines the text
    run prints into the one document on stdout, and nothing on stderr;
    the rest of the document is the one printed without ``--trace``."""
    tree = f"tests/{tool.name}_fixtures"
    text = _stdout(capsys, [tool.cli, tree, "--trace", GOLDEN_TRACE])
    plain = _stdout(capsys, [tool.cli, tree])
    verdicts = text.splitlines()[len(plain.splitlines()):]
    assert verdicts
    for fmt in ("json", "sarif"):
        capsys.readouterr()
        assert main([tool.cli, tree, "--format", fmt,
                     "--trace", GOLDEN_TRACE]) == EXIT_FINDINGS
        out, err = capsys.readouterr()
        assert err == ""
        doc = json.loads(out)
        holder = doc if fmt == "json" else doc["runs"][0].pop("properties")
        trace = holder.pop("trace")
        assert trace["file"] == GOLDEN_TRACE
        assert trace["report"] == verdicts
        assert trace["failing"] == (1 if tool.name == "specbound" else 0)
        assert doc == json.loads(_stdout(capsys, [tool.cli, tree, "--format", fmt]))


# ---------------------------------------------------- structural pins


def test_judges_never_ask_the_log_to_sort_itself():
    """All four contracts read the one TraceView; the log has no
    sorting accessors of its own to go back to."""
    log = EventLog.load(GOLDEN_TRACE)
    view = trace_view.TraceView(log)
    for tool in TRACED:
        index = ProgramIndex([f"tests/{tool.name}_fixtures"])
        header, verdicts, failing = tool.judge(view, tool.analyze(index))
        assert header and verdicts
        assert failing == (1 if tool.name == "specbound" else 0)


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

