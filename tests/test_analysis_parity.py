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

The seventh cut deleted spectaint (SPT302) and specbound's four static
rules (SPB405, SPB406, SPB408, SPP204) with their fixture trees, the
phase attribution and the cost contracts, and folded the occupancy
contracts into ``repro analyze --trace``.  It dropped the
``spectaint/*``, ``specbound/*``, ``trace/spectaint`` and
``trace/specbound`` pins and moved ``check/*`` (two trees, two tools),
``check-one-tree/*`` (two tools) and ``trace/specflow``, which prints
``trace/specbound``'s occupancy report, byte for byte, after the
protocol verdicts.  The finding lines of ``check/text`` are the
parent's but for the deleted families' and trees'.

Everything runs from the repo root so the paths inside the reports are
the relative ones CI prints.  The structural pins at the bottom say
*how* the reports are produced: one grouping pass over the log, one
message matching.
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis import trace_view
from repro.analysis.program import ProgramIndex
from repro.analysis.tools import TOOLS
from repro.cli import EXIT_FINDINGS, main
from repro.trace.events import EventLog

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_TRACE = "tests/golden/jacobi_p4_fw1.jsonl"
GOLDEN_CHECK = "tests/golden/check_fixtures.txt"
#: ``repro check`` over these, in this order, is the golden text report.
TREES = [
    f"tests/{name}_fixtures"
    for name in ("speclint", "specflow")
]
TRACED = [tool for tool in TOOLS if tool.judge is not None]

#: ``family/format``, ``check*/format`` and ``trace/family`` -> sha256.
DIGESTS = {
    "speclint/text": "6c30ddd97d7c24de233c9f7e514736230a1eafd20bd9d2ae71ec11b5b6c67603",
    "speclint/json": "6f92da80430241b92ffc0684aa4689b1ffbd2a7e8a5ac69ec9a29c637fd3b4a2",
    "specflow/text": "cc789680e3c064f8779a6d44524b0a5eff7b230d8a007c07ac112895ced7af49",
    "specflow/json": "91bdfc9f84fb7936aee2eb9b435878dbfada85b99d605867703f963ea0e2495d",
    "specflow/sarif": "03393a92a07d6db4665bf37e9629df7b70d2617a62f445f1debe34abb760a0b7",
    "check-one-tree/text": "40ef1e91fd1a710b51a019f96d1fb2f6aeef91ee89dc8a53fab5daf7bd2817e2",
    "check-one-tree/json": "7fd1974a9f18d962857df0ad95f44b8cde9baa4e1229ece167bf0fc5b779801e",
    "check-one-tree/sarif": "6a6688099e14d80d578247df784a5b9872585db921ba0ab5804a13fa2c4a89dd",
    "check/text": "d209716b0bbdb12248826115fb50a91cda652bf00450b63bbaeafea960d45929",
    "check/json": "16cdb0f142faeaa74d0fe8a9732c33f18c933446306eaa76f2384f55ca55b26f",
    "check/sarif": "94b1c0314770e1b8759f7045382e0d788062340c5489283f96c23da01d6f5e7c",
    "trace/specflow": "b2b0503fc65079e9cd9f370f7d8ff6eda6188105fab36a0ec903fb6ab27bf900",
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
    assert len(pinned) == 5


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


#: What the ``trace/*`` digests pin, in words: specflow's one REFUTED
#: protocol verdict and the ten CONFIRMED occupancy rows.
GOLDEN_TRACE_VERDICTS = {
    "specflow": {"REFUTED": 1, "CONFIRMED": 10},
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
        assert trace["failing"] == 0
        assert doc == json.loads(_stdout(capsys, [tool.cli, tree, "--format", fmt]))


# ---------------------------------------------------- structural pins


def test_judges_never_ask_the_log_to_sort_itself():
    """Both contract sets read the one TraceView; the log has no
    sorting accessors of its own to go back to."""
    log = EventLog.load(GOLDEN_TRACE)
    view = trace_view.TraceView(log)
    for tool in TRACED:
        index = ProgramIndex([f"tests/{tool.name}_fixtures"])
        header, verdicts, failing = tool.judge(view, tool.analyze(index))
        assert header and verdicts
        assert failing == 0


@pytest.mark.parametrize("tool", TRACED, ids=lambda tool: tool.name)
def test_one_matching_pass_per_trace(tool, monkeypatch, capsys):
    calls = {"match": 0}
    match = trace_view.match_messages

    def counting_match(*args):
        calls["match"] += 1
        return match(*args)

    monkeypatch.setattr(trace_view, "match_messages", counting_match)
    _stdout(
        capsys,
        [tool.cli, f"tests/{tool.name}_fixtures", "--trace", GOLDEN_TRACE],
    )
    assert calls["match"] == 1
