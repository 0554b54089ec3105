"""``scripts/parity.py``: its table is runnable and its comparison tells
moved from unmoved.

Running the rows is CI's (golden mode) and a change's author's
(``--parent REV``); tier-1 checks what breaks either silently: a row
whose ``repro`` argv no longer parses, and a comparison that misses a
one-character edit or flags a run that only took a different time.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_parity_module():
    path = ROOT / "scripts" / "parity.py"
    spec = importlib.util.spec_from_file_location("parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARITY = _load_parity_module()
ROWS = {row.name: row for row in PARITY.ARTIFACTS}


def _outputs(row, **changed):
    """A run of ``row`` that printed and wrote nothing but ``changed``."""
    outputs = {"exit code": "1", "stdout": "", "stderr": ""}
    outputs.update({name: "" for name in row.files})
    outputs.update(changed)
    return outputs


def _verdict(row, ours, theirs):
    return PARITY.verdict(
        row, ours, theirs, change=PARITY.compare(row, ours, theirs)
    )


def test_every_row_runs_a_command_of_this_tree(capsys):
    unparsed = []
    for row in PARITY.ARTIFACTS:
        if row.argv[0] == "python":
            assert (ROOT / row.argv[1]).is_file(), row.name
            continue
        assert row.argv[0] == "repro", row.name
        try:
            build_parser().parse_args(list(row.argv[1:]))
        except SystemExit:
            unparsed.append(f"{row.name}: {capsys.readouterr().err.strip()}")
    assert unparsed == []
    assert len(ROWS) == len(PARITY.ARTIFACTS)  # names are unique
    golden = [row for row in PARITY.ARTIFACTS if row.golden]
    assert {row.golden for row in golden} == {
        f"tests/golden/{name}" for name in (
            "fig8.txt", "table2.txt", "nbody_loopback_p4.txt",
            "jacobi_p4_fw1.jsonl",
        )
    }
    assert all((ROOT / row.golden).is_file() for row in golden)


@pytest.mark.parametrize(
    "name, output, ours, theirs",
    [
        ("fig8", "stdout", "p  FW0\n16 1.25\n", "p  FW0\n16 1.26\n"),
        ("specflow-json", "stdout", '{"a": [1, "x"]}', '{"a": [1, "y"]}'),
        ("check-sarif", "parity-out/check.sarif", '{"v": 1}', '{"v": 2}'),
        ("mc-seq-skip", "parity-out/mc-seq-skip.jsonl",
         '{"p": 2}\n{"kind": "send"}\n', '{"p": 2}\n{"kind": "recv"}\n'),
        ("sanitize-selftest", "exit code", "0", "1"),
    ],
)
def test_a_one_character_edit_is_moved_and_names_the_row(
    name, output, ours, theirs
):
    row = ROWS[name]
    same = _outputs(row, **{output: ours})
    assert _verdict(row, same, dict(same)) == f"identical  {row.name}"
    line = _verdict(row, same, _outputs(row, **{output: theirs}))
    assert line.startswith(f"moved      {row.name}: {output}: ")


def test_a_different_elapsed_alone_is_not_moved():
    row = ROWS["mc-seq-skip"]
    report = {"runs": [{"elapsed_seconds": 0.0018, "explored": 9}]}

    def run(seconds):
        report["runs"][0]["elapsed_seconds"] = seconds
        return _outputs(row, **{
            "stdout": f"  states        : 9 explored\n"
                      f"  elapsed       : {seconds:.3f}s\n",
            "parity-out/mc-seq-skip.json": json.dumps(report, indent=2),
        })

    assert _verdict(row, run(0.0018), run(0.0042)) == f"identical  {row.name}"
    moved = run(0.0042)
    moved["stdout"] = moved["stdout"].replace("9 explored", "8 explored")
    assert _verdict(row, run(0.0018), moved).startswith("moved")


def test_a_run_that_crashed_is_failed_not_identical():
    row = ROWS["fig8"]
    crashed = _outputs(row, **{"exit code": "2", "stderr": "usage: repro\n"})
    assert _verdict(row, crashed, dict(crashed)) == (
        f"failed     {row.name}: exit code 2: usage: repro"
    )


def test_a_file_written_on_one_side_only_is_moved():
    row = ROWS["nbody-des-p16-trace"]
    missing = _outputs(row, **{row.files[0]: None})
    assert "written on one side only" in _verdict(row, _outputs(row), missing)

