"""Checks on the benchmark itself; run with ``python -m pytest bench -q``.

Everything runs ``bench/run.py --quick`` (toy sizes), so these say
nothing about the repo's performance -- only that the benchmark keeps
its own contract.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    script = cwd / "bench" / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict[str, list[dict]]:
    """Two complete --quick outputs of each kind."""
    tmp = tmp_path_factory.mktemp("bench")
    out: dict[str, list[dict]] = {"end_to_end": [], "per_layer": []}
    for kind, trace in (("end_to_end", "0"), ("per_layer", "1")):
        for i in range(2):
            path = tmp / f"{kind}-{i}.json"
            done = bench("--quick", "--trace", trace, "--out", str(path))
            assert done.returncode == 0, done.stderr
            out[kind].append(json.loads(path.read_text()))
    return out


def test_declaration_keeps_the_contract():
    assert set(DECLARATION) == {"command", "paths", "run_seconds", "workloads",
                                "end_to_end", "per_layer"}
    assert DECLARATION["paths"] == ["bench"]
    assert DECLARATION["command"] == ["python3", "bench/run.py"]
    assert 1 <= DECLARATION["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    for w in DECLARATION["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in DECLARATION["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in DECLARATION["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = DECLARATION["end_to_end"] + DECLARATION["per_layer"]
    names = WORKLOADS + [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics)
    setup = next(m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARATION["end_to_end"])


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_workload_emits_exactly_the_declared_names(quick, kind):
    declared = {m["name"]: m["unit"] for m in DECLARATION[kind]}
    for doc in quick[kind]:
        assert list(doc["workloads"]) == WORKLOADS
        for result in doc["workloads"].values():
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            assert emitted == declared
            assert all(NAME.fullmatch(n) for n in emitted)
            assert result["failed"] == 0 and result["correct"]


def test_end_to_end_metrics_are_never_zero(quick):
    for doc in quick["end_to_end"]:
        for result in doc["workloads"].values():
            assert all(m["median"] > 0 for m in result["metrics"].values())


def test_exact_metrics_and_counts_repeat(quick):
    for first, second in quick.values():
        for name in WORKLOADS:
            a, b = first["workloads"][name], second["workloads"][name]
            assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
            exact = [n for n, m in a["metrics"].items() if m["exact"]]
            assert exact == [n for n, m in b["metrics"].items() if m["exact"]]
            for n in exact:
                assert a["metrics"][n]["median"] == b["metrics"][n]["median"], (name, n)
    # The deterministic backends have something exact to repeat.
    des = quick["per_layer"][0]["workloads"]["des-nbody-p16"]["metrics"]
    assert des["des.virtual_makespan_s"]["exact"] and des["apps.check_calls"]["median"] > 0


def test_layers_off_a_workloads_path_read_zero(quick):
    runs = quick["per_layer"][0]["workloads"]
    for name, result in runs.items():
        for metric, m in result["metrics"].items():
            layer = metric.split(".")[0]
            if layer in ("pipes", "parallel"):
                assert (m["median"] != 0) == (name == "mp-nbody-p2"), (name, metric)
            if layer in ("des", "vm"):
                assert (m["median"] != 0) == name.startswith("des-"), (name, metric)
            if layer == "nbody":
                assert (m["median"] != 0) == ("nbody" in name), (name, metric)
        assert "trace.span_overhead_frac" in result["metrics"]


def test_span_trees_are_well_formed(quick):
    for name in WORKLOADS:
        doc = json.loads((BENCH / "out" / f"trace-{name}.json").read_text())
        tree = [[s[k] for k in ("name", "start", "end", "parent", "run")]
                for s in doc["spans"]]
        assert spans.tree_problems(tree) == []
        roots = [s for s in tree if s[spans.PARENT] is None]
        assert roots and all(s[spans.NAME] == "run" for s in roots)
        own = spans.totals_by_name(tree)
        assert sum(seconds for seconds, _ in own.values()) == pytest.approx(
            sum(s[spans.END] - s[spans.START] for s in roots))
        if name != "mp-nbody-p2":  # spans do not cross the process boundary
            assert own["apps.compute"][1] > 0


def test_tree_checker_sees_a_broken_tree():
    good = [["run", 0.0, 10.0, None, "r1"], ["apps.check", 1.0, 2.0, 0, "r1"]]
    assert spans.tree_problems(good) == []
    assert spans.tree_problems(good + [["apps.check", 9.0, 11.0, 0, "r1"]])
    assert spans.tree_problems(good + [["run", 11.0, 12.0, None, "r1"]])
    assert spans.tree_problems([good[0], ["a", 1.0, 9.0, 0, "r1"], ["b", 2.0, 8.0, 0, "r1"]])


def test_one_workload_prints_the_contracts_last_line():
    done = bench("--workload", "des-null-p16", "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--quick")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in DECLARATION["end_to_end"]}
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_without_the_repo_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")


def _metric(median, q1, q3, exact=False):
    return {"median": median, "q1": q1, "q3": q3, "n": 9, "exact": exact}


def test_compare_verdicts():
    steady = _metric(1.00, 0.99, 1.01)
    assert compare.verdict(steady, _metric(1.05, 1.04, 1.06), "lower", 0.1)[0] == "ok"
    assert compare.verdict(steady, _metric(1.20, 1.19, 1.21), "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, _metric(0.50, 0.49, 0.51), "lower", 0.1)[0] == "ok"
    assert compare.verdict(steady, _metric(0.80, 0.79, 0.81), "higher", 0.1)[0] == "worse"
    noisy = _metric(1.15, 0.95, 1.35)
    assert compare.verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(steady, _metric(2.0, 1.8, 2.2), "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, _metric(1.2, 1.2, 1.2), "lower", None)[0] == "-"
    exact = _metric(126.705339, 126.705339, 126.705339, exact=True)
    assert compare.verdict(exact, dict(exact), "lower", None)[0] == "ok"
    assert compare.verdict(exact, _metric(126.7, 126.7, 126.7, True), "lower", None)[0] == "worse"


def test_compare_exit_code(quick, tmp_path, capsys):
    base = quick["per_layer"][0]
    worse = json.loads(json.dumps(base))
    worse["workloads"]["des-nbody-p16"]["metrics"]["des.virtual_makespan_s"]["median"] += 1.0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(worse))
    assert compare.compare(a, a, DECLARATION) == 0
    assert compare.compare(a, b, DECLARATION) == 1
    assert "worse" in capsys.readouterr().out
    worse = json.loads(json.dumps(base))
    worse["workloads"]["mp-nbody-p2"]["failed_frac"] = 0.5
    b.write_text(json.dumps(worse))
    assert compare.compare(a, b, DECLARATION) == 1
