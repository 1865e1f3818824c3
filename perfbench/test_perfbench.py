"""Self-tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.count import LotusCounts  # noqa: E402
from repro.graph.datasets import load_dataset  # noqa: E402
from repro.serve import QueryResult  # noqa: E402


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_seed_fixes_script_and_update_stream():
    graph = load_dataset(workloads.DYNAMIC_SOURCE)
    first = workloads.build_script(7, graph)
    assert workloads.build_script(7, graph) == first
    other = workloads.build_script(8, graph)
    assert [i for i in other if i[0] == "count"] != [i for i in first if i[0] == "count"]
    assert [i for i in other if i[0] != "count"] != [i for i in first if i[0] != "count"]
    writes = [i for i in first if i[0] != "count"]
    assert all(len(edges) == workloads.BATCH_EDGES for _, edges in writes)


def test_unit_tables_match_benchmark_json():
    assert run.E2E_UNITS == _declared("end_to_end")
    assert run.LAYER_UNITS == _declared("per_layer")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-read-write",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    printed = {name: m["unit"] for name, m in line["metrics"].items()}
    assert printed == _declared(section)


def test_phase_check_rejects_a_wrong_count():
    good = LotusCounts(*workloads.PINNED_PHASES["Frndstr"])
    assert workloads.phase_errors("sequential", "Frndstr", good) == []
    bad = LotusCounts(good.hhh, good.hhn, good.hnn, good.nnn + 1)
    assert workloads.phase_errors("sequential", "Frndstr", bad)


def _count_record(index, source, triangles, version=None):
    result = QueryResult(
        id=f"r{index}", op="count", status="ok", dataset=source,
        algorithm="lotus", triangles=triangles, version=version,
    )
    return workloads._Record(index, ("count", source, "lotus"), result, 0.1, False)


def test_serve_check_rejects_a_wrong_count():
    pinned = workloads.PINNED_TOTALS
    update = QueryResult(
        id="r0", op="insert", status="ok", dataset="LJGrp",
        version=1, triangles=pinned["LJGrp"] + 5,
    )
    records = [
        workloads._Record(0, ("insert", [[1, 2]]), update, 0.01, False),
        _count_record(1, "LJGrp", pinned["LJGrp"] + 5, version=1),
        _count_record(2, "LJGrp", pinned["LJGrp"], version=0),
        _count_record(3, "Twtr10", pinned["Twtr10"]),
    ]
    out = workloads.Outcome()
    workloads._check_serve(records, out)
    assert (out.attempted, out.failed) == (4, 0)

    records.append(_count_record(4, "LJGrp", pinned["LJGrp"], version=1))
    records.append(_count_record(5, "SmallWorld", pinned["SmallWorld"] - 1))
    out = workloads.Outcome()
    workloads._check_serve(records, out)
    assert (out.attempted, out.failed) == (6, 2)
    assert not run.result_line(out, trace=False)["correct"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "social-low-skew",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
