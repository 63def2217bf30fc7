"""Self-test of the swap-path benchmark.

Run from the repository root with ``python3 -m pytest swapbench -q``
(it sits outside the tier-1 ``testpaths``).  Every check drives
``run.py`` as a user would, in a temporary working directory.
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
RUN = str(HERE / "run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SIMULATED = (
    "fault_stall_p50_sim_ms",
    "fault_stall_p99_sim_ms",
    "swap_out_p50_sim_ms",
    "swap_out_p99_sim_ms",
    "link_kb_per_op",
    "stored_bytes_per_user_byte",
    "error_rate",
)


def bench(*args: str, cwd: Path, check: bool = True) -> subprocess.CompletedProcess:
    completed = subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    if check:
        assert completed.returncode == 0, completed.stderr[-3000:]
    return completed


@pytest.fixture(scope="module")
def quick_sets(tmp_path_factory: pytest.TempPathFactory):
    """Two quick sets of the same seed, each in its own directory:
    the paths of their result files and the parsed documents."""
    paths = []
    for name in ("a", "b"):
        work = tmp_path_factory.mktemp(name)
        bench("--quick", cwd=work)
        paths.append(work / "BENCH_results.json")
    return paths, [json.loads(path.read_text()) for path in paths]


@pytest.fixture(scope="module")
def traced(tmp_path_factory: pytest.TempPathFactory):
    """A quick traced run of every workload: stdout and spans per workload."""
    work = tmp_path_factory.mktemp("trace")
    completed = bench("--trace", "--quick", cwd=work)
    spans = {
        name: [
            json.loads(line)
            for line in (work / f"BENCH_trace_{name}.jsonl").read_text().splitlines()
        ]
        for name in WORKLOADS
    }
    return completed.stdout, spans


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    end_to_end = {metric["name"]: metric for metric in SPEC["end_to_end"]}
    assert end_to_end["setup_s"]["unit"] == "s"
    bounds = [metric["bound"] for metric in SPEC["end_to_end"]]
    assert end_to_end["setup_s"]["bound"] == max(bounds)
    assert all(0 < bound < 1 for bound in bounds)


def test_every_metric_present_and_no_errors(quick_sets):
    _paths, documents = quick_sets
    wall = [metric["name"] for metric in SPEC["end_to_end"]] + [
        metric["name"]
        for metric in SPEC["per_layer"]
        if metric["name"] == "op_wall_p99_ms"
        or metric["name"].startswith(("unscaled.", "host."))
    ]
    for document in documents:
        assert set(document["workloads"]) == set(WORKLOADS)
        for name in WORKLOADS:
            (run,) = document["workloads"][name]["runs"]
            assert set(wall) <= set(run["wall"])
            assert set(SIMULATED) <= set(run["exact"])
            assert run["exact"]["error_rate"] == 0
            assert run["exact"]["failed"] == 0


def test_simulated_and_count_metrics_repeat_exactly(quick_sets):
    _paths, (first, second) = quick_sets
    for name in WORKLOADS:
        assert first["workloads"][name]["runs"][0]["exact"] == (
            second["workloads"][name]["runs"][0]["exact"]
        )


def test_compare_of_two_sets_of_one_seed(quick_sets, tmp_path: Path):
    (first, second), _documents = quick_sets
    completed = bench("compare", str(first), str(second), cwd=tmp_path, check=False)
    assert completed.returncode == 0, completed.stdout
    rows = [line for line in completed.stdout.splitlines() if " exact " in line]
    assert len(rows) == len(WORKLOADS) * len(SIMULATED)
    assert all(row.endswith("unchanged") for row in rows)


def test_compare_needs_equal_batch_counts(quick_sets, tmp_path: Path):
    """One set against itself reads unchanged; with one more batch in
    every traverse run of B, traverse's wall metrics read unresolved."""
    (first, _second), _documents = quick_sets
    paths = {}
    for side, extra in (("a", 0), ("b", 1)):
        document = json.loads(first.read_text())
        for entry in document["workloads"].values():
            entry["runs"] = entry["runs"] * 2  # two runs: a measured spread
        for run in document["workloads"]["traverse"]["runs"]:
            run["batches"] += extra
        paths[side] = tmp_path / f"{side}.json"
        paths[side].write_text(json.dumps(document))
    completed = bench("compare", str(paths["a"]), str(paths["b"]), cwd=tmp_path, check=False)
    rows = {tuple(line.split()[:2]): line for line in completed.stdout.splitlines()}
    for metric in SPEC["end_to_end"]:
        assert rows[("swap_cycle", metric["name"])].endswith("unchanged")
        assert rows[("traverse", metric["name"])].endswith("unresolved")


def test_single_run_ends_with_the_result_line(tmp_path: Path):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        completed = bench(
            "--workload", "swap_cycle", "--seed", "2", "--seconds", "0",
            "--trace", trace, "--quick", cwd=tmp_path,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [metric["name"] for metric in SPEC[section]]


def test_fails_without_the_library(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "swapbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "swapbench/run.py", "--workload", "traverse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_child_spans_nest_inside_their_parent(traced):
    _stdout, spans = traced
    for name, records in spans.items():
        by_id = {record["span_id"]: record for record in records}
        for record in records:
            parent = by_id.get(record["parent_id"])
            if record["parent_id"] is None:
                assert record["layer"] == "runtime", name
                continue
            assert parent is not None, name
            assert parent["op_id"] == record["op_id"], name
            for clock in ("wall", "sim"):
                start, end = f"{clock}_start", f"{clock}_end"
                assert parent[start] <= record[start] <= record[end] <= parent[end], name


def layer_self_wall(records):
    """Self wall seconds per layer: span duration minus its children."""
    children = {}
    for record in records:
        if record["parent_id"] is not None:
            children[record["parent_id"]] = children.get(record["parent_id"], 0.0) + (
                record["wall_end"] - record["wall_start"]
            )
    totals = {}
    for record in records:
        own = record["wall_end"] - record["wall_start"] - children.get(record["span_id"], 0.0)
        totals[record["layer"]] = totals.get(record["layer"], 0.0) + own
    return totals


def test_layer_self_times_sum_to_op_wall(traced):
    _stdout, spans = traced
    for name, records in spans.items():
        op_wall = sum(
            record["wall_end"] - record["wall_start"]
            for record in records
            if record["parent_id"] is None
        )
        assert abs(sum(layer_self_wall(records).values()) - op_wall) <= 0.02 * op_wall, name


def test_layers_that_must_idle_do(traced):
    stdout, spans = traced
    assert stdout.count("tracing overhead:") == len(WORKLOADS)
    for layer in ("wire", "link", "store"):
        assert layer not in layer_self_wall(spans["traverse"])
    swap_cycle = layer_self_wall(spans["swap_cycle"])
    assert max(swap_cycle, key=swap_cycle.get) == "wire", swap_cycle
