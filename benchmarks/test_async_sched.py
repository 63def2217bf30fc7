"""Async swap scheduler benchmark — overlap faults, prefetch, write-back.

Runs the fetch-bound pointer-chase workload (replication factor 3 over
five simulated 700 Kbps Bluetooth stores) two ways — the blocking path
and the event-driven async scheduler — at seeds 1, 2 and 3, and asserts
the acceptance bar at each: at least a 2x reduction in p95 and mean
fault-stall seconds.

Run:  pytest benchmarks/test_async_sched.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.bench.async_sched import AsyncBenchConfig, cases
from repro.bench.runner import ratio, run_cases
from repro.bench.sweep import format_records


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_async_sched(benchmark, seed):
    results = benchmark.pedantic(
        lambda: run_cases("async_sched", cases(AsyncBenchConfig.quick(seed=seed))),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_records(list(results.values())))

    sync = results["sync"]
    async_ = results["async"]

    # same walk everywhere: the comparison is apples-to-apples
    assert sync["steps"] == async_["steps"]

    # acceptance bar: >=2x lower p95 fault stall on the async schedule
    assert ratio(sync, async_, "fault_stall_p95_s") >= 2.0
    assert ratio(sync, async_, "fault_stall_mean_s") >= 2.0

    # the speculation story must be real and honestly accounted: hits
    # landed, and the waste ratio is present in the report
    assert async_["sched_prefetch_issued"] > 0
    assert async_["sched_prefetch_hits"] > 0
    assert 0.0 <= async_["prefetch_waste_ratio"] <= 1.0

    # write-back and stale-drop traffic actually rode the channels
    assert async_["sched_writebacks"] > 0
    assert async_["sched_stale_drops"] > 0
