"""Swap hot-path benchmark — clean-cluster fast path vs always-re-encode.

Runs the three hot-path scenarios (baseline, fastpath-clean,
fastpath-mutating) on identical workloads over the simulated 700 Kbps
Bluetooth link and asserts the acceptance bar: at least a 2x reduction
in simulated swap-out cost *and* encoder invocations for unmodified
clusters.

Run:  pytest benchmarks/test_swap_hotpath.py --benchmark-only
"""

from __future__ import annotations

from repro.bench.hotpath import HotPathConfig, cases
from repro.bench.runner import ratio, run_cases
from repro.bench.sweep import format_records


def test_swap_hotpath(benchmark):
    results = benchmark.pedantic(
        lambda: run_cases("hotpath", cases(HotPathConfig.quick())),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_records(list(results.values())))

    baseline = results["baseline"]
    clean = results["fastpath_clean"]
    mutating = results["fastpath_mutating"]

    # same amount of swapping everywhere: the comparison is apples-to-apples
    assert baseline["swap_outs"] == clean["swap_outs"] == mutating["swap_outs"]

    # acceptance bar: >=2x cheaper simulated swap-out and >=2x fewer
    # encoder invocations for unmodified clusters
    assert ratio(baseline, clean, "swap_out_mean_s") >= 2.0
    assert ratio(baseline, clean, "encode_calls") >= 2.0
    # the payload should leave the device rarely once clusters are clean
    assert ratio(baseline, clean, "bytes_on_link") >= 2.0

    # after the first cycle every clean swap-out is a metadata-only no-op
    assert clean["fastpath_noops"] == clean["swap_outs"] - clean["encode_calls"]
    # every clean swap-in is served from the local payload cache
    assert clean["swapin_cache_hits"] == clean["swap_outs"]

    # the honesty check: mutation invalidates the fast path every cycle
    assert mutating["fastpath_noops"] == 0
    assert mutating["encode_calls"] == mutating["swap_outs"]
