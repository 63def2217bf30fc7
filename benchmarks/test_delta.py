"""Delta swap-out benchmark — object-granular deltas + pipelined fan-out.

Runs the two delta scenarios (fastpath-full, delta) on identical
skewed-write workloads (~10% of each cluster's members rewritten per
cycle, replication factor 3 over simulated 700 Kbps Bluetooth links)
and asserts the acceptance bar: at least a 3x reduction in bytes carried
on the links *and* a 2x reduction in simulated swap-out phase cost.

Run:  pytest benchmarks/test_delta.py --benchmark-only
"""

from __future__ import annotations

from repro.bench.delta import DeltaBenchConfig, cases
from repro.bench.runner import ratio, run_cases
from repro.bench.sweep import format_records


def test_delta_swap(benchmark):
    results = benchmark.pedantic(
        lambda: run_cases("delta", cases(DeltaBenchConfig.quick())),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_records(list(results.values())))

    full = results["fastpath_full"]
    delta = results["delta"]

    # same amount of swapping everywhere: the comparison is apples-to-apples
    assert full["swap_outs"] == delta["swap_outs"]

    # acceptance bar: >=3x fewer bytes on the links and >=2x cheaper
    # simulated swap-out for the skewed-write workload
    assert ratio(full, delta, "bytes_on_link") >= 3.0
    assert ratio(full, delta, "swap_out_phase_mean_s") >= 2.0

    # after the first full ship, every dirty swap-out moves a delta:
    # cycles-1 delta cycles per cluster, no fallbacks, no compactions
    # (quick sizing keeps every chain within delta_max_chain)
    clusters = delta["swap_outs"] // delta["cycles"]
    assert delta["delta_ships"] == clusters * (delta["cycles"] - 1)
    assert delta["delta_fallbacks"] == 0
    assert delta["delta_compactions"] == 0
    # only the first cycle's full ships invoke the encoder
    assert delta["encode_calls"] == clusters
    # the fan-out actually pipelined: overlap saved simulated seconds
    assert delta["pipeline_transfers"] > 0
    assert delta["pipeline_saved_s"] > 0.0

    # the honesty check: with delta off nothing rides the delta path
    assert full["delta_ships"] == 0
    assert full["pipeline_transfers"] == 0
    assert full["encode_calls"] == full["swap_outs"]
