"""Topology benchmark — sharded placement at fleet scale, under churn.

Registers tens of thousands of cluster keys over a 60-store / 12-cell
fleet through the real observer hooks, kills whole cells, and measures
shard lookup cost, reparent latency, rebalance cost, and the headline
claim: losing any one full cell loses zero clusters.  Runs at fault
seeds 0 to 3.

Run:  pytest benchmarks/test_topology.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.bench.runner import run_cases
from repro.bench.sweep import format_records
from repro.bench.topology import TopologyBenchConfig, cases, run_scale


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_topology(benchmark, seed):
    config = TopologyBenchConfig.quick()
    config.seed = seed
    scale, integration = benchmark.pedantic(
        lambda: (run_scale(config), run_cases("topology", cases(config))),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_records([scale]))
    print(format_records(list(integration.values())))

    # routing stays O(1) as the key population grows 100x
    assert scale["lookup_ratio"] < 3.0
    # every shard's holders span cells: no single cell owns any cluster
    assert scale["worst_cell_lost_clusters"] == 0
    # the churn sweep actually reparented, and cheaply
    assert scale["reparents"] > 0
    assert scale["reparent_wall_ms_mean"] < 100.0
    assert scale["rebalance_moves"] > 0

    # real-data layer: every cell death recovered with nothing lost
    assert len(integration) == config.it_cells
    for result in integration.values():
        assert result["clusters_lost"] == 0
        assert result["swap_in_ok"] == result["clusters"]
        assert result["reparents"] > 0
        assert result["replicas_repaired"] > 0
        assert result["fully_replicated"] == result["clusters"]  # back at full rf
        assert result["recovery_s"] > 0.0  # repair traffic is not free
    # zero loss on any full cell death, at scale and with real data
    assert scale["worst_cell_lost_clusters"] == 0 and all(
        result["clusters_lost"] == 0 for result in integration.values()
    )
