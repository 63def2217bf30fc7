"""Durability benchmark — recovery cost after killing 1..k of n stores.

Swaps a workload out at ``replication_factor=3`` across five stores,
kills an increasing number of them with data loss, and measures the
scrubber's recovery: simulated seconds and payload bytes re-replicated
until full replication returns.  Asserts the acceptance bar: zero
clusters lost for every kill count below the replication factor.

Run:  pytest benchmarks/test_durability.py --benchmark-only
"""

from __future__ import annotations

from repro.bench.durability import DurabilityConfig, cases
from repro.bench.runner import run_cases
from repro.bench.sweep import format_records


def test_durability(benchmark):
    config = DurabilityConfig.quick()
    results = benchmark.pedantic(
        lambda: run_cases("durability", cases(config)), rounds=1, iterations=1
    )
    print()
    print(format_records(list(results.values())))

    factor = config.replication_factor
    by_kills = {result["kills"]: result for result in results.values()}
    # the durability claim: any minority of store deaths loses nothing
    assert all(
        result["clusters_lost"] == 0
        for kills, result in by_kills.items()
        if kills < factor
    )
    for kills, result in by_kills.items():
        if kills < factor:
            # everything recovered AND re-replicated back to the target
            assert result["clusters_lost"] == 0
            assert result["fully_replicated"] == result["clusters"]
            # a store death loses only the replicas placed on it, and
            # repair restores exactly those
            assert result["replicas_lost"] > 0
            assert result["replicas_repaired"] == result["replicas_lost"]
            assert result["bytes_re_replicated"] > 0
            assert result["recovery_s"] > 0.0  # repair traffic is not free

    # recovery work scales with what was lost: two deaths re-ship more
    # than one (the bench's headline numbers stay meaningful)
    if 1 in by_kills and 2 in by_kills:
        assert (
            by_kills[2]["bytes_re_replicated"]
            > by_kills[1]["bytes_re_replicated"]
        )
