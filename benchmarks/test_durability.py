"""Durability benchmark — recovery cost after killing 1..k of n stores.

Swaps a workload out at ``replication_factor=3`` across five stores,
kills an increasing number of them with data loss, and measures the
scrubber's recovery: simulated seconds and payload bytes re-replicated
until full replication returns.  Asserts the acceptance bar: zero
clusters lost for every kill count below the replication factor.

Run:  pytest benchmarks/test_durability.py --benchmark-only
"""

from __future__ import annotations

from repro.bench.durability import DurabilityConfig, format_table, run_durability


def test_durability(benchmark):
    report = benchmark.pedantic(
        lambda: run_durability(DurabilityConfig.quick()), rounds=1, iterations=1
    )
    print()
    print(format_table(report))

    factor = report.config.replication_factor
    # the durability claim: any minority of store deaths loses nothing
    assert report.survives_minority_loss
    for kills, result in report.results.items():
        if kills < factor:
            # everything recovered AND re-replicated back to the target
            assert result.clusters_lost == 0
            assert result.fully_replicated == result.clusters
            # a store death loses only the replicas placed on it, and
            # repair restores exactly those
            assert result.replicas_lost > 0
            assert result.replicas_repaired == result.replicas_lost
            assert result.bytes_re_replicated > 0
            assert result.recovery_s > 0.0  # repair traffic is not free

    # recovery work scales with what was lost: two deaths re-ship more
    # than one (the bench's headline numbers stay meaningful)
    if 1 in report.results and 2 in report.results:
        assert (
            report.results[2].bytes_re_replicated
            > report.results[1].bytes_re_replicated
        )
