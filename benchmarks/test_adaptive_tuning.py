"""Ablation D — adaptive swap-cluster tuning (extension).

The paper fixes the swap-cluster grouping at replication time; the
:class:`~repro.policy.AdaptiveTuner` adapts it at runtime from the
crossing statistics the proxies already record.  This bench measures the
payoff on an A1-style recursive traversal (mediated only at boundaries,
like application code running inside clusters): before tuning the walk
crosses ~objects/cluster_size proxies; after the tuner merges the hot
boundaries away, it crosses almost none.

(A root-cursor iteration would show no payoff by construction — every
step is mediated by the swap-cluster-0 variable's proxy no matter how
clusters are grouped; that case is what ``assign()`` is for.)

Run:  pytest benchmarks/test_adaptive_tuning.py --benchmark-only
"""

from __future__ import annotations

import time

from repro.bench.deepcall import run_deep
from repro.bench.workloads import build_list
from repro.core.space import Space
from repro.devices.store import InMemoryStore
from repro.policy.tuning import AdaptiveTuner

OBJECTS = 5_000
CLUSTER_SIZE = 20


def _fixture():
    space = Space("bench", heap_capacity=8 << 20)
    space.manager.add_store(InMemoryStore("store"))
    space.manager.auto_swap = False
    handle = space.ingest(
        build_list(OBJECTS), cluster_size=CLUSTER_SIZE, root_name="h"
    )
    return space, handle


def _walk(handle):
    depth = run_deep(lambda: handle.depth(1))
    assert depth == OBJECTS


def _converge(space, handle, tuner, max_rounds=600):
    """Walk to heat the statistics, stepping the tuner until it settles
    (two consecutive idle decisions)."""
    idle = 0
    for _ in range(max_rounds):
        for _ in range(6):
            _walk(handle)
        decision = tuner.step()
        idle = idle + 1 if decision.action == "none" else 0
        if idle >= 2:
            break


def test_traversal_before_tuning(benchmark):
    space, handle = _fixture()
    benchmark.extra_info["clusters"] = len(space.clusters()) - 1
    benchmark.pedantic(lambda: _walk(handle), rounds=3, iterations=1, warmup_rounds=1)


def test_traversal_after_tuning(benchmark):
    space, handle = _fixture()
    tuner = AdaptiveTuner(
        space, hot_crossings=5, max_cluster_objects=OBJECTS, cooldown_ticks=0
    )
    _converge(space, handle, tuner)
    benchmark.extra_info["clusters"] = len(space.clusters()) - 1
    benchmark.pedantic(lambda: _walk(handle), rounds=3, iterations=1, warmup_rounds=1)
    space.verify_integrity()


def test_tuning_payoff(benchmark):
    def timed_walks(handles, rounds=5):
        # best-of-n per graph, the graphs' walks interleaved so that a
        # slow phase of the host hits every graph alike; timed INSIDE the
        # big-stack thread so the thread spawn cost (comparable to the
        # ~1 ms walk itself) stays out of the measurement
        def body():
            best = [float("inf")] * len(handles)
            for _ in range(rounds):
                for index, handle in enumerate(handles):
                    started = time.perf_counter()
                    depth = handle.depth(1)
                    best[index] = min(best[index], time.perf_counter() - started)
                    assert depth == OBJECTS
            return best

        return run_deep(body)

    def measure():
        # two copies of the graph side by side: one left as ingested,
        # one tuned
        untuned_space, untuned = _fixture()
        space, handle = _fixture()
        clusters_before = len(untuned_space.clusters()) - 1

        tuner = AdaptiveTuner(
            space, hot_crossings=5, max_cluster_objects=OBJECTS, cooldown_ticks=0
        )
        _converge(space, handle, tuner)
        clusters_after = len(space.clusters()) - 1
        before, after = timed_walks((untuned, handle))

        # deterministic mediation count: crossings recorded by one walk
        crossings_before_walk = sum(
            cluster.crossings for cluster in space.clusters().values()
        )
        _walk(handle)
        mediations_per_walk = sum(
            cluster.crossings for cluster in space.clusters().values()
        ) - crossings_before_walk
        space.verify_integrity()
        untuned_space.verify_integrity()
        return before, after, clusters_before, clusters_after, mediations_per_walk

    (
        before,
        after,
        clusters_before,
        clusters_after,
        mediations_per_walk,
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nhot traversal: {before*1000:.2f} ms over {clusters_before} "
          f"clusters -> {after*1000:.2f} ms over {clusters_after} clusters")
    # deterministic claim: the boundaries (and their mediation) are gone
    assert clusters_after < clusters_before
    print(f"mediated calls per walk after tuning: {mediations_per_walk} "
          f"(was ~{clusters_before})")
    assert mediations_per_walk <= clusters_after + 1
    # timing claim, loose: at sc=20 the A1-style boundary component is
    # ~15-20% of the walk (250 crossings x the fitted ~0.7 us), so the
    # tuned walk must be measurably cheaper — but a strict ratio would
    # just re-test scheduler noise at the ~0.1 ms scale
    assert after < before * 0.95
    saving_per_boundary_us = (before - after) * 1e6 / max(
        1, clusters_before - clusters_after
    )
    print(f"saving per removed boundary: {saving_per_boundary_us:.2f} us")
    assert 0.05 < saving_per_boundary_us < 20.0
