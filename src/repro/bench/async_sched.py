"""Async swap-scheduler benchmark: fetch-bound pointer chase.

Measures what event-driven scheduling (:mod:`repro.core.sched`) buys on
the post-PR-5 bottleneck — fault *latency*, not payload bytes — with a
workload built to be fetch-bound: a ring of blob-carrying nodes walked
through swap-cluster proxies, with seeded forward jumps, over a heap
sized so only a handful of clusters fit at once.  Every few steps the
walk crosses into a swapped cluster: a demand fetch plus (rf = 3) victim
re-ships per fault, against five Bluetooth-class stores.

Two scenarios on byte-identical workloads:

* ``sync``   — the blocking fault path (no scheduler): every fault
  stalls for the victim ships *and* the demand fetch, serially;
* ``async``  — the scheduler with one channel per store and prefetching
  on: victim write-back overlaps in-flight fetches, and the prefetcher
  keeps the next clusters warm, so the residual stall is the slice of
  demand-transfer time nothing else could hide.

Headline: p95 fault-stall reduction (simulated seconds an access was
blocked on a reload), with the prefetch waste ratio and overlap ratio
reported alongside.  ``benchmarks/test_async_sched.py`` asserts the
≥ 2x floor on the quick sizing at seeds 1-3;
``run_cases("async_sched", cases(AsyncBenchConfig()))`` is the full-size
run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional

from repro.bench.runner import Case, World, percentile, swappable_sids
from repro.bench.workloads import blob
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.sched import SchedStats
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.runtime.obicomp import managed


@managed(size=192)
class ChaseNode:
    """A ring element carrying content plus two outbound edges: ``next``
    (the ring) and ``alt`` (a seeded forward jump a few clusters ahead).
    The jumps keep the reference graph honest — prediction cannot just
    memorize one successor per cluster."""

    def __init__(self, index: int, blob: str) -> None:
        self.index = index
        self.blob = blob
        self.next: Optional["ChaseNode"] = None
        self.alt: Optional["ChaseNode"] = None


def build_ring(n: int, blob_bytes: int, seed: int) -> ChaseNode:
    """A closed ring of ``n`` nodes with seeded forward ``alt`` jumps.

    The ring means the chase never needs to re-enter through a raw head
    reference — every step moves proxy-to-proxy, so every cluster
    crossing goes through the fault path.
    """
    rng = random.Random(seed)
    nodes = [ChaseNode(index, blob(index, seed, blob_bytes)) for index in range(n)]
    for left, right in zip(nodes, nodes[1:]):
        left.next = right
    nodes[-1].next = nodes[0]
    for index, node in enumerate(nodes):
        node.alt = nodes[(index + rng.randrange(5, 25)) % n]
    return nodes[0]


@dataclass
class AsyncBenchConfig:
    objects: int = 400
    cluster_size: int = 5
    #: proxy-crossing steps of the pointer chase
    steps: int = 600
    #: fraction of steps that take the ``alt`` jump instead of ``next``
    jump_fraction: float = 0.15
    #: incompressible payload per node
    blob_bytes: int = 96
    stores: int = 5
    replication_factor: int = 3
    #: async scenario: transfer channels (one per store by default)
    channels: int = 5
    prefetch_depth: int = 4
    #: clusters that fit in the clamped heap during the chase — small
    #: enough that the walk continuously faults *and* evicts
    resident_clusters: int = 4
    seed: int = 1
    store_capacity: int = 32 << 20

    @classmethod
    def quick(cls, seed: int = 1) -> "AsyncBenchConfig":
        """CI smoke-test sizing (a few seconds of wall clock)."""
        return cls(objects=240, cluster_size=4, steps=300, seed=seed)


def _world(config: AsyncBenchConfig) -> World:
    """Space + stores + fully swapped-out ring, identical per scenario.

    The prep phase runs entirely on the blocking path (the scheduler, when
    a scenario uses one, is enabled only after), so every scenario
    starts the chase from the same simulated instant and store state.
    Resilience is on so placement spreads replicas across all five
    stores — without the spread every cluster would land on the same
    first-fit three and the fleet's parallelism would be fiction.
    """
    clock = SimulatedClock()
    space = Space("chase", heap_capacity=64 << 20, clock=clock)
    manager = space.manager
    manager.enable_resilience()
    manager.replication_factor = config.replication_factor
    links = [
        bluetooth_link(clock, name=f"bt-{index}") for index in range(config.stores)
    ]
    stores = [
        XmlStoreDevice(f"peer-{index}", capacity=config.store_capacity, link=link)
        for index, link in enumerate(links)
    ]
    for store in stores:
        manager.add_store(store)
    space.ingest(
        build_ring(config.objects, config.blob_bytes, config.seed),
        cluster_size=config.cluster_size,
        root_name="head",
    )
    for sid in swappable_sids(space):
        manager.swap_out(sid)
    # clamp the heap so only ~resident_clusters fit during the chase:
    # every few crossings must evict a victim (write-back) AND fetch
    space.heap.capacity = space.heap.used + int(
        config.resident_clusters * config.cluster_size * 192 * 1.5
    )
    return World(space, stores, links)


def _chase_plan(config: AsyncBenchConfig) -> List[bool]:
    """The seeded step plan (True = take the ``alt`` jump), shared by
    every scenario so the access pattern is byte-identical."""
    rng = random.Random(config.seed + 1)
    return [rng.random() < config.jump_fraction for _ in range(config.steps)]


def _run(
    world: World, config: AsyncBenchConfig, channels: Optional[int]
) -> Dict[str, Any]:
    """One chase.  ``channels=None`` means no scheduler (blocking path);
    otherwise the scheduler prefetches."""
    space, links = world.space, world.links
    manager, clock = space.manager, space.clock
    sched = None
    if channels is not None:
        sched = manager.enable_async_scheduler(
            channels=channels,
            prefetch=True,
            prefetch_depth=config.prefetch_depth,
        )

    node: Any = space.roots()["head"]
    stalls: List[float] = []
    for jump in _chase_plan(config):
        before = clock.now()
        faults_before = manager.stats.swap_ins
        _ = node.index  # the proxy fault, if the cluster is swapped
        if manager.stats.swap_ins > faults_before:
            stalls.append(clock.now() - before)
        node = node.alt if jump else node.next
    if sched is not None:
        sched.drain()

    stats = manager.stats
    sstats = sched.stats if sched is not None else SchedStats()  # zeros
    return {
        "steps": config.steps,
        "faults": len(stalls),
        "swap_outs": stats.swap_outs,
        "fault_stall_mean_s": (sum(stalls) / len(stalls)) if stalls else 0.0,
        "fault_stall_p50_s": percentile(stalls, 0.50),
        "fault_stall_p95_s": percentile(stalls, 0.95),
        "fault_stall_total_s": sum(stalls),
        "sim_clock_s": clock.now(),
        "bytes_on_link": sum(link.stats.bytes_carried for link in links),
        "link_seconds": sum(link.stats.seconds_charged for link in links),
        "sched_demand_fetches": sstats.demand_fetches,
        "sched_prefetch_issued": sstats.prefetch_issued,
        "sched_prefetch_hits": sstats.prefetch_hits,
        "sched_prefetch_waste": sstats.prefetch_waste,
        "sched_prefetch_cancelled": sstats.prefetch_cancelled,
        "sched_prefetch_preempted": sstats.prefetch_preempted,
        "sched_writebacks": sstats.writebacks,
        "sched_stale_drops": sstats.stale_drops,
        "sched_max_queue_depth": sstats.max_queue_depth,
        "sched_stall_saved_s": sstats.stall_saved_s,
        "sched_backpressure_stall_s": sstats.backpressure_stall_s,
        "sched_overlap_ratio": (
            sched.overlap_ratio() if sched is not None else 0.0
        ),
        "prefetch_waste_ratio": sstats.waste_ratio,
    }


def cases(config: AsyncBenchConfig) -> List[Case]:
    """The blocking path vs the scheduler, on byte-identical chases."""
    world = partial(_world, config)
    return [
        Case("sync", world, partial(_run, config=config, channels=None)),
        Case("async", world, partial(_run, config=config, channels=config.channels)),
    ]
