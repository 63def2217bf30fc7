"""Topology benchmark: sharded placement at fleet scale, under churn.

Two layers exercise the :mod:`repro.topology` service:

* **Scale layer** — hundreds of :class:`~repro.devices.store.
  XmlStoreDevice` stores across tens of cells, with ~a million cluster
  keys registered through the real observer hooks (synthetically: the
  keys are routed and refcounted exactly as real swap-outs would be,
  without paying for a million XML serialisations).  Measures that shard
  lookups stay O(1) as the key population grows, that no single full
  cell death can lose a cluster (every shard's holders span ≥ 2 cells),
  the wall cost of reparenting when whole cells die, and the cost of a
  rebalance/rebuild sweep.
* **Integration layer** — a small real fleet with real ingested chains:
  kill each cell in turn via the churn injector, let ``tick`` reparent
  and the scrubber re-replicate, and verify every cluster swaps back in.

``benchmarks/test_topology.py`` asserts the floors on the quick sizing
at seeds 0-3.  The scale layer is :func:`run_scale`; the integration
layer is ``run_cases("topology", cases(config))``
(:mod:`repro.bench.runner`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Tuple

from repro.bench.runner import Case, World, swappable_sids
from repro.bench.workloads import build_list
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.faults import ChurnEvent, ChurnInjector, ChurnPlan, FaultInjector, FaultPlan, FlakyStore
from repro.resilience import ResilienceConfig


@dataclass
class TopologyBenchConfig:
    # scale layer
    cells: int = 30
    stores_per_cell: int = 10
    shards: int = 128
    keys: int = 1_000_000
    replication_factor: int = 3
    lookup_samples: int = 200_000
    churn_cells: int = 5  # cells killed+healed in the churn sweep
    # integration layer
    it_cells: int = 3
    it_stores_per_cell: int = 3
    it_shards: int = 8
    it_objects: int = 240
    it_cluster_size: int = 20
    heap_capacity: int = 32 << 20
    store_capacity: int = 32 << 20
    #: Seed for the per-scenario fault injectors.
    seed: int = 0

    @classmethod
    def quick(cls) -> "TopologyBenchConfig":
        """CI smoke-test sizing (a few seconds wall clock)."""
        return cls(
            cells=12,
            stores_per_cell=5,
            shards=32,
            keys=50_000,
            lookup_samples=20_000,
            churn_cells=3,
            it_objects=120,
        )


class _SyntheticRecord:
    """The two fields the observer hooks read from a placement record."""

    __slots__ = ("sid", "replicas")

    def __init__(self, sid: int, replicas: Tuple[str, ...]) -> None:
        self.sid = sid
        self.replicas = replicas


def _scale_fleet(config: TopologyBenchConfig):
    clock = SimulatedClock()
    space = Space("topo-bench", heap_capacity=config.heap_capacity, clock=clock)
    injector = FaultInjector(FaultPlan.empty(), clock)
    by_cell: Dict[str, List[FlakyStore]] = {}
    for cell in range(config.cells):
        cell_name = f"cell-{cell:03d}"
        members = []
        for i in range(config.stores_per_cell):
            store = FlakyStore(
                XmlStoreDevice(
                    f"c{cell:03d}s{i:02d}",
                    capacity=config.store_capacity,
                    placement_group=cell_name,
                ),
                injector,
            )
            members.append(store)
            space.manager.add_store(store)
        by_cell[cell_name] = members
    space.manager.enable_resilience(
        ResilienceConfig(
            replication_factor=config.replication_factor,
            degrade_to_local=False,
        )
    )
    topology = space.manager.enable_topology(shards=config.shards)
    return space, topology, by_cell


def _register_keys(topology, start: int, count: int) -> None:
    """Route ``count`` sids through the real observer hook."""
    holders_of = {
        record.shard_id: tuple(record.holders())
        for record in topology.shard_table.records()
    }
    for sid in range(start, start + count):
        shard_id = topology.shard_of(sid)
        topology.on_record_swap_out(
            _SyntheticRecord(sid, holders_of[shard_id])
        )


def _time_lookups(topology, keys: int, samples: int) -> float:
    """ns per full route: hash the sid, fetch the shard, list holders."""
    table = topology.shard_table
    step = max(1, keys // samples)
    sids = list(range(0, keys, step))[:samples]
    started = time.perf_counter()
    for sid in sids:
        table.record_for(sid).holders()
    elapsed = time.perf_counter() - started
    return elapsed / max(1, len(sids)) * 1e9


def _lost_by_cell(topology, shard_sid_counts: Dict[int, int]) -> int:
    """Worst case over cells: sids whose every holder lives in that cell."""
    worst = 0
    for cell_name in topology.cells():
        lost = 0
        for record in topology.shard_table.records():
            holders = record.holders()
            if holders and all(
                topology.cell_of(holder) == cell_name for holder in holders
            ):
                lost += shard_sid_counts.get(record.shard_id, 0)
        worst = max(worst, lost)
    return worst


def run_scale(config: TopologyBenchConfig) -> Dict[str, Any]:
    """The scale layer: routing and churn numbers over a synthetic key
    population (its wall-clock metrics are host-dependent)."""
    space, topology, by_cell = _scale_fleet(config)

    # registration: 1% first (small-population lookup baseline), then
    # the rest, through the same hooks real swap-outs drive
    small = max(1, config.keys // 100)
    started = time.perf_counter()
    _register_keys(topology, 0, small)
    lookup_ns_small = _time_lookups(topology, small, config.lookup_samples)
    _register_keys(topology, small, config.keys - small)
    register_s = time.perf_counter() - started
    lookup_ns_full = _time_lookups(topology, config.keys, config.lookup_samples)
    ratio = lookup_ns_full / lookup_ns_small if lookup_ns_small else 1.0

    shard_sid_counts: Dict[int, int] = {}
    for sid in range(config.keys):
        shard_id = topology.shard_of(sid)
        shard_sid_counts[shard_id] = shard_sid_counts.get(shard_id, 0) + 1
    worst_lost = _lost_by_cell(topology, shard_sid_counts)

    # churn sweep: kill whole cells one at a time, time the detection +
    # reparent pass, heal, move on
    reparents = 0
    reparent_wall_s = 0.0
    killed = 0
    cell_names = sorted(by_cell)[: config.churn_cells]
    for cell_name in cell_names:
        for store in by_cell[cell_name]:
            store.kill()
        started = time.perf_counter()
        reparented = topology.tick()
        reparent_wall_s += time.perf_counter() - started
        reparents += len(reparented)
        killed += 1
        for store in by_cell[cell_name]:
            store.revive()
        topology.tick()  # cell recovers before the next kill

    # rebalance cost: permanently lose one cell, respread, count moves
    lost_cell = cell_names[0]
    for store in by_cell[lost_cell]:
        store.kill()
    topology.tick()
    before = {
        record.shard_id: set(record.holders())
        for record in topology.shard_table.records()
    }
    started = time.perf_counter()
    topology.rebalance()
    rebalance_wall_ms = (time.perf_counter() - started) * 1e3
    moves = sum(
        len(set(record.holders()) ^ before[record.shard_id])
        for record in topology.shard_table.records()
    )

    started = time.perf_counter()
    rebuild = topology.rebuild()
    rebuild_wall_ms = (time.perf_counter() - started) * 1e3

    return {
        "stores": config.cells * config.stores_per_cell,
        "cells": config.cells,
        "shards": config.shards,
        "keys": config.keys,
        "register_s": register_s,
        # ns per shard lookup with 1% of keys registered vs all of them:
        # the ratio is the O(1) claim (a per-key index would scale ~100x)
        "lookup_ns_small": lookup_ns_small,
        "lookup_ns_full": lookup_ns_full,
        "lookup_ratio": ratio,
        # worst case over every cell: clusters with no holder outside it
        "worst_cell_lost_clusters": worst_lost,
        "cells_killed": killed,
        "reparents": reparents,
        "reparent_wall_ms_mean": (
            reparent_wall_s / reparents * 1e3 if reparents else 0.0
        ),
        # simulated, from TopologyStats
        "reparent_latency_s_total": topology.stats.total_reparent_latency_s,
        "rebalance_moves": moves,
        "rebalance_wall_ms": rebalance_wall_ms,
        "rebuild_wall_ms": rebuild_wall_ms,
        "rebuild_inventory_replicas": rebuild["inventory_replicas"],
    }


def _cell_world(config: TopologyBenchConfig, victim: int) -> World:
    clock = SimulatedClock()
    space = Space(
        f"topo-it-{victim}", heap_capacity=config.heap_capacity, clock=clock
    )
    stores = [
        FlakyStore(
            XmlStoreDevice(
                f"c{cell}s{i}",
                capacity=config.store_capacity,
                placement_group=f"cell-{cell}",
                link=bluetooth_link(clock),
            ),
            FaultInjector(
                FaultPlan.empty(seed=config.seed * 1000 + victim), clock
            ),
        )
        for cell in range(config.it_cells)
        for i in range(config.it_stores_per_cell)
    ]
    for store in stores:
        space.manager.add_store(store)
    space.manager.enable_resilience(
        ResilienceConfig(
            replication_factor=config.replication_factor,
            degrade_to_local=False,
            scrub_interval_s=1.0,
        )
    )
    space.manager.enable_topology(shards=config.it_shards)
    return World(space, stores)


def _cell_kill(
    world: World, config: TopologyBenchConfig, victim: int
) -> Dict[str, Any]:
    """Swap out, kill cell ``victim`` with its data, recover, swap in."""
    space, manager = world.space, world.space.manager
    topology = manager.topology
    space.ingest(
        build_list(config.it_objects),
        cluster_size=config.it_cluster_size,
        root_name="head",
    )
    sids = swappable_sids(space)
    for sid in sids:
        manager.swap_out(sid)

    cell_name = f"cell-{victim}"
    plan = ChurnPlan(
        events=(ChurnEvent(0.0, "", "kill_cell", cell=cell_name, lose_data=True),)
    )
    stores = {store.device_id: store for store in world.stores}
    ChurnInjector(plan, space.clock).apply(stores)
    reparents_before = topology.stats.reparents
    repairs_before = topology.stats.repair_replicas
    started = space.clock.now()
    # the fleet notices the dead cell: detach strikes its replicas from
    # the ledger (kill alone leaves them ACTIVE-but-unreachable) and
    # lets tick + scrub do the real recovery work
    for store in world.stores:
        if store.placement_group == cell_name:
            manager.detach_store(store, dead=True)
    topology.tick()
    manager.resilience.scrubber.run_until_stable()
    recovery_s = space.clock.now() - started

    records = manager.resilience.placement.records().values()
    lost = sum(1 for record in records if record.live_count == 0)
    # clusters back at the target factor
    full = sum(
        1 for record in records if record.live_count >= config.replication_factor
    )
    swapped_in = 0
    for sid in sids:
        try:
            manager.swap_in(sid)
            swapped_in += 1
        except Exception:
            pass
    return {
        "cell": cell_name,
        "clusters": len(sids),
        "clusters_lost": lost,
        "reparents": topology.stats.reparents - reparents_before,
        "recovery_s": recovery_s,
        "replicas_repaired": topology.stats.repair_replicas - repairs_before,
        "fully_replicated": full,
        "swap_in_ok": swapped_in,
    }


def cases(config: TopologyBenchConfig) -> List[Case]:
    """The integration layer, as cases: one per cell killed."""
    return [
        Case(
            f"cell-{victim}",
            partial(_cell_world, config, victim),
            partial(_cell_kill, config=config, victim=victim),
        )
        for victim in range(config.it_cells)
    ]
