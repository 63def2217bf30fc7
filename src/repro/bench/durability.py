"""Durability benchmark: recovery cost after killing 1..k of n stores.

The replicated swap-out (:mod:`repro.resilience.placement`) claims that
``replication_factor`` copies across distinct stores make swapped
clusters survive store deaths.  This harness measures what that claim
costs: for each kill count it swaps a workload out at the configured
factor over ``stores`` nearby devices (each behind its own simulated
Bluetooth-class link), kills that many stores *with data loss*, and
drives the scrubber until the neighborhood is stable again — reporting

* **recovery time** — simulated seconds of scrub/repair traffic until
  replication is restored;
* **bytes re-replicated** — payload bytes the repair shipped;
* **clusters lost** — how many records had no surviving copy (must be
  zero while ``kills < replication_factor``);
* **replicas lost** — how many ``(sid, store)`` replicas the placement
  ledger held on the killed stores: a store death loses only the copies
  placed on it, so this, not ``kills * clusters``, is what repair must
  restore.

``benchmarks/test_durability.py`` asserts the floors on the quick
sizing; ``run_cases("durability", cases(DurabilityConfig()))`` is the
full-size run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List

from repro.bench.runner import Case, World, swappable_sids
from repro.bench.workloads import build_list
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.faults import FaultInjector, FaultPlan, FlakyStore
from repro.resilience import ResilienceConfig


@dataclass
class DurabilityConfig:
    objects: int = 600
    cluster_size: int = 50
    stores: int = 5
    replication_factor: int = 3
    max_kills: int = 4
    heap_capacity: int = 32 << 20
    store_capacity: int = 32 << 20

    @classmethod
    def quick(cls) -> "DurabilityConfig":
        """CI smoke-test sizing (sub-second wall clock)."""
        return cls(objects=200, cluster_size=50, max_kills=3)


def _world(config: DurabilityConfig, kills: int) -> World:
    clock = SimulatedClock()
    space = Space(
        f"durability-{kills}", heap_capacity=config.heap_capacity, clock=clock
    )
    injector = FaultInjector(FaultPlan.empty(seed=kills), clock)
    stores = [
        FlakyStore(
            XmlStoreDevice(
                f"s{i}", capacity=config.store_capacity, link=bluetooth_link(clock)
            ),
            injector,
        )
        for i in range(config.stores)
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
    return World(space, stores)


def _run(world: World, config: DurabilityConfig, kills: int) -> Dict[str, Any]:
    """Swap out, kill ``kills`` stores with their data, scrub to stable."""
    space, manager = world.space, world.space.manager
    space.ingest(
        build_list(config.objects),
        cluster_size=config.cluster_size,
        root_name="head",
    )
    sids = swappable_sids(space)
    for sid in sids:
        manager.swap_out(sid)

    placement = manager.resilience.placement
    victims = world.stores[:kills]
    killed = {store.device_id for store in victims}
    # a store death loses only the replicas placed on it
    replicas_lost = sum(
        1
        for record in placement.records().values()
        for device_id in record.active()
        if device_id in killed
    )
    for store in victims:
        store.kill(lose_data=True)
        manager.detach_store(store, dead=True)

    stats = manager.stats
    bytes_before = stats.scrub_bytes_repaired
    repairs_before = stats.replicas_repaired
    passes_before = stats.scrub_ticks
    started = space.clock.now()
    manager.resilience.scrubber.run_until_stable()
    records = placement.records().values()
    return {
        "kills": kills,
        "clusters": len(sids),
        "clusters_lost": sum(1 for record in records if record.live_count == 0),
        "recovery_s": space.clock.now() - started,
        "bytes_re_replicated": stats.scrub_bytes_repaired - bytes_before,
        "replicas_lost": replicas_lost,
        "replicas_repaired": stats.replicas_repaired - repairs_before,
        "scrub_passes": stats.scrub_ticks - passes_before,
        # clusters back at the target factor
        "fully_replicated": sum(
            1
            for record in records
            if record.live_count >= config.replication_factor
        ),
    }


def cases(config: DurabilityConfig) -> List[Case]:
    """One case per kill count, 1 to ``max_kills`` (at most ``stores - 1``)."""
    top = min(config.max_kills, config.stores - 1)
    return [
        Case(
            f"kills={kills}",
            partial(_world, config, kills),
            partial(_run, config=config, kills=kills),
        )
        for kills in range(1, top + 1)
    ]
