"""Swap hot-path benchmark: clean-cluster fast path vs always-re-encode.

Measures what the fast path (:mod:`repro.core.fastpath`) buys on the
paper's Bluetooth-class link for the common case — clusters that swap
out *unmodified* after their last cycle:

* ``baseline``          — fast path off: every swap-out re-encodes the
  cluster and ships the full payload;
* ``fastpath_clean``    — fast path on, clusters never mutated: after
  the first cycle every swap-out is a metadata-only no-op (or at worst a
  cached re-ship) and every swap-in is served from the payload cache;
* ``fastpath_mutating`` — fast path on, one member mutated before every
  swap-out: dirty tracking must force the full pipeline each time (the
  honesty check — invalidation is not free riding on stale payloads).

Reported per scenario: p50/p95 simulated swap-out and full-cycle cost,
bytes carried on the link, encoder invocations, and the fast-path
counters.  ``benchmarks/test_swap_hotpath.py`` asserts the floors on
the quick sizing; ``run_cases("hotpath", cases(HotPathConfig()))``
(:mod:`repro.bench.runner`) is the full-size run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List

from repro.bench.runner import Case, World, percentile, swappable_sids
from repro.bench.workloads import build_list
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.fastpath import FastPathConfig
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice


@dataclass
class HotPathConfig:
    objects: int = 1_000
    cluster_size: int = 50
    cycles: int = 20
    heap_capacity: int = 32 << 20
    store_capacity: int = 32 << 20

    @classmethod
    def quick(cls) -> "HotPathConfig":
        """CI smoke-test sizing (sub-second wall clock).

        Keeps the paper-scale 50-object clusters: with very small
        clusters the per-message link latency dominates both paths and
        the metadata-only no-op's advantage shrinks below its real value.
        """
        return cls(objects=400, cluster_size=50, cycles=8)


def _world(config: HotPathConfig, fastpath: bool) -> World:
    clock = SimulatedClock()
    space = Space("hotpath", heap_capacity=config.heap_capacity, clock=clock)
    link = bluetooth_link(clock)
    store = XmlStoreDevice("nearby", capacity=config.store_capacity, link=link)
    space.manager.add_store(store)
    space.ingest(
        build_list(config.objects),
        cluster_size=config.cluster_size,
        root_name="head",
    )
    if fastpath:
        space.manager.enable_fastpath(FastPathConfig())
    return World(space, [store], [link])


def _mutate_one(space: Space, sid: int) -> None:
    """Touch one member field through the write barrier (dirties the sid)."""
    cluster = space._clusters[sid]
    oid = min(cluster.oids)
    node = space._objects[oid]
    node.index = node.index + 1


def _run(world: World, config: HotPathConfig, mutate: bool) -> Dict[str, Any]:
    space, (link,) = world.space, world.links
    manager, clock = space.manager, space.clock
    sids = swappable_sids(space)
    swap_out_costs: List[float] = []
    cycle_costs: List[float] = []
    for _ in range(config.cycles):
        for sid in sids:
            if mutate:
                _mutate_one(space, sid)
            start = clock.now()
            manager.swap_out(sid)
            swap_out_costs.append(clock.now() - start)
            manager.swap_in(sid)
            cycle_costs.append(clock.now() - start)

    stats = manager.stats
    return {
        "cycles": config.cycles,
        "swap_outs": stats.swap_outs,
        "encode_calls": stats.encode_calls,
        "bytes_on_link": link.stats.bytes_carried,
        "link_seconds": link.stats.seconds_charged,
        "swap_out_p50_s": percentile(swap_out_costs, 0.50),
        "swap_out_p95_s": percentile(swap_out_costs, 0.95),
        "swap_out_mean_s": sum(swap_out_costs) / len(swap_out_costs),
        "cycle_p50_s": percentile(cycle_costs, 0.50),
        "cycle_p95_s": percentile(cycle_costs, 0.95),
        "fastpath_noops": stats.fastpath_noops,
        "fastpath_reships": stats.fastpath_reships,
        "swapin_cache_hits": stats.swapin_cache_hits,
    }


#: case name -> (fast path on, one member mutated before every swap-out)
PLANS = {
    "baseline": (False, False),
    "fastpath_clean": (True, False),
    "fastpath_mutating": (True, True),
}


def case(name: str, config: HotPathConfig) -> Case:
    fastpath, mutate = PLANS[name]
    return Case(
        name,
        partial(_world, config, fastpath),
        partial(_run, config=config, mutate=mutate),
    )


def cases(config: HotPathConfig) -> List[Case]:
    """The three scenarios, on identical workloads."""
    return [case(name, config) for name in PLANS]
