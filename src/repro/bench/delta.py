"""Delta swap-out benchmark: object-granular deltas + pipelined fan-out.

Measures what delta shipping (:mod:`repro.wire.delta`) and the async
scheduler's transfer channels (:mod:`repro.core.sched`) buy on a
skewed-write workload — the paper's common case where a working set
mutates a small fraction of each cluster between swap cycles:

* ``fastpath_full`` — the PR 2 fast path exactly as shipped: dirty
  clusters re-encode and ship the *full* payload to every replica,
  serially, each cycle;
* ``delta``         — delta shipping on (``delta=True``) plus the async
  scheduler with three channels and no speculation
  (``enable_async_scheduler(channels=3, prefetch=False)``): after the
  first full ship, each cycle moves only the dirtied objects (plus
  tombstones), and the replica fan-out overlaps on independent channels.

Both scenarios dirty the same ~10% of each cluster's members per cycle
and replicate to the same ``replication_factor`` stores, so the
comparison is apples-to-apples.  Reported per scenario: per-cycle
simulated swap-out phase cost (the phase ends at ``sched.drain()``,
so pipelined transfers are fully paid inside the measured window),
bytes carried across every link, and the delta/pipeline counters.
``benchmarks/test_delta.py`` asserts the floors on the quick sizing;
``run_cases("delta", cases(DeltaBenchConfig()))`` is the full-size run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional

from repro.bench.runner import Case, World, percentile, swappable_sids
from repro.bench.workloads import blob
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.fastpath import FastPathConfig
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.runtime.obicomp import managed


@managed(size=192)
class BlobNode:
    """A list element that actually carries state: a 64-byte header's
    worth of links plus an incompressible payload blob.  The quasi-empty
    :class:`~repro.bench.workloads.BenchNode` is right for overhead
    micro-benchmarks but wrong here — delta shipping's win is moving
    *content* selectively, so the workload must have content to move."""

    def __init__(self, index: int, blob: str) -> None:
        self.index = index
        self.blob = blob
        self.next: Optional["BlobNode"] = None


def build_blob_list(n: int, blob_bytes: int) -> BlobNode:
    head = BlobNode(0, blob(0, -1, blob_bytes))
    node = head
    for index in range(1, n):
        node.next = BlobNode(index, blob(index, -1, blob_bytes))
        node = node.next
    return head


@dataclass
class DeltaBenchConfig:
    objects: int = 1_000
    cluster_size: int = 50
    cycles: int = 20
    #: Fraction of each cluster's members written per cycle (rotating
    #: window, so successive cycles dirty different objects).
    dirty_fraction: float = 0.10
    #: Incompressible payload per object; a write replaces it.
    blob_bytes: int = 128
    stores: int = 5
    replication_factor: int = 3
    #: async-scheduler transfer channels of the ``delta`` scenario
    channels: int = 3
    heap_capacity: int = 32 << 20
    store_capacity: int = 32 << 20

    @classmethod
    def quick(cls) -> "DeltaBenchConfig":
        """CI smoke-test sizing (sub-second wall clock).

        Eight cycles keep the whole run on one delta chain
        (``delta_max_chain`` defaults to 8): one full ship, seven
        deltas, no compaction — the steady-state picture.
        """
        return cls(objects=400, cluster_size=50, cycles=8)


def _world(config: DeltaBenchConfig, delta: bool) -> World:
    clock = SimulatedClock()
    space = Space("delta", heap_capacity=config.heap_capacity, clock=clock)
    links = [bluetooth_link(clock) for _ in range(config.stores)]
    stores = [
        XmlStoreDevice(f"peer-{index}", capacity=config.store_capacity, link=link)
        for index, link in enumerate(links)
    ]
    for store in stores:
        space.manager.add_store(store)
    space.manager.replication_factor = config.replication_factor
    space.ingest(
        build_blob_list(config.objects, config.blob_bytes),
        cluster_size=config.cluster_size,
        root_name="head",
    )
    space.manager.enable_fastpath(FastPathConfig(delta=delta))
    if delta:
        space.manager.enable_async_scheduler(
            channels=config.channels, prefetch=False
        )
    return World(space, stores, links)


def _mutate_fraction(
    space: Space, sid: int, cycle: int, config: DeltaBenchConfig
) -> None:
    """Rewrite a rotating ~``dirty_fraction`` window of the cluster's
    members (fresh blob content, bumped counter).

    Every write goes through the write barrier, so with delta enabled
    the cluster's dirty set names exactly these objects.
    """
    cluster = space._clusters[sid]
    oids = sorted(cluster.oids)
    count = max(1, int(round(len(oids) * config.dirty_fraction)))
    start = (cycle * count) % len(oids)
    for step in range(count):
        oid = oids[(start + step) % len(oids)]
        node = space._objects[oid]
        node.index = node.index + 1
        node.blob = blob(oid, cycle, config.blob_bytes)


def _run(world: World, config: DeltaBenchConfig) -> Dict[str, Any]:
    space, links = world.space, world.links
    manager, clock, sched = space.manager, space.clock, space.manager.sched
    sids = swappable_sids(space)
    phase_costs: List[float] = []
    for cycle in range(config.cycles):
        for sid in sids:
            _mutate_fraction(space, sid, cycle, config)
        start = clock.now()
        for sid in sids:
            manager.swap_out(sid)
        if sched is not None:
            sched.drain()
        phase_costs.append(clock.now() - start)
        for sid in sids:
            manager.swap_in(sid)

    stats = manager.stats
    pipeline = sched.transfers.stats if sched is not None else None
    return {
        "cycles": config.cycles,
        "swap_outs": stats.swap_outs,
        "encode_calls": stats.encode_calls,
        "bytes_on_link": sum(link.stats.bytes_carried for link in links),
        "link_seconds": sum(link.stats.seconds_charged for link in links),
        # one full swap-out phase (all clusters out, scheduler drained)
        "swap_out_phase_mean_s": sum(phase_costs) / len(phase_costs),
        "swap_out_phase_p50_s": percentile(phase_costs, 0.50),
        "swap_out_phase_p95_s": percentile(phase_costs, 0.95),
        "bytes_shipped": stats.bytes_shipped,
        "delta_ships": stats.fastpath_delta_ships,
        "delta_fallbacks": stats.fastpath_delta_fallbacks,
        "delta_compactions": stats.fastpath_delta_compactions,
        "delta_bytes_shipped": stats.delta_bytes_shipped,
        "delta_bytes_saved": stats.delta_bytes_saved,
        "pipeline_transfers": pipeline.transfers if pipeline is not None else 0,
        "pipeline_saved_s": pipeline.saved_s if pipeline is not None else 0.0,
    }


def cases(config: DeltaBenchConfig) -> List[Case]:
    """Full re-ships vs deltas, on identical workloads."""
    run = partial(_run, config=config)
    return [
        Case("fastpath_full", partial(_world, config, False), run),
        Case("delta", partial(_world, config, True), run),
    ]
