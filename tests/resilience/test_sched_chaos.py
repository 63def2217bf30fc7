"""Chaos: the async scheduler under link faults and a store kill.

Three replicas over five simulated radios, with the async scheduler and
prefetch on and a heap that holds only a few clusters, so nearly every
step faults a cluster in through the scheduler and evicts another
through its channels.  The radios drop frames and stall at random
(``FaultPlan`` link faults); one store dies mid-run and loses its data.
After every step:

* the touched value reads back (and every value on a periodic full walk);
* every reload decoded a payload that matches the digest recorded at
  swap-out;
* heap usage equals the resident clusters' objects plus the swapped
  clusters' replacement-objects (plus the local fallback pool, if the
  ladder ever used it);

and every few steps ``sched.drain()`` leaves no op in flight.

``CHAOS_SEED`` in the environment picks the fault schedule (default 1).
"""

from __future__ import annotations

import os
import random

from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core import manager as manager_module
from repro.core.sched import SwapOpState
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.faults import FaultInjector, FaultPlan, FlakyLink, FlakyStore
from repro.resilience import ResilienceConfig
from repro.wire.canonical import verify_payload
from tests.helpers import build_chain

SEED = int(os.environ.get("CHAOS_SEED", "1"))
NODES = 60
CLUSTER = 4
STORES = 5
STEPS = 240
KILL_AT = 80
DRAIN_EVERY = 20


def _build(seed):
    clock = SimulatedClock()
    space = Space(f"schedchaos-{seed}", heap_capacity=1 << 20, clock=clock)
    manager = space.manager
    manager.enable_resilience(ResilienceConfig(replication_factor=3, seed=seed))
    injector = FaultInjector(FaultPlan.empty(), clock=clock)
    stores = []
    for index in range(STORES):
        link = FlakyLink(bluetooth_link(clock, name=f"bt-{index}"), injector)
        store = FlakyStore(
            XmlStoreDevice(f"s{index}", capacity=1 << 20, link=link), injector
        )
        manager.add_store(store)
        stores.append(store)
    handle = space.ingest(build_chain(NODES), cluster_size=CLUSTER, root_name="h")
    cursors = []
    cursor = handle
    while cursor is not None:
        cursors.append(cursor)
        cursor = cursor.get_next()
    for sid, cluster in sorted(space._clusters.items()):
        if cluster.swappable() and cluster.oids:
            manager.swap_out(sid)
    space.heap.capacity = space.heap.used + 800  # about four clusters
    sched = manager.enable_async_scheduler(
        channels=STORES, prefetch=True, prefetch_depth=4
    )
    # faults begin with the scheduled run
    injector.plan = FaultPlan(
        seed=seed,
        link_failure_rate=0.05,
        latency_spike_rate=0.05,
        latency_spike_s=0.05,
    )
    return space, stores, cursors, sched, injector


def _heap_accounted(space) -> int:
    heap = space.heap
    total = 0
    for cluster in space._clusters.values():
        if cluster.is_resident:
            total += sum(heap.size_of(oid) for oid in cluster.oids)
        else:
            total += heap.size_of(cluster.replacement.oid)
    fallback = space.manager.resilience._fallback
    if fallback is not None:
        total += fallback.pool_used
    return total


def test_scheduled_chaos_reads_back_and_verifies_every_reload(monkeypatch):
    space, stores, cursors, sched, injector = _build(SEED)
    manager = space.manager
    reloads = []
    decode = manager_module.decode_cluster

    def checked_decode(xml_text, **kwargs):
        # the cluster being reloaded still carries its swap-out location
        loading = [space._clusters[sid] for sid in manager._loading]
        assert any(
            verify_payload(xml_text, cluster.location.digest)
            for cluster in loading
            if cluster.location is not None
        ), "a reload decoded a payload that does not match its digest"
        reloads.append(xml_text)
        return decode(xml_text, **kwargs)

    monkeypatch.setattr(manager_module, "decode_cluster", checked_decode)

    rng = random.Random(SEED)
    expected = list(range(NODES))
    position = 0
    for step in range(STEPS):
        if step == KILL_AT:
            # the wipe itself is not under test: it runs fault-free
            plan, injector.plan = injector.plan, FaultPlan.empty()
            rng.choice(stores).kill(lose_data=True)
            injector.plan = plan
        if rng.random() < 0.2:
            position = rng.randrange(NODES)  # a jump: no prediction helps
        else:
            position = (position + 1) % NODES
        node = cursors[position]
        if rng.random() < 0.25:
            expected[position] += 1000
            node.set_value(expected[position])
        assert node.get_value() == expected[position], (
            f"seed {SEED}: step {step} read a stale value"
        )
        assert space.heap.used == _heap_accounted(space), (
            f"seed {SEED}: heap drifted from the resident clusters at step {step}"
        )
        if step % DRAIN_EVERY == DRAIN_EVERY - 1:
            sched.drain()
            assert not sched.transfers.in_flight()
            assert len(sched.queue) == 0
            assert all(
                op.state is not SwapOpState.IN_FLIGHT
                for op in sched._speculative.values()
            )
            assert [node.get_value() for node in cursors] == expected
            space.verify_integrity()

    sched.drain()
    assert not sched.transfers.in_flight() and len(sched.queue) == 0
    assert [node.get_value() for node in cursors] == expected
    assert space.heap.used == _heap_accounted(space)
    # the faults bit, and the scheduler did the work: reloads,
    # write-back and speculation
    assert injector.stats.link_faults > 0 and manager.stats.retries > 0
    assert len(reloads) == manager.stats.swap_ins > STEPS // 4
    assert sched.stats.writebacks > 0
    assert sched.stats.prefetch_issued > 0
    space.verify_integrity()
