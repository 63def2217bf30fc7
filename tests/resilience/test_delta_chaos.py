"""Chaos: delta chains under replica death, loss, and repair.

The issue's acceptance scenario: killing a delta-lagged replica
mid-chain must lose no data — the swap pipeline falls back to full
ships for the broken replica and the scrubber re-replicates until the
replication factor is restored.

``CHAOS_SEED`` in the environment picks the seeded run's mutations,
swaps and fault schedule (default 1).
"""

import os
import random

from repro.core.fastpath import FastPathConfig
from repro.core.space import Space
from repro.devices import InMemoryStore
from repro.faults import FaultInjector, FaultPlan, FlakyStore
from repro.resilience import ResilienceConfig
from tests.helpers import build_chain, chain_values

SEED = int(os.environ.get("CHAOS_SEED", "1"))


def _chaos_space(n_stores=4, factor=3):
    space = Space("chaos", heap_capacity=1 << 20)
    injector = FaultInjector(FaultPlan.empty(), clock=space.clock)
    stores = [
        FlakyStore(InMemoryStore(f"s{i}"), injector) for i in range(n_stores)
    ]
    for store in stores:
        space.manager.add_store(store)
    space.manager.enable_resilience(
        ResilienceConfig(replication_factor=factor)
    )
    space.manager.enable_fastpath(
        FastPathConfig(delta=True, delta_max_ratio=8.0)
    )
    return space, stores


def _mutate(space, sid, bump=100):
    cluster = space.clusters()[sid]
    oid = sorted(cluster.oids)[0]
    node = space._objects[oid]
    node.value = node.value + bump


def _holder_of(space, stores, sid):
    record = space.manager.resilience.placement.get(sid)
    victim_id = sorted(record.active())[0]
    return next(s for s in stores if s.device_id == victim_id)


def test_killing_a_replica_mid_chain_loses_no_data_and_scrub_restores_rf():
    space, stores = _chaos_space()
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    space.swap_in(2)
    _mutate(space, 2)
    space.swap_out(2)
    assert space.manager.stats.fastpath_delta_ships == 1
    victim = _holder_of(space, stores, 2)  # records exist while swapped
    space.swap_in(2)

    victim.kill(lose_data=True)  # the device is gone, chain and all

    _mutate(space, 2)
    space.swap_out(2)  # delta ships to the survivors; the dead one skips
    record = space.manager.resilience.placement.get(2)
    assert victim.device_id not in record.active()
    assert len(record.active()) == 2  # under-replicated, not lost

    space.swap_in(2)  # no data loss: both mutations are there
    assert sorted(v % 100 for v in chain_values(handle)) == list(range(10))
    assert max(chain_values(handle)) >= 200

    _mutate(space, 2)
    space.swap_out(2)
    space.manager.resilience.scrubber.run_until_stable()
    record = space.manager.resilience.placement.get(2)
    assert record.live_count >= 3  # the spare store took the third copy
    assert victim.device_id not in record.active()

    space.swap_in(2)
    assert max(chain_values(handle)) >= 300
    space.verify_integrity()


def test_revived_empty_replica_gets_a_full_ship_fallback():
    space, stores = _chaos_space(n_stores=3)
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    space.swap_in(2)
    _mutate(space, 2)
    space.swap_out(2)
    victim = _holder_of(space, stores, 2)
    space.swap_in(2)

    victim.kill(lose_data=True)
    victim.revive()  # back online, but with an empty store: no chain base

    _mutate(space, 2)
    space.swap_out(2)

    stats = space.manager.stats
    # the survivors took the delta; the amnesiac replica got the full
    # payload instead of an unappliable delta
    assert stats.fastpath_delta_fallbacks == 1
    record = space.manager.resilience.placement.get(2)
    assert len(record.active()) == 3  # replication factor restored inline
    tip_key = record.key
    assert victim.contains(tip_key)
    assert victim.digest(tip_key) == record.digest  # and the copy is whole

    space.swap_in(2)
    assert max(chain_values(handle)) >= 200
    space.verify_integrity()


def test_delta_journal_entries_commit_with_their_base_epoch():
    space, _stores = _chaos_space(n_stores=3)
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    space.swap_in(2)
    _mutate(space, 2)
    space.swap_out(2)

    entries = [
        entry
        for entry in space.manager.resilience.journal.history()
        if entry.delta
    ]
    assert len(entries) == 1
    (entry,) = entries
    assert entry.base_epoch is not None
    assert entry.base_epoch < entry.epoch
    # the entry describes the APPLIED document, so journal recovery can
    # verify replicas without delta-awareness
    assert entry.digest and entry.xml_bytes > 0


def test_seeded_delta_chaos_reads_back_every_value():
    """Random mutate / swap-out / swap-in steps over flaky stores at
    rf=2 with delta swap-outs, transient store faults, corrupted fetches
    and one store killed mid-run: after every step each value reads
    back and the space's integrity holds; afterwards journal recovery
    leaves no entry pending."""
    rng = random.Random(SEED)
    space, stores = _chaos_space(n_stores=4, factor=2)
    injector = stores[0]._injector  # one injector drives every store
    # reloads fetch from the flaky stores, not the local payload cache
    space.manager.enable_fastpath(
        FastPathConfig(delta=True, serve_swap_in_from_cache=False)
    )
    nodes = 24
    handle = space.ingest(build_chain(nodes), cluster_size=4, root_name="h")
    cursors = []
    cursor = handle
    while cursor is not None:
        cursors.append(cursor)
        cursor = cursor.get_next()
    oids = [cursor._obi_target_oid for cursor in cursors]
    expected = list(range(nodes))
    sids = sorted(
        sid
        for sid, cluster in space.clusters().items()
        if cluster.swappable() and cluster.oids
    )
    injector.plan = FaultPlan(
        seed=SEED,
        store_failure_rate=0.05,
        fetch_failure_rate=0.05,
        drop_failure_rate=0.1,
        probe_failure_rate=0.05,
        corruption_rate=0.02,
    )
    for step in range(120):
        if step == 40:
            # the wipe itself is not under test: it runs fault-free
            plan, injector.plan = injector.plan, FaultPlan.empty()
            rng.choice(stores).kill(lose_data=True)
            injector.plan = plan
        for _ in range(rng.randrange(3)):
            position = rng.randrange(nodes)
            expected[position] += 1000
            if rng.random() < 0.5:
                # a proxy call dirties the whole cluster: a full ship
                cursors[position].set_value(expected[position])
            else:
                # a write on the resident member names it: a delta ship
                space._objects[oids[position]].value = expected[position]
        for sid in rng.sample(sids, rng.randrange(1, 4)):
            if space.clusters()[sid].is_resident:
                space.swap_out(sid)
        swapped = [sid for sid in sids if space.clusters()[sid].is_swapped]
        if swapped and rng.random() < 0.5:
            space.swap_in(rng.choice(swapped))
        # reload what is swapped and read the members themselves: a
        # proxy read would dirty whole clusters and hide the deltas
        for sid in sids:
            if space.clusters()[sid].is_swapped:
                space.swap_in(sid)
        values = [space._objects[oid].value for oid in oids]
        assert values == expected, f"seed {SEED}: step {step} read a stale value"
        space.verify_integrity()

    stats = space.manager.stats
    assert stats.fastpath_delta_ships > 0 and stats.fastpath_noops > 0
    assert injector.stats.store_faults > 0 and injector.stats.fetch_faults > 0
    journal = space.manager.resilience.journal
    space.manager.recover_journal()
    assert journal.pending() == []
