"""Behavioral tests for the event-driven async swap scheduler.

Each test builds a small fully-swapped-out pointer chain over simulated
Bluetooth stores and walks it, checking one scheduler behavior at a
time: speculation hits, the degrade ladder's veto, buffer demotion,
waste accounting, backpressure, write-back overlap, the single-channel
mode, and retiring a scheduler.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.sched import AsyncSchedConfig, SwapOpState
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from tests.helpers import build_chain, chain_values


def _space(stores: int = 3, nodes: int = 30, cluster_size: int = 5):
    """A chain of ``nodes`` fully swapped out across ``stores`` radios."""
    clock = SimulatedClock()
    space = Space("sched", heap_capacity=1 << 20, clock=clock)
    radios = []
    for index in range(stores):
        link = bluetooth_link(clock, name=f"bt-{index}")
        radios.append(XmlStoreDevice(f"p-{index}", capacity=1 << 20, link=link))
        space.manager.add_store(radios[-1])
    handle = space.ingest(
        build_chain(nodes), cluster_size=cluster_size, root_name="h"
    )
    swappable = [
        sid
        for sid, cluster in sorted(space._clusters.items())
        if cluster.swappable() and cluster.oids
    ]
    for index, sid in enumerate(swappable):
        space.manager.swap_out(sid, store=radios[index % stores])
    return space, clock, handle


# -- speculation -----------------------------------------------------------


def test_sequential_walk_prefetches_and_stalls_less_than_sync():
    sync_space, sync_clock, sync_handle = _space()
    walk_start = sync_clock.now()
    sync_values = chain_values(sync_handle)
    sync_stall = sync_clock.now() - walk_start

    space, clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    values = chain_values(handle)
    sched.drain()

    assert values == sync_values == list(range(30))
    assert sched.stats.prefetch_issued > 0
    assert sched.stats.prefetch_hits > 0
    # the blocking walk stalls for every link second; the scheduled walk
    # only stalls for time nothing else could hide
    stalled = (
        sched.stats.demand_stall_s
        + sched.stats.hit_stall_s
        + sched.stats.backpressure_stall_s
    )
    assert stalled < sync_stall
    assert 0.0 <= sched.overlap_ratio() <= 1.0


def test_prefetch_waste_ratio_accounts_for_unconsumed_buffers():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    chain_values(handle)
    sched.drain()
    assert 0.0 <= sched.stats.waste_ratio <= 1.0
    assert sched.stats.hit_ratio == pytest.approx(
        sched.stats.prefetch_hits / sched.stats.prefetch_issued
    )


def test_invalidate_turns_a_buffered_speculation_into_waste():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    _ = handle.get_value()  # one fault: speculation for the next clusters
    assert sched.in_flight_fetches() > 0
    target = next(iter(sched._speculative))
    waste_before = sched.stats.prefetch_waste
    sched.invalidate(target, "swap-out")
    assert sched.stats.prefetch_waste == waste_before + 1
    assert target not in sched._speculative


def test_stale_keyed_buffer_is_waste_not_a_hit():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    _ = handle.get_value()
    assert sched.in_flight_fetches() > 0
    target = next(iter(sched._speculative))
    # the cluster re-swapped under a new epoch since the speculation was
    # issued: its buffered payload must not satisfy the fault
    sched._speculative[target].key = "stale-epoch-key"
    location = space._clusters[target].location
    assert sched._consume_speculative(target, location) is None
    assert sched.stats.prefetch_waste == 1


def test_full_buffer_demotes_the_stalest_speculation():
    space, _clock, handle = _space(nodes=40, cluster_size=4)
    sched = space.manager.enable_async_scheduler(
        AsyncSchedConfig(channels=4, prefetch=True, prefetch_depth=4,
                         max_speculative=1)
    )
    chain_values(handle)
    sched.drain()
    assert sched.stats.prefetch_demoted > 0
    assert len(sched._speculative) <= 1


def test_full_buffer_demotes_only_for_a_booked_speculation():
    space, clock, handle = _space(nodes=40, cluster_size=4)
    sched = space.manager.enable_async_scheduler(
        AsyncSchedConfig(channels=4, prefetch=True, prefetch_depth=4,
                         max_speculative=1)
    )
    _ = handle.get_value()  # one fault: the buffer fills up
    sched.drain()
    (buffered,) = sched._speculative.values()
    # every radio is booked far past the stall window, one channel stays
    # idle: predictions exist, yet no speculative fetch can start
    for store in space.manager.available_stores():
        with sched.transfers.channel(store._link):
            store._link.transfer(1 << 20)
    source = next(
        sid
        for sid, cluster in sorted(space._clusters.items())
        if cluster.is_swapped
        and set(sched.prefetcher.predict(sid, 4)) - {buffered.sid}
    )
    issued = sched.stats.prefetch_issued
    sched._issue_prefetches(source, horizon=clock.now())
    assert sched.stats.prefetch_issued == issued
    assert sched._speculative == {buffered.sid: buffered}
    assert buffered.payload is not None


def test_collected_cluster_leaves_the_succession_table():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    chain_values(handle)
    table = sched.prefetcher._successors
    learned = set(table) | {sid for row in table.values() for sid in row}
    assert learned
    space.del_root("h")
    space.gc()
    assert not learned & set(space._clusters)
    assert not learned & (set(table) | {s for row in table.values() for s in row})


# -- the degrade ladder always wins ----------------------------------------


def test_pressure_rung_stops_new_speculation():
    space, _clock, handle = _space()
    space.manager.enable_degrade_ladder()  # NORMAL = rung 0
    sched = space.manager.enable_async_scheduler(
        AsyncSchedConfig(channels=3, prefetch=True,
                         prefetch_pressure_limit=0)
    )
    chain_values(handle)
    sched.drain()
    # with the limit at the ladder's current rung, speculation is vetoed
    # before a single fetch is issued
    assert sched.stats.prefetch_issued == 0


def test_pressure_sheds_buffered_speculation_and_frees_radios():
    space, clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    _ = handle.get_value()  # buffer some speculation
    buffered = sched.in_flight_fetches()
    assert buffered > 0
    sched.on_pressure(rung=1)
    assert sched.in_flight_fetches() == 0
    assert sched.stats.prefetch_cancelled == buffered
    # every shed op retired CANCELLED with the shed reason recorded
    cancelled = [
        op
        for op in sched.queue.pop_due(float("inf"))
        if op.state is SwapOpState.CANCELLED
    ]
    assert cancelled and all(op.error == "pressure" for op in cancelled)


def test_below_limit_rung_leaves_speculation_alone():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    _ = handle.get_value()
    buffered = sched.in_flight_fetches()
    sched.on_pressure(rung=0)  # NORMAL: below the default limit of 1
    assert sched.in_flight_fetches() == buffered
    assert sched.stats.prefetch_cancelled == 0


# -- backpressure ----------------------------------------------------------


def test_backpressure_waits_are_charged_to_the_stat():
    # two channels for three radios under an evicting walk: deferred
    # ships and drops keep both channels booked at fault instants, so
    # admission has to pace the app
    space, _clock, handle = _space(nodes=40, cluster_size=4)
    space.heap.capacity = space.heap.used + 400
    sched = space.manager.enable_async_scheduler(channels=2, prefetch=True)
    chain_values(handle)
    sched.drain()
    assert sched.stats.backpressure_stall_s > 0.0


# -- write-back and stale drops --------------------------------------------


def test_victim_writeback_rides_the_channels():
    space, clock, handle = _space(nodes=40, cluster_size=4)
    # clamp the heap to ~2 resident clusters: the walk must evict (and
    # re-ship) victims as it faults
    space.heap.capacity = space.heap.used + 400
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    values = chain_values(handle)
    sched.drain()
    assert values == list(range(40))
    assert sched.stats.writebacks > 0
    assert space.manager.stats.swap_outs > 0


def test_stale_copy_drops_are_deferred_onto_channels():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    chain_values(handle)
    sched.drain()
    # every successful reload invalidates its remote copy off the fault
    # path: one INVALIDATE op per replica, none stalling the app
    assert sched.stats.stale_drops > 0


# -- one channel, no speculation ------------------------------------------


def test_single_channel_without_prefetch_still_schedules_drops():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=1, prefetch=False)
    values = chain_values(handle)
    sched.drain()
    assert values == list(range(30))
    assert sched.stats.prefetch_issued == 0
    assert sched.stats.demand_fetches > 0
    # stale-copy drops ride the one channel instead of stalling faults
    assert sched.stats.stale_drops > 0


def test_config_rejects_degenerate_values():
    with pytest.raises(ValueError):
        AsyncSchedConfig(channels=0)
    with pytest.raises(ValueError):
        AsyncSchedConfig(prefetch_depth=0)


def test_reenable_retires_the_replaced_scheduler():
    space, clock, handle = _space()
    old = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    handle.get_value()  # faults the first five-node cluster...
    sixth = handle.get_next().get_next().get_next().get_next().get_next()
    sixth.get_value()  # ...and the second
    buffered = old.in_flight_fetches()
    assert old.transfers.in_flight()
    assert buffered > 0
    before = clock.now()
    new = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    assert space.manager.sched is new
    # the replaced pool's windows are paid, its buffers counted as waste
    assert not old.transfers.in_flight()
    assert clock.now() > before
    assert old.in_flight_fetches() == 0
    assert old.stats.prefetch_waste == buffered
    assert chain_values(handle) == list(range(30))


def test_disable_drains_and_detaches():
    space, clock, handle = _space()
    space.manager.enable_async_scheduler(channels=3, prefetch=True)
    _ = handle.get_value()
    space.manager.disable_async_scheduler()
    assert space.manager.sched is None
    # nothing left in flight: the disable drained the channel pool
    values = chain_values(handle)
    assert values == list(range(30))
