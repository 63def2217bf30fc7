"""The swap fast path: payload cache, clean-cluster no-ops, re-ships."""

import pytest

from repro.core.fastpath import FastPathConfig, FastPathState, PayloadCache
from repro.events import SwapFastPathEvent, SwapOutEvent
from tests.helpers import build_chain, chain_values, make_space


def _fast_space(**config):
    space = make_space()
    space.manager.enable_fastpath(FastPathConfig(**config))
    return space


def _ingest_chain(space, n=20, cluster_size=5):
    return space.ingest(build_chain(n), cluster_size=cluster_size, root_name="h")


def _cycle(space, sid):
    space.swap_out(sid)
    space.swap_in(sid)


# -- manager integration -------------------------------------------------


def test_enable_installs_fresh_state():
    space = make_space()
    state = space.manager.enable_fastpath()
    assert isinstance(state, FastPathState)
    assert space.manager.fastpath is state
    again = space.manager.enable_fastpath()
    assert again is not state
    assert space.manager.fastpath is again


def test_clean_swap_out_is_metadata_noop():
    space = _fast_space()
    _ingest_chain(space)
    store = space.manager.available_stores()[0]
    first = space.swap_out(2)
    space.swap_in(2)

    second = space.swap_out(2)

    stats = space.manager.stats
    assert stats.encode_calls == 1  # only the first swap-out serialized
    assert stats.fastpath_noops == 1
    assert second.key == first.key
    assert space.clusters()[2].epoch == first.epoch  # no epoch bump
    assert store.keys() == [first.key]  # the retained copy, nothing new
    assert space.bus.last(SwapFastPathEvent).tier == "noop"
    assert space.bus.last(SwapOutEvent).xml_bytes == 0  # nothing traveled
    assert space.clusters()[2].is_swapped


def test_swap_in_served_from_payload_cache():
    space = _fast_space()
    handle = _ingest_chain(space)
    _cycle(space, 2)
    space.swap_out(2)
    space.swap_in(2)
    # swap-out seeds the cache, so both reloads were local
    assert space.manager.stats.swapin_cache_hits == 2
    assert chain_values(handle) == list(range(20))


def test_cache_serves_swap_in_after_store_loss():
    space = _fast_space()
    handle = _ingest_chain(space)
    store = space.manager.available_stores()[0]
    location = space.swap_out(2)
    store.drop(location.key)  # the device left the room with our bytes
    space.swap_in(2)
    assert space.manager.stats.swapin_cache_hits == 1
    assert chain_values(handle) == list(range(20))


def test_reship_from_cache_when_store_evicted():
    space = _fast_space()
    _ingest_chain(space)
    store = space.manager.available_stores()[0]
    first = space.swap_out(2)
    shipped = store.fetch(first.key)
    space.swap_in(2)
    store.drop(first.key)  # retention broken behind the manager's back

    second = space.swap_out(2)

    stats = space.manager.stats
    assert stats.fastpath_reships == 1
    assert stats.fastpath_noops == 0
    assert stats.encode_calls == 1  # shipped from cache, not re-encoded
    assert store.fetch(second.key) == shipped
    assert space.bus.last(SwapFastPathEvent).tier == "reship"


def test_cache_miss_without_retention_falls_back_to_full():
    # a 1-byte cache never holds the payload, and the store lost its
    # retained copy, so the clean path has nothing to work with and
    # must re-encode
    space = _fast_space(cache_budget_bytes=1)
    _ingest_chain(space)
    store = space.manager.available_stores()[0]
    first = space.swap_out(2)
    space.swap_in(2)
    store.drop(first.key)  # retention broken behind the manager's back
    space.swap_out(2)
    stats = space.manager.stats
    assert stats.encode_calls == 2
    assert stats.fastpath_noops == 0
    assert stats.fastpath_reships == 0


def test_mutation_cleans_up_stale_store_copy():
    space = _fast_space()
    _ingest_chain(space)
    store = space.manager.available_stores()[0]
    first = space.swap_out(2)
    space.swap_in(2)
    space._objects[min(space.clusters()[2].oids)].value = 555
    second = space.swap_out(2)
    assert second.key != first.key
    assert store.keys() == [second.key]  # the stale copy was dropped


def test_drop_swapped_forgets_retention():
    space = _fast_space()
    _ingest_chain(space)
    store = space.manager.available_stores()[0]
    space.swap_out(2)
    space.manager.drop_swapped(space.clusters()[2])
    assert space.manager.fastpath.retained.get(2) is None
    assert store.keys() == []


# -- PayloadCache --------------------------------------------------------


def test_cache_requires_positive_budget():
    with pytest.raises(ValueError):
        PayloadCache(0)


def test_cache_roundtrip_and_accounting():
    cache = PayloadCache(100)
    cache.put("d1", "hello")
    assert cache.get("d1") == "hello"
    assert cache.used_bytes == 5
    assert len(cache) == 1
    assert "d1" in cache
    cache.invalidate("d1")
    assert cache.get("d1") is None
    assert cache.used_bytes == 0


def test_cache_put_same_digest_does_not_double_count():
    cache = PayloadCache(100)
    cache.put("d1", "hello")
    cache.put("d1", "hello")
    assert cache.used_bytes == 5


def test_cache_evicts_least_recently_used():
    cache = PayloadCache(10)
    cache.put("a", "xxxxx")
    cache.put("b", "yyyyy")
    assert cache.get("a") == "xxxxx"  # promotes a over b
    cache.put("c", "zzzzz")  # must evict b, the coldest
    assert "a" in cache
    assert "b" not in cache
    assert "c" in cache
    assert cache.stats.evictions == 1
    assert cache.used_bytes == 10


def test_cache_rejects_oversized_payload():
    cache = PayloadCache(4)
    cache.put("big", "too large to ever fit")
    assert "big" not in cache
    assert cache.used_bytes == 0


# -- compression negotiation cache ---------------------------------------


class _Advertising:
    def __init__(self, device_id, codecs):
        self.device_id = device_id
        self.supported_compressions = codecs


def test_negotiate_for_caches_per_store():
    state = FastPathState(FastPathConfig())
    modern = _Advertising("modern", ("zlib",))
    legacy = _Advertising("legacy", ())
    assert state.negotiate_for(modern) == "zlib"
    assert state.negotiate_for(legacy) is None
    modern.supported_compressions = ()  # too late: the result is cached
    assert state.negotiate_for(modern) == "zlib"
    assert state.negotiated == {"modern": "zlib", "legacy": None}
