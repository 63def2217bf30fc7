"""The swap-out / swap-in protocol."""

import pytest

from repro.core.swap_cluster import SwapClusterState
from repro.errors import (
    ClusterNotResidentError,
    ClusterNotSwappedError,
    ClusterPinnedError,
    CodecError,
    NoSwapDeviceError,
    SwapStoreUnavailableError,
)
from repro.events import SwapInEvent, SwapOutEvent
from tests.helpers import build_chain, chain_values, make_space


@pytest.fixture
def loaded(space):
    handle = space.ingest(build_chain(20), cluster_size=5, root_name="h")
    return space, handle


def test_swap_out_frees_heap(loaded):
    space, _ = loaded
    before = space.heap.used
    location = space.swap_out(2)
    assert space.heap.used < before
    assert location.xml_bytes > 0


def test_swap_out_ships_xml(loaded):
    space, _ = loaded
    store = space.manager.available_stores()[0]
    location = space.swap_out(2)
    assert store.keys() == [location.key]
    text = store.fetch(location.key)
    assert text.startswith("<swap-cluster")


def test_swap_out_detaches_objects(loaded):
    space, _ = loaded
    oids = set(space.clusters()[2].oids)
    space.swap_out(2)
    assert all(oid not in space._objects for oid in oids)
    assert space.clusters()[2].state is SwapClusterState.SWAPPED


def test_swap_out_emits_event(loaded):
    space, _ = loaded
    space.swap_out(3)
    event = space.bus.last(SwapOutEvent)
    assert event.sid == 3 and event.object_count == 5


def test_access_triggers_swap_in(loaded):
    space, handle = loaded
    space.swap_out(2)
    assert chain_values(handle) == list(range(20))
    assert space.clusters()[2].is_resident
    assert space.bus.count(SwapInEvent) == 1


def test_swap_in_restores_exact_state(loaded):
    space, handle = loaded
    raw = space.resolve(handle)
    raw.value = 999
    space.swap_out(1)
    assert handle.get_value() == 999


def test_swap_in_drops_store_copy_by_default(loaded):
    space, handle = loaded
    store = space.manager.available_stores()[0]
    space.swap_out(2)
    chain_values(handle)
    assert store.keys() == []


def test_keep_swapped_copies(loaded):
    space, handle = loaded
    space.manager.keep_swapped_copies = True
    store = space.manager.available_stores()[0]
    space.swap_out(2)
    chain_values(handle)
    assert len(store.keys()) == 1


def test_swap_epoch_increments(loaded):
    space, handle = loaded
    first = space.swap_out(2)
    chain_values(handle)  # reload
    second = space.swap_out(2)
    assert second.epoch == first.epoch + 1
    assert first.key != second.key


def test_root_cluster_cannot_swap(loaded):
    space, _ = loaded
    with pytest.raises(ClusterNotResidentError):
        space.swap_out(0)


def test_double_swap_out_rejected(loaded):
    space, _ = loaded
    space.swap_out(2)
    with pytest.raises(ClusterNotResidentError):
        space.swap_out(2)


def test_swap_in_resident_rejected(loaded):
    space, _ = loaded
    with pytest.raises(ClusterNotSwappedError):
        space.swap_in(2)


def test_pinned_cluster_cannot_swap(loaded):
    space, handle = loaded
    with space.pin(handle):
        with pytest.raises(ClusterPinnedError):
            space.swap_out(1)
    space.swap_out(1)  # fine after unpin


def test_no_store_raises(loaded):
    space, _ = loaded
    store = space.manager.available_stores()[0]
    space.manager.remove_store(store)
    with pytest.raises(NoSwapDeviceError):
        space.swap_out(2)


def test_store_vanishes_before_reload(loaded):
    space, handle = loaded
    store = space.manager.available_stores()[0]
    location = space.swap_out(2)
    store.drop(location.key)  # the device lost our data
    with pytest.raises(SwapStoreUnavailableError):
        chain_values(handle)


def test_corrupted_store_payload_detected(loaded):
    space, handle = loaded
    store = space.manager.available_stores()[0]
    location = space.swap_out(2)
    text = store.fetch(location.key)
    store.store(location.key, text.replace("<int>5</int>", "<int>6</int>"))
    with pytest.raises(CodecError):
        chain_values(handle)


def test_explicit_store_choice(loaded):
    from repro.devices import InMemoryStore

    space, _ = loaded
    preferred = InMemoryStore("preferred")
    location = space.swap_out(2, store=preferred)
    assert location.device_id == "preferred"
    assert len(preferred.keys()) == 1


def test_swap_victims_auto_selection(loaded):
    space, handle = loaded
    handle.get_value()  # touch cluster 1: it becomes most recent
    location = space.swap_out()  # default LRU picks an untouched cluster
    assert location is not None
    assert space.clusters()[1].is_resident  # cluster 1 was spared


def test_new_proxy_into_swapped_cluster(loaded):
    space, handle = loaded
    space.swap_out(2)
    # walking up to the boundary creates a NEW proxy whose target is the
    # replacement; invoking it must reload
    node4 = handle
    for _ in range(4):
        node4 = node4.get_next()
    boundary = node4.get_next()
    assert boundary.get_value() == 5


def test_integrity_across_many_cycles(loaded):
    space, handle = loaded
    for _ in range(5):
        space.swap_out(2)
        assert chain_values(handle) == list(range(20))
        space.verify_integrity()


def test_reload_under_pressure_evicts_another_cluster():
    """Swap-in of one cluster may need room; the manager's victim loop
    evicts a different cluster mid-reload (never the one loading)."""
    from tests.helpers import make_space

    space = make_space(heap_capacity=1000)
    space.manager.auto_swap = False
    handle = space.ingest(build_chain(20), cluster_size=10, root_name="h")
    space.manager.auto_swap = True
    # both clusters ~400B each; swap one out, fill the freed room
    space.swap_out(2)
    space.ingest(build_chain(10), cluster_size=10, root_name="filler")
    # reloading cluster 2 cannot fit without evicting something
    assert chain_values(handle) == list(range(20))
    swapped_now = [
        sid for sid, cluster in space.clusters().items() if cluster.is_swapped
    ]
    assert swapped_now, "something else must have been evicted"
    assert 2 not in swapped_now
    space.verify_integrity()
    assert chain_values(space.get_root("filler")) == list(range(10))


def test_reload_failure_when_nothing_evictable():
    """If the reload cannot fit and no victim exists, the swap-in fails
    cleanly and the cluster stays swapped."""
    from repro.errors import HeapExhaustedError
    from tests.helpers import make_space

    space = make_space(heap_capacity=900)
    handle = space.ingest(build_chain(20), cluster_size=10, root_name="h")
    space.swap_out(2)
    space.ingest(build_chain(10), cluster_size=10, root_name="filler")
    with space.pin(1), space.pin(3):  # nothing else may be evicted
        with pytest.raises(HeapExhaustedError):
            space.swap_in(2)
    assert space.clusters()[2].is_swapped
    space.verify_integrity()
    assert chain_values(handle) == list(range(20))  # works once unpinned


def test_proxy_write_is_charged_to_the_heap_at_the_next_swap_in(space):
    # DESIGN.md section 5, invariant 6: member sizes are refreshed at
    # adopt, attach and swap-in.  A write through a proxy does not resize
    # its target, so the heap learns of the growth only when the
    # cluster's replicas are sized on reload.
    handle = space.ingest(build_chain(2), cluster_size=2, root_name="h")
    before = space.heap.used
    handle.set_value("x" * 1000)
    assert space.heap.used == before
    sid = space.sid_of(handle)
    space.swap_out(sid)
    space.swap_in(sid)
    assert space.heap.used == before - 8 + 1000  # int payload -> str payload
    space.verify_integrity()
