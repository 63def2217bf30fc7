"""Two spaces sharing one store fleet: key namespacing, pinning,
placement-ledger separation.

Per-space swap-key prefixes are what let ``SwapStore.used_by_prefix``
read one space's physical footprint on a shared store, so they get
their own direct coverage here.
"""

from __future__ import annotations

import pytest

from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.errors import ClusterPinnedError
from repro.ids import format_swap_key
from tests.helpers import build_chain, chain_values


@pytest.fixture
def fleet():
    return [
        XmlStoreDevice(f"shared-{index}", capacity=64 << 10)
        for index in range(2)
    ]


def at_rest(space, fleet):
    """One space's bytes at rest across the shared stores."""
    return sum(store.used_by_prefix(f"{space.name}/") for store in fleet)


def make_space(name, fleet, heap=1 << 20):
    space = Space(name, heap_capacity=heap)
    for store in fleet:
        space.manager.add_store(store)
    return space


def load(space, objects=20, cluster_size=5):
    return space.ingest(
        build_chain(objects), cluster_size=cluster_size, root_name="h"
    )


def test_same_sid_from_two_spaces_never_collides(fleet):
    left = make_space("ms-left", fleet)
    right = make_space("ms-right", fleet)
    left_handle = load(left)
    right_handle = load(right)
    # both spaces swap out their cluster 1 — identical sid and epoch
    left_location = left.swap_out(1)
    right_location = right.swap_out(1)
    assert left_location.key != right_location.key
    assert left_location.key == format_swap_key("ms-left", 1, 1)
    assert right_location.key == format_swap_key("ms-right", 1, 1)
    # each side swaps back in its own payload, not the neighbor's
    assert chain_values(left_handle) == list(range(20))
    assert chain_values(right_handle) == list(range(20))


def test_store_keys_partition_by_space_prefix(fleet):
    left = make_space("part-left", fleet)
    right = make_space("part-right", fleet)
    load(left)
    load(right)
    for sid in (1, 2):
        left.swap_out(sid)
        right.swap_out(sid)
    all_keys = [key for store in fleet for key in store.keys()]
    lefts = [k for k in all_keys if k.startswith("part-left/")]
    rights = [k for k in all_keys if k.startswith("part-right/")]
    assert len(lefts) == 2 and len(rights) == 2
    assert len(lefts) + len(rights) == len(all_keys)
    # ... so the per-space prefix scans add up to what the stores hold
    assert at_rest(left, fleet) + at_rest(right, fleet) == sum(
        store.used for store in fleet
    )


def test_pin_protects_one_space_while_the_other_swaps(fleet):
    pinned = make_space("pin-holder", fleet, heap=8 << 10)
    noisy = make_space("pin-noisy", fleet, heap=8 << 10)
    handle = load(pinned, objects=10, cluster_size=5)
    load(noisy, objects=10, cluster_size=5)
    with pinned.pin(handle) as cluster:
        with pytest.raises(ClusterPinnedError):
            pinned.swap_out(cluster.sid)
        # the neighbor's traffic on the shared fleet is unaffected
        noisy.swap_out(1)
        assert cluster.is_resident
    # unpinned again: the cluster may now leave
    pinned.swap_out(cluster.sid)
    assert not pinned.clusters()[cluster.sid].is_resident


def test_swap_in_one_space_leaves_the_neighbor_at_rest(fleet):
    left = make_space("rest-left", fleet)
    right = make_space("rest-right", fleet)
    left_handle = load(left)
    load(right)
    left.swap_out(1)
    right.swap_out(1)
    right_bytes = at_rest(right, fleet)
    chain_values(left_handle)  # swap left's cluster back in
    assert at_rest(left, fleet) == 0
    assert at_rest(right, fleet) == right_bytes


def test_two_spaces_fill_and_drain_without_crosstalk(fleet):
    left = make_space("drain-left", fleet)
    right = make_space("drain-right", fleet)
    left_handle = load(left, objects=30)
    right_handle = load(right, objects=30)
    for cluster in list(left.clusters().values()):
        if cluster.is_resident and not cluster.is_root_cluster:
            left.swap_out(cluster.sid)
    for cluster in list(right.clusters().values()):
        if cluster.is_resident and not cluster.is_root_cluster:
            right.swap_out(cluster.sid)
    assert chain_values(right_handle) == list(range(30))
    assert chain_values(left_handle) == list(range(30))
    assert at_rest(left, fleet) == 0
    assert at_rest(right, fleet) == 0
