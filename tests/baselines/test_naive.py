"""The naive one-proxy-per-object baseline."""

import pytest

from repro.baselines.naive_proxy import NaiveRuntime
from repro.devices import InMemoryStore
from repro.errors import SwapError
from tests.helpers import build_chain, make_space


def _runtime(n=20):
    runtime = NaiveRuntime(heap_capacity=1 << 20)
    runtime.attach_store(InMemoryStore("server"))
    handle = runtime.ingest(build_chain(n))
    return runtime, handle


def test_every_object_gets_a_proxy():
    runtime, handle = _runtime(20)
    assert runtime.object_count() == 20
    assert runtime.resident_count() == 20


def test_every_edge_mediated():
    runtime, handle = _runtime(5)
    cursor = handle
    for _ in range(4):
        cursor = cursor.next
        assert type(cursor).__name__ == "NaiveProxy"


def test_navigation_through_proxies():
    runtime, handle = _runtime(10)
    values = []
    cursor = handle
    while cursor is not None:
        values.append(cursor.get_value())
        cursor = cursor.get_next()
    assert values == list(range(10))


def test_memory_includes_proxy_overhead():
    runtime, handle = _runtime(20)
    report = runtime.memory_report()
    assert report["proxy_bytes"] == 20 * runtime.size_model.proxy_size()
    assert report["total_bytes"] == report["object_bytes"] + report["proxy_bytes"]


def test_paper_claim_memory_roughly_doubles_for_small_objects():
    """Paper §5: 'Common application objects are small.  So, this could
    potentially double memory occupation when fully-loaded.'"""
    runtime, handle = _runtime(100)
    report = runtime.memory_report()
    overhead = report["proxy_bytes"] / report["object_bytes"]
    assert overhead > 0.8  # proxies ~ the objects themselves


def test_swap_out_and_transparent_reload():
    runtime, handle = _runtime(10)
    oid = handle._nv_oid
    runtime.swap_out(oid)
    assert runtime.is_swapped(oid)
    assert handle.get_value() == 0  # access reloads
    assert not runtime.is_swapped(oid)
    assert runtime.swap_ins == 1


def test_double_swap_rejected():
    runtime, handle = _runtime(5)
    runtime.swap_out(handle._nv_oid)
    with pytest.raises(SwapError):
        runtime.swap_out(handle._nv_oid)


def test_swap_without_store():
    runtime = NaiveRuntime()
    handle = runtime.ingest(build_chain(3))
    with pytest.raises(SwapError):
        runtime.swap_out(handle._nv_oid)


def test_paper_claim_proxies_remain_after_full_swap():
    """Paper §5: 'even when all objects were swapped, the proxies would
    still remain, which would incur in higher memory overhead.'"""
    runtime, handle = _runtime(50)
    runtime.swap_out_all()
    assert runtime.resident_count() == 0
    report = runtime.memory_report()
    assert report["total_bytes"] == 50 * runtime.size_model.proxy_size()
    # compare: the swap-cluster design leaves only one replacement-object
    space = make_space()
    space.ingest(build_chain(50), cluster_size=50, root_name="h")
    space.swap_out(1)
    assert space.heap.used < report["total_bytes"]


def test_full_round_trip_after_swap_out_all():
    runtime, handle = _runtime(30)
    runtime.swap_out_all()
    values = []
    cursor = handle
    while cursor is not None:
        values.append(cursor.get_value())
        cursor = cursor.get_next()
    assert values == list(range(30))


def test_identity_between_proxies():
    runtime, handle = _runtime(3)
    assert handle == runtime.proxy_of(handle._nv_oid)
    assert handle != handle.get_next()
    assert hash(handle) == hash(runtime.proxy_of(handle._nv_oid))


def test_swapped_object_is_canonical_text_and_reads_back():
    from repro.wire.canonical import canonical_text

    runtime = NaiveRuntime(heap_capacity=1 << 20)
    store = InMemoryStore("server")
    runtime.attach_store(store)
    handle = runtime.ingest(build_chain(3))
    runtime.swap_out(2)
    (key,) = store.keys()
    text = store.fetch(key)
    assert text == canonical_text(text)
    assert text.startswith('<naive-object class="Node" oid="2">')
    # a copy in another spelling reads the same
    store.store(key, text.replace("/>", " />").replace("><", ">\n<"))
    assert handle.next.value == 1
    assert handle.next.next.value == 2
