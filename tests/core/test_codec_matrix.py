"""The store matrix on canonical XML: every store kind x compression.

{InMemoryStore, XmlStoreDevice, FlakyStore} x {zlib, no compression},
all driven through the manager hot path.  Each store must negotiate the
compression it advertises, hold canonical XML at rest, and round-trip
values through a mutate-and-cycle swap.
"""

import pytest

from repro.core.fastpath import FastPathConfig
from repro.devices import InMemoryStore
from repro.devices.store import XmlStoreDevice
from repro.faults import FaultInjector, FaultPlan, FlakyStore
from repro.wire.canonical import verify_payload
from tests.helpers import build_chain, chain_values, make_space


def _make_store(kind):
    inner = (
        InMemoryStore("s")
        if kind == "memory"
        else XmlStoreDevice("s", capacity=1 << 20)
    )
    if kind == "flaky":
        return FlakyStore(inner, FaultInjector(FaultPlan.empty())), inner
    return inner, inner


@pytest.mark.parametrize("compression", ["zlib", "none"])
@pytest.mark.parametrize("kind", ["memory", "xml", "flaky"])
def test_negotiation_matrix_roundtrips(kind, compression):
    store, inner = _make_store(kind)
    space = make_space(with_store=False)
    space.manager.add_store(store)
    space.manager.enable_fastpath(
        FastPathConfig(
            compression=("zlib",) if compression == "zlib" else (),
            serve_swap_in_from_cache=False,
        )
    )
    handle = space.ingest(build_chain(12), cluster_size=4, root_name="h")
    expected = list(range(12))
    assert chain_values(handle) == expected

    space.swap_out(2)
    # InMemoryStore advertises no compression, so it always gets plain text
    negotiated = "zlib" if compression == "zlib" and kind != "memory" else None
    assert space.manager.fastpath.negotiated["s"] == negotiated
    location = space.clusters()[2].location
    assert verify_payload(inner.fetch(location.key), location.digest)

    space.swap_in(2)
    assert chain_values(handle) == expected

    # mutate inside the swapped cluster, cycle again: values must travel
    node = handle
    for _ in range(5):
        node = node.get_next()
    node.set_value(999)
    expected[5] = 999
    space.swap_out(2)
    space.swap_in(2)
    assert chain_values(handle) == expected
