"""A store that hands payloads back in its own spelling.

A dumb store may pretty-print what it returns: the digest recorded at
swap-out covers the canonical form, so ``verify_payload`` accepts such
text, and swap-in must decode it as it would the canonical text.  With
delta swap-out on, that foreign text also becomes the base the next
delta is spliced onto.
"""

from xml.etree import ElementTree as ET

from repro.core.fastpath import FastPathConfig
from repro.devices import InMemoryStore
from repro.wire.canonical import canonical_text
from tests.helpers import build_chain, chain_values, make_space


def _pretty(text: str) -> str:
    root = ET.fromstring(text)
    ET.indent(root, space="    ")
    return '<?xml version="1.0"?>\n' + ET.tostring(root, encoding="unicode") + "\n"


class PrettyPrintingStore(InMemoryStore):
    """Returns every payload indented, with ``" />"`` empty elements."""

    def __init__(self, device_id: str = "pretty") -> None:
        super().__init__(device_id)
        self.fetched = []

    def fetch(self, key: str) -> str:
        text = _pretty(super().fetch(key))
        self.fetched.append(text)
        return text


def _space(**fastpath):
    space = make_space(with_store=False)
    store = PrettyPrintingStore()
    space.manager.add_store(store)
    if fastpath:
        space.manager.enable_fastpath(FastPathConfig(**fastpath))
    return space, store


def test_pretty_printed_payloads_swap_in():
    space, store = _space()
    handle = space.ingest(build_chain(20), cluster_size=5, root_name="h")
    for sid in sorted(space.clusters())[1:]:
        space.swap_out(sid)
    assert chain_values(handle) == list(range(20))
    assert store.fetched, "swap-in must have read the store"
    text = store.fetched[0]
    assert text != canonical_text(text) and "\n    <object" in text
    space.verify_integrity()


def test_mutations_survive_pretty_printed_round_trips():
    space, store = _space()
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    for round_number in range(3):
        for sid in sorted(space.clusters())[1:]:
            space.swap_out(sid)
        node = handle
        while node is not None:
            node.value = node.value + 100
            node = node.next
    assert chain_values(handle) == [value + 300 for value in range(10)]
    assert len(store.fetched) >= 3
    space.verify_integrity()


def test_delta_spliced_onto_a_pretty_printed_base():
    # swap-in reads the store, so the cached base of the next delta is
    # the store's pretty-printed text
    space, store = _space(delta=True, serve_swap_in_from_cache=False)
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    sid = sorted(space.clusters())[-1]
    for round_number in range(3):
        space.swap_out(sid)
        space.swap_in(sid)
        cluster = space.clusters()[sid]
        base = space.manager.fastpath.cache.get(cluster.base_digest)
        assert base is not None and base != canonical_text(base)
        space._objects[min(cluster.oids)].value += 1000
    space.swap_out(sid)
    assert space.manager.stats.fastpath_delta_ships >= 2
    space.swap_in(sid)
    values = chain_values(handle)
    assert values[:5] == list(range(5))
    assert values[5] == 5 + 3000 and values[6:] == list(range(6, 10))
    space.verify_integrity()
