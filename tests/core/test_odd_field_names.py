"""Every swap-out that succeeds swaps back in, whatever the field names.

``setattr`` accepts any string as an attribute name.  A name the
canonical text can carry must survive a swap cycle with its value
intact; a name it cannot carry (control characters, lone surrogates,
U+FFFE, raw tabs and line breaks, which XML parsers normalize) must be
refused at swap-out, before anything ships, with the cluster still
resident.  The empty name used to swap out and then fail every reload.
"""

from __future__ import annotations

import pytest

from repro import Space
from repro.core.fastpath import FastPathConfig
from repro.devices import InMemoryStore
from repro.errors import CodecError
from tests.helpers import build_chain, chain_values

#: names the canonical text carries
CARRIED = ["", " ", "1st", "naïve", "日本", 'q"uote', "<&>", "x\x7f", "a.b-c"]

#: names no canonical text can carry
REFUSED = ["ctl\x01x", "nul\x00", "\t", "a\nb", "a\rb", "\ud800", "\ufffe"]


def _space(**fastpath):
    space = Space("odd-names", heap_capacity=1 << 20)
    space.manager.add_store(InMemoryStore("odd-store"))
    if fastpath:
        space.manager.enable_fastpath(FastPathConfig(**fastpath))
    return space


def _member(space, value):
    """The resident chain member holding ``value``."""
    return next(
        obj
        for obj in space._objects.values()
        if getattr(obj, "value", None) == value
    )


def _swap_cycle(space, name, handle):
    """Swap the odd-named member's cluster out and in; the outcome."""
    try:
        space.swap_out(1)
    except CodecError:
        assert space.clusters()[1].is_resident
        return "refused"
    space.swap_in(1)
    assert chain_values(handle) == list(range(10))
    assert vars(_member(space, 2))[name] == "kept"
    return "carried"


@pytest.mark.parametrize("name", CARRIED + REFUSED, ids=repr)
def test_a_swap_out_that_succeeds_swaps_back_in(name):
    space = _space()
    head = build_chain(10)
    setattr(head.next.next, name, "kept")
    handle = space.ingest(head, cluster_size=5, root_name="h")
    outcome = _swap_cycle(space, name, handle)
    assert outcome == ("carried" if name in CARRIED else "refused")
    space.verify_integrity()


@pytest.mark.parametrize("name", ["", "naïve", "ctl\x01x"], ids=repr)
def test_delta_swap_out_of_an_odd_name(name):
    space = _space(delta=True)
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(1)
    space.swap_in(1)  # the base payload, retained for a delta
    setattr(_member(space, 2), name, "kept")
    outcome = _swap_cycle(space, name, handle)
    assert outcome == ("refused" if name == "ctl\x01x" else "carried")
    space.verify_integrity()


def test_empty_name_passes_document_validation():
    space = _space()
    space.manager.validate_documents = True
    head = build_chain(10)
    setattr(head.next.next, "", "kept")
    handle = space.ingest(head, cluster_size=5, root_name="h")
    assert _swap_cycle(space, "", handle) == "carried"
