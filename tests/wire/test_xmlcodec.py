"""The swap-cluster codec."""

import pytest

from repro.errors import CodecError, IntegrityError
from repro.runtime.registry import global_registry
from repro.wire.xmlcodec import decode_cluster, encode_cluster_canonical
from tests.helpers import Holder, Node, Pair


def _oid_of(obj):
    return obj._test_oid


def _setup(objects):
    for index, obj in enumerate(objects, start=1):
        object.__setattr__(obj, "_test_oid", index)
    return {obj._test_oid: obj for obj in objects}


def _encode(members, outbound=None, **kwargs):
    outbound = outbound if outbound is not None else []

    def outbound_index_of(proxy):
        if proxy not in outbound:
            outbound.append(proxy)
        return outbound.index(proxy)

    xml, _digest = encode_cluster_canonical(
        sid=5,
        space="test",
        epoch=1,
        objects=members,
        oid_of=_oid_of,
        outbound_index_of=outbound_index_of,
        **kwargs,
    )
    return xml


def _decode(xml, resolve_out=None):
    return decode_cluster(
        xml,
        registry=global_registry(),
        resolve_out=resolve_out or (lambda index: f"out-{index}"),
    )


def test_roundtrip_simple_chain():
    first, second = Node(1), Node(2)
    first.next = second
    members = _setup([first, second])
    document = _decode(_encode(members))
    assert document.sid == 5 and document.space == "test" and document.epoch == 1
    rebuilt_first = document.objects[1]
    assert rebuilt_first.value == 1
    assert rebuilt_first.next is document.objects[2]


def test_roundtrip_cycle():
    first, second = Pair(), Pair()
    first.left = second
    second.left = first
    members = _setup([first, second])
    document = _decode(_encode(members))
    assert document.objects[1].left is document.objects[2]
    assert document.objects[2].left is document.objects[1]


def test_roundtrip_containers_with_refs():
    holder, node = Holder(), Node(9)
    holder.items.append(node)
    holder.index["n"] = node
    holder.fixed = (node, 5)
    members = _setup([holder, node])
    document = _decode(_encode(members))
    rebuilt = document.objects[1]
    rebuilt_node = document.objects[2]
    assert rebuilt.items == [rebuilt_node]
    assert rebuilt.index["n"] is rebuilt_node
    assert rebuilt.fixed[0] is rebuilt_node


def test_raw_foreign_reference_raises_integrity():
    inside, outside = Node(1), Node(2)
    inside.next = outside
    object.__setattr__(inside, "_test_oid", 1)
    object.__setattr__(outside, "_test_oid", 99)
    with pytest.raises(IntegrityError):
        _encode({1: inside})


def test_foreign_index_of_allows_server_frontier():
    inside, outside = Node(1), Node(2)
    inside.next = outside
    object.__setattr__(inside, "_test_oid", 1)
    object.__setattr__(outside, "_test_oid", 99)
    frontier = []

    xml, _digest = encode_cluster_canonical(
        sid=1,
        space="server",
        epoch=0,
        objects={1: inside},
        oid_of=_oid_of,
        outbound_index_of=lambda proxy: 0,
        foreign_index_of=lambda obj: frontier.append(obj._test_oid) or 0,
    )
    assert frontier == [99]
    assert "<outref" in xml


def test_unmanaged_member_raises():
    class Plain:
        pass

    with pytest.raises(CodecError):
        encode_cluster_canonical(
            sid=1, space="s", epoch=0, objects={1: Plain()},
            oid_of=lambda o: 1, outbound_index_of=lambda p: 0,
        )


def test_decode_malformed_xml():
    with pytest.raises(CodecError):
        _decode("<swap-cluster sid='1'")


def test_decode_wrong_root_tag():
    with pytest.raises(CodecError):
        _decode("<not-a-cluster/>")


def test_decode_count_mismatch():
    first = Node(1)
    members = _setup([first])
    xml = _encode(members).replace('count="1"', 'count="7"')
    with pytest.raises(CodecError):
        _decode(xml)


def test_decode_dangling_local_ref():
    first, second = Node(1), Node(2)
    first.next = second
    members = _setup([first, second])
    xml = _encode(members)
    # remove the second object from the document
    import re

    broken = re.sub(r'<object oid="2".*?</object>', "", xml, flags=re.S)
    broken = broken.replace('count="2"', 'count="1"')
    with pytest.raises(CodecError):
        _decode(broken)


def test_decode_unknown_class():
    first = Node(1)
    members = _setup([first])
    xml = _encode(members).replace('class="Node"', 'class="Vanished"')
    from repro.errors import NotManagedError

    with pytest.raises(NotManagedError):
        _decode(xml)


def test_extref_without_resolver_raises():
    xml = (
        '<swap-cluster sid="1" space="s" epoch="0" count="1">'
        '<object oid="1" class="Node">'
        '<field name="value"><int>1</int></field>'
        '<field name="next"><extref cid="4" soid="9"/></field>'
        "</object></swap-cluster>"
    )
    with pytest.raises(CodecError):
        _decode(xml)


def test_extref_resolver_invoked():
    xml = (
        '<swap-cluster sid="1" space="s" epoch="0" count="1">'
        '<object oid="1" class="Node">'
        '<field name="value"><int>1</int></field>'
        '<field name="next"><extref cid="4" soid="9"/></field>'
        "</object></swap-cluster>"
    )
    document = decode_cluster(
        xml,
        registry=global_registry(),
        resolve_out=lambda index: None,
        resolve_extern=lambda attrs: ("ext", attrs["cid"], attrs["soid"]),
    )
    assert document.objects[1].next == ("ext", "4", "9")


def test_outbound_proxies_by_index():
    space_mod = __import__("tests.helpers", fromlist=["make_space"])
    space = space_mod.make_space()
    handle = space.ingest(
        space_mod.build_chain(10), cluster_size=5, root_name="h"
    )
    cluster = space.clusters()[1]
    members = {oid: space._objects[oid] for oid in cluster.oids}
    outbound = []

    def outbound_index_of(proxy):
        if proxy not in [existing for existing in outbound]:
            outbound.append(proxy)
        return len(outbound) - 1

    xml, _digest = encode_cluster_canonical(
        sid=1, space="t", epoch=1, objects=members,
        oid_of=lambda o: o._obi_oid, outbound_index_of=outbound_index_of,
    )
    assert len(outbound) == 1  # one boundary edge to cluster 2
    document = decode_cluster(
        xml, registry=global_registry(), resolve_out=lambda i: outbound[i]
    )
    assert len(document.objects) == 5
