"""The master object server."""

import pytest

import hashlib

from repro.comm import LoopbackLink, WebServiceClient
from repro.errors import CodecError, ReplicationError
from repro.replication import Replicator
from repro.replication.server import (
    DirectServerClient,
    ObjectServer,
    WsServerClient,
    parse_replica_document,
)
from repro.wire.canonical import canonical_text
from tests.helpers import Holder, Node, Pair, build_chain, make_space


def test_publish_and_describe():
    server = ObjectServer()
    descriptor = server.publish("list", build_chain(23), cluster_size=5)
    assert descriptor.cluster_count == 5
    assert descriptor.object_count == 23
    assert descriptor.class_name.endswith("Node")
    assert descriptor.root_cid == server.describe_root("list").root_cid


def test_publish_twice_rejected():
    server = ObjectServer()
    server.publish("x", build_chain(3))
    with pytest.raises(ReplicationError):
        server.publish("x", build_chain(3))


def test_unknown_root():
    with pytest.raises(ReplicationError):
        ObjectServer().describe_root("ghost")


def test_fetch_cluster_document_shape():
    server = ObjectServer()
    descriptor = server.publish("list", build_chain(10), cluster_size=5)
    text = server.fetch_cluster("list", descriptor.root_cid)
    cid, frontier, body, version = parse_replica_document(text)
    assert cid == descriptor.root_cid
    assert len(frontier) == 1  # one edge to the second cluster
    assert body.startswith("<swap-cluster")
    assert version == 1


def test_replica_body_is_canonical():
    server = ObjectServer()
    holder = Holder()
    holder.items.extend(["a&b", "", None, 2.5])
    holder.index["k"] = b"\x00bytes"
    descriptor = server.publish("holder", holder, cluster_size=5)
    _, _, body, _ = parse_replica_document(
        server.fetch_cluster("holder", descriptor.root_cid)
    )
    assert body == canonical_text(body)
    assert "<none/>" in body  # ElementTree.tostring would write "<none />"


def test_last_cluster_has_empty_frontier():
    server = ObjectServer()
    server.publish("list", build_chain(10), cluster_size=5)
    last_cid = server.cluster_ids("list")[-1]
    _, frontier, _, _ = parse_replica_document(server.fetch_cluster("list", last_cid))
    assert frontier == []


def test_fetch_unknown_cluster():
    server = ObjectServer()
    server.publish("list", build_chain(5))
    with pytest.raises(ReplicationError):
        server.fetch_cluster("list", 999)


def test_frontier_deduplicates_targets():
    server = ObjectServer()
    shared = Node(7)
    root = Pair(Pair(shared, shared), Pair(shared, None))
    server.publish("diamond", root, cluster_size=3)
    root_cid = server.describe_root("diamond").root_cid
    _, frontier, _, _ = parse_replica_document(server.fetch_cluster("diamond", root_cid))
    soids = [soid for _, soid in frontier]
    assert len(soids) == len(set(soids))


def test_unpublish():
    server = ObjectServer()
    server.publish("x", build_chain(3))
    server.unpublish("x")
    assert server.published_roots() == []


def test_ws_client_parity():
    server = ObjectServer()
    server.publish("list", build_chain(10), cluster_size=5)
    direct = DirectServerClient(server)
    remote = WsServerClient(WebServiceClient(server.as_endpoint(), LoopbackLink()))
    assert remote.describe_root("list") == direct.describe_root("list")
    cid = direct.describe_root("list").root_cid
    assert remote.fetch_cluster("list", cid) == direct.fetch_cluster("list", cid)


def test_clusters_served_counter():
    server = ObjectServer()
    server.publish("list", build_chain(10), cluster_size=5)
    for cid in server.cluster_ids("list"):
        server.fetch_cluster("list", cid)
    assert server.clusters_served == 2


# -- pinned replica body --------------------------------------------------------
# Recorded when the server re-serialized the body through an ElementTree
# round trip.  A device's replica decode reads these bytes, so they must
# never drift.

PINNED_RICH_BODY_DIGEST = (
    "542b664bfa537eb4fc69ee81bae36d6a4e8b34f70aff81943349e7645734472f"
)


def rich_replica():
    """A published holder whose fields use every wire tag, replicated
    onto a device: ``(server, descriptor, space, replicator)``."""
    server = ObjectServer()
    holder = Holder()
    holder.items.extend(
        ["a&b<c>", "", None, 2.5, -0.0, b"\x00bytes", (1, "t"), 'q"uote', "\r\x01", 2**70]
    )
    holder.index["k"] = Node(7)
    holder.index[("t", 1)] = frozenset({"x", "y"})
    holder.fixed = (True, False, {3, 1, 2})
    descriptor = server.publish("holder", holder, cluster_size=1)
    space = make_space("device")
    replicator = Replicator(space, DirectServerClient(server))
    handle = replicator.replicate("holder")
    handle.get("k").get_value()  # materialize the frontier cluster
    return server, descriptor, space, replicator


def test_replica_body_is_pinned():
    server, descriptor, _space, _replicator = rich_replica()
    text = server.fetch_cluster("holder", descriptor.root_cid)
    _, frontier, body, _ = parse_replica_document(text)
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == PINNED_RICH_BODY_DIGEST
    assert len(frontier) == 1
    assert text == canonical_text(text)


def test_foreign_replica_document_reads_like_its_canonical_form():
    server = ObjectServer()
    descriptor = server.publish("list", build_chain(10), cluster_size=5)
    text = server.fetch_cluster("list", descriptor.root_cid)
    pretty = text.replace("><", ">\n  <")
    assert parse_replica_document(pretty) == parse_replica_document(text)


def test_malformed_replica_document():
    server = ObjectServer()
    descriptor = server.publish("list", build_chain(10), cluster_size=5)
    text = server.fetch_cluster("list", descriptor.root_cid)
    for broken in (text[:-5], text.replace("<frontier>", "<frontier x=\"1\">"), "<nope/>"):
        with pytest.raises(CodecError):
            parse_replica_document(broken)
