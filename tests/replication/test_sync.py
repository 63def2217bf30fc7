"""Push/pull replica reintegration."""

import pytest

from repro.comm import LoopbackLink, WebServiceClient
from repro.errors import SyncConflictError, SyncError
from repro.replication import DirectServerClient, ObjectServer, Replicator
from repro.replication.server import WsServerClient
from repro.replication.sync import ReplicaSync
from tests.helpers import Node, build_chain, chain_values, make_space


def _setup(n=30, cluster_size=10, ws=False):
    server = ObjectServer()
    master = build_chain(n)
    server.publish("data", master, cluster_size=cluster_size)
    space = make_space()
    client = (
        WsServerClient(WebServiceClient(server.as_endpoint(), LoopbackLink()))
        if ws
        else DirectServerClient(server)
    )
    replicator = Replicator(space, client)
    handle = replicator.replicate("data")
    chain_values(handle)  # materialize everything
    sync = ReplicaSync(replicator)
    return server, master, space, replicator, handle, sync


def test_clean_replica_is_not_dirty():
    server, master, space, replicator, handle, sync = _setup()
    assert sync.dirty_clusters() == []


def test_local_write_marks_dirty():
    server, master, space, replicator, handle, sync = _setup()
    handle.set_value(999)
    root_cid = server.describe_root("data").root_cid
    assert sync.dirty(root_cid)
    assert sync.dirty_clusters() == [root_cid]


def test_push_updates_master():
    server, master, space, replicator, handle, sync = _setup()
    handle.set_value(999)
    root_cid = server.describe_root("data").root_cid
    result = sync.push(root_cid)
    assert result.accepted and result.version == 2
    assert master.value == 999
    assert not sync.dirty(root_cid)


def test_push_preserves_master_topology():
    server, master, space, replicator, handle, sync = _setup()
    # re-point the replica's head to skip one node, then push
    second_next = handle.get_next().get_next()
    handle.next = second_next
    root_cid = server.describe_root("data").root_cid
    sync.push(root_cid)
    assert master.next.value == 2  # master edge re-pointed
    # cross-cluster master edges stay raw master references
    cursor = master
    count = 0
    while cursor is not None:
        cursor = cursor.next
        count += 1
    assert count == 29  # one node skipped


def test_push_conflict_detected():
    server, master, space, replicator, handle, sync = _setup()
    root_cid = server.describe_root("data").root_cid
    # another device pushes first
    other_space = make_space("other")
    other_repl = Replicator(other_space, DirectServerClient(server))
    other_handle = other_repl.replicate("data")
    other_sync = ReplicaSync(other_repl)
    other_handle.set_value(111)
    other_sync.push(root_cid)

    handle.set_value(222)
    with pytest.raises(SyncConflictError):
        sync.push(root_cid)
    assert master.value == 111  # the refused push changed nothing


def test_pull_after_conflict_then_push():
    server, master, space, replicator, handle, sync = _setup()
    root_cid = server.describe_root("data").root_cid
    other_repl = Replicator(make_space("other"), DirectServerClient(server))
    other_handle = other_repl.replicate("data")
    other_sync = ReplicaSync(other_repl)
    other_handle.set_value(111)
    other_sync.push(root_cid)

    handle.set_value(222)
    with pytest.raises(SyncConflictError):
        sync.push(root_cid)
    version = sync.pull(root_cid, overwrite=True)
    assert version == 2
    assert handle.get_value() == 111  # local replica refreshed
    handle.set_value(222)
    result = sync.push(root_cid)  # now based on the current version
    assert result.accepted
    assert master.value == 222


def test_pull_refuses_to_clobber_dirty_replica():
    server, master, space, replicator, handle, sync = _setup()
    root_cid = server.describe_root("data").root_cid
    handle.set_value(999)
    with pytest.raises(SyncConflictError):
        sync.pull(root_cid)


def test_pull_preserves_handles_and_proxies():
    server, master, space, replicator, handle, sync = _setup()
    root_cid = server.describe_root("data").root_cid
    master.value = 424242  # master-side change
    server._graph("data").versions[root_cid] += 1
    sync.pull(root_cid)
    assert handle.get_value() == 424242  # the old handle sees new state
    assert chain_values(space.get_root("data"))[0] == 424242
    space.verify_integrity()


def test_push_swapped_cluster_reloads_first():
    server, master, space, replicator, handle, sync = _setup()
    root_cid = server.describe_root("data").root_cid
    handle.set_value(7)
    space.swap_out(space.sid_of(handle))
    result = sync.push(root_cid)
    assert result.accepted
    assert master.value == 7


def test_push_rejects_device_created_objects():
    server, master, space, replicator, handle, sync = _setup()
    root_cid = server.describe_root("data").root_cid
    raw_head = space.resolve(handle)
    space.attach(raw_head, "next", Node(12345))  # absorbed new object
    with pytest.raises(SyncError, match="device-created"):
        sync.push(root_cid)


def test_push_unknown_cluster():
    server, master, space, replicator, handle, sync = _setup()
    with pytest.raises(SyncError):
        sync.push(999)


def test_status():
    server, master, space, replicator, handle, sync = _setup()
    root_cid = server.describe_root("data").root_cid
    status = sync.status(root_cid)
    assert not status.dirty and not status.behind
    assert status.local_version == status.server_version == 1
    # master moves ahead
    other_repl = Replicator(make_space("other"), DirectServerClient(server))
    other_handle = other_repl.replicate("data")
    other_sync = ReplicaSync(other_repl)
    other_handle.set_value(5)
    other_sync.push(root_cid)
    status = sync.status(root_cid)
    assert status.behind and status.server_version == 2


def test_sync_over_web_service_bridge():
    server, master, space, replicator, handle, sync = _setup(ws=True)
    root_cid = server.describe_root("data").root_cid
    handle.set_value(31337)
    result = sync.push(root_cid)
    assert result.accepted
    assert master.value == 31337
    assert sync.status(root_cid).server_version == 2


def test_push_all():
    server, master, space, replicator, handle, sync = _setup()
    handle.set_value(1)
    tail = handle
    while tail.get_next() is not None:
        tail = tail.get_next()
    tail.set_value(2)
    results = sync.push_all()
    assert len(results) == 2
    assert all(result.accepted for result in results.values())
    assert sync.dirty_clusters() == []


def _count_object_texts(sync):
    calls = []
    write = sync._objects_text

    def counted(cid):
        calls.append(cid)
        return write(cid)

    sync._objects_text = counted
    return calls


def test_push_writes_the_cluster_text_once():
    server, master, space, replicator, handle, sync = _setup()
    handle.set_value(999)
    root_cid = server.describe_root("data").root_cid
    calls = _count_object_texts(sync)
    sync.push(root_cid)
    # the pushed document and the new baseline share one write
    assert calls == [root_cid]
    assert not sync.dirty(root_cid)


def test_push_all_writes_each_cluster_text_once():
    server, master, space, replicator, handle, sync = _setup()
    handle.set_value(1)
    root_cid = server.describe_root("data").root_cid
    calls = _count_object_texts(sync)
    results = sync.push_all()
    assert list(results) == [root_cid]
    # one write per cluster for the dirty check, reused by the push
    assert sorted(calls) == sorted(replicator._soids_by_cid)


# -- pinned digests -----------------------------------------------------------
# Recorded when sync hashed an ElementTree element tree.  Dirty tracking
# compares against baselines taken earlier in a device's life, so the
# hashed text must never drift.

PINNED_CHAIN_DIGESTS = {
    1: "16c70b4df7fbcf4c3d6a81c0861dfc73ca368a0e84dbc08e5c15e880e3297232",
    2: "9c8ecc17d381b8b9189fb07f1c8f26f8c481c1d2be1723a83a7237c31ebc7e40",
    3: "d1f35433fa1dc8efb4320a1bf66a3a01af195cacae5073a1acc1995939d660c1",
}
PINNED_DIRTY_ROOT_DIGEST = (
    "4c4d30f6416f5a09f2491085dd9b9e48c460db5e729a26e4a358c8ae1566ef38"
)
PINNED_RICH_DIGEST = (
    "b86723a7d0298763b45e779d22e7cf99543226a1daefa53830d23702aa931dfd"
)


def test_sync_digest_is_pinned():
    server, master, space, replicator, handle, sync = _setup()
    assert {
        cid: sync._digest(cid) for cid in sorted(replicator._soids_by_cid)
    } == PINNED_CHAIN_DIGESTS
    handle.set_value(999)
    root_cid = server.describe_root("data").root_cid
    assert sync._digest(root_cid) == PINNED_DIRTY_ROOT_DIGEST


def test_sync_digest_of_every_wire_tag_is_pinned():
    from tests.replication.test_server import rich_replica

    server, descriptor, space, replicator = rich_replica()
    sync = ReplicaSync(replicator)
    assert sync._digest(descriptor.root_cid) == PINNED_RICH_DIGEST
