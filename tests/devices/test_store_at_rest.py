"""Canonical XML at rest: bitrot shows up in digests, prefixes account bytes.

``digest`` is the scrubber's cheap integrity probe and ``used_by_prefix``
reads one space's footprint from its key prefix, so both are checked
against what each store kind actually holds.
"""

import pytest

from repro.comm.transport import compress_payload
from repro.devices import InMemoryStore
from repro.devices.store import UNREADABLE_DIGEST, FileStore, XmlStoreDevice
from repro.errors import TransportError
from repro.wire.canonical import digest_of_canonical, verify_payload
from repro.wire.delta import encode_cluster_delta
from repro.wire.xmlcodec import encode_cluster_canonical
from tests.helpers import Node


def _oid_of(obj):
    return obj._test_oid


def _members(n=3):
    members = {}
    previous = None
    for oid in range(1, n + 1):
        node = Node(oid)
        object.__setattr__(node, "_test_oid", oid)
        if previous is not None:
            previous.next = node
        members[oid] = node
        previous = node
    return members


def _outbound():
    collected = []

    def index_of(proxy):
        if proxy not in collected:
            collected.append(proxy)
        return collected.index(proxy)

    return index_of


def _full(members, epoch=1):
    return encode_cluster_canonical(
        sid=1,
        space="t",
        epoch=epoch,
        objects=members,
        oid_of=_oid_of,
        outbound_index_of=_outbound(),
    )


def _delta(members, dirty, base_epoch, epoch):
    text, _ = encode_cluster_delta(
        sid=1,
        space="t",
        base_epoch=base_epoch,
        epoch=epoch,
        objects={oid: members[oid] for oid in dirty},
        dead_oids=set(),
        member_oids=set(members),
        oid_of=_oid_of,
        outbound_index_of=_outbound(),
    )
    return text


def _flip(data: bytes, mask: int = 0x01) -> bytes:
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ mask]) + data[middle + 1 :]


def _make(kind, tmp_path):
    if kind == "memory":
        return InMemoryStore("s")
    if kind == "file":
        return FileStore(tmp_path, device_id="s")
    return XmlStoreDevice("s", capacity=1 << 20)


def _ship(store, key, text, compression):
    store.store_stream(key, [compress_payload(text, compression)], compression)


# -- at-rest rot -------------------------------------------------------------


@pytest.mark.parametrize("kind", ["memory", "xml-zlib", "file"])
def test_rotted_payload_changes_the_digest(kind, tmp_path):
    store = _make(kind, tmp_path)
    text, digest = _full(_members())
    compression = "zlib" if kind == "xml-zlib" else None
    _ship(store, "k", text, compression)
    assert store.digest("k") == digest

    if kind == "memory":
        store._data["k"] = _flip(text.encode("utf-8")).decode("utf-8")
    elif kind == "file":
        path = store._paths["k"]
        path.write_bytes(_flip(path.read_bytes()))
    else:
        data, held_compression = store._data["k"]
        store._data["k"] = (_flip(data), held_compression)

    probed = store.digest("k")
    assert probed != digest
    if kind == "xml-zlib":
        # the compressed frames no longer inflate: nothing to hash
        assert probed == UNREADABLE_DIGEST
        with pytest.raises(TransportError):
            store.fetch("k")
    else:
        assert probed == digest_of_canonical(store.fetch("k"))
        assert not verify_payload(store.fetch("k"), digest)


@pytest.mark.parametrize("kind", ["xml-zlib", "xml", "file"])
def test_undecodable_bytes_probe_as_unreadable(kind, tmp_path):
    store = _make(kind, tmp_path)
    text, digest = _full(_members())
    compression = "zlib" if kind == "xml-zlib" else None
    _ship(store, "k", text, compression)

    if kind == "file":
        path = store._paths["k"]
        path.write_bytes(_flip(path.read_bytes(), 0xFF))
    else:
        data, held_compression = store._data["k"]
        store._data["k"] = (_flip(data, 0xFF), held_compression)

    assert store.digest("k") == UNREADABLE_DIGEST


def test_rot_under_a_delta_base_surfaces_at_the_chain_tip():
    store = XmlStoreDevice("s", capacity=1 << 20)
    members = _members()
    base, _ = _full(members, epoch=1)
    _ship(store, "base", base, "zlib")
    members[2].value = 99
    delta = _delta(members, dirty={2}, base_epoch=1, epoch=2)
    store.store_delta(
        "tip",
        1,
        [compress_payload(delta, "zlib")],
        base_key="base",
        compression="zlib",
    )
    _applied, tip_digest = _full(members, epoch=2)
    assert store.digest("tip") == tip_digest

    data, compression = store._data["base"]
    store._data["base"] = (_flip(data), compression)
    assert store.digest("base") == UNREADABLE_DIGEST
    assert store.digest("tip") == UNREADABLE_DIGEST


# -- used_by_prefix ----------------------------------------------------------


def test_memory_used_by_prefix_counts_full_and_delta_text():
    store = InMemoryStore("s")
    members = _members()
    base, _ = _full(members, epoch=1)
    members[2].value = 99
    delta = _delta(members, dirty={2}, base_epoch=1, epoch=2)
    other, _ = _full(_members(5), epoch=1)
    _ship(store, "a/sc-1/e1", base, None)
    store.store_delta(
        "a/sc-1/e2", 1, [delta.encode("utf-8")], base_key="a/sc-1/e1"
    )
    _ship(store, "ab/sc-1/e1", other, None)

    assert store.used_by_prefix("a/") == len(base.encode("utf-8")) + len(
        delta.encode("utf-8")
    )
    assert store.used_by_prefix("ab/") == len(other.encode("utf-8"))
    assert store.used_by_prefix("c/") == 0


def test_device_used_by_prefix_counts_bytes_at_rest():
    store = XmlStoreDevice("s", capacity=1 << 20)
    members = _members()
    base, _ = _full(members, epoch=1)
    members[2].value = 99
    delta = _delta(members, dirty={2}, base_epoch=1, epoch=2)
    other, _ = _full(_members(5), epoch=1)
    base_bytes = compress_payload(base, "zlib")
    delta_bytes = compress_payload(delta, "zlib")
    store.store_stream("a/sc-1/e1", [base_bytes], "zlib")
    store.store_delta(
        "a/sc-1/e2",
        1,
        [delta_bytes],
        base_key="a/sc-1/e1",
        compression="zlib",
    )
    store.store("ab/sc-1/e1", other)

    assert store.used_by_prefix("a/") == len(base_bytes) + len(delta_bytes)
    assert store.used_by_prefix("ab/") == len(other.encode("utf-8"))
    assert store.used_by_prefix("c/") == 0
    assert store.used_by_prefix("a") == store.used


def test_file_used_by_prefix_counts_bytes_on_the_card(tmp_path):
    store = FileStore(tmp_path, device_id="s")
    base, _ = _full(_members(), epoch=1)
    other, _ = _full(_members(5), epoch=1)
    _ship(store, "a/sc-1/e1", base, "zlib")
    store.store("ab/sc-1/e1", other)

    assert store.used_by_prefix("a/") == len(base.encode("utf-8"))
    assert store.used_by_prefix("ab/") == len(other.encode("utf-8"))
    assert store.used_by_prefix("c/") == 0
    store.drop("a/sc-1/e1")
    assert store.used_by_prefix("a/") == 0
