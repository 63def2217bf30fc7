"""Persistence: hibernate / restore."""

from pathlib import Path

import pytest

from repro.core.hibernate import hibernate, restore
from repro.devices import InMemoryStore
from repro.errors import CodecError, SwapStoreUnavailableError
from repro.wire.canonical import canonical_text
from tests.helpers import Holder, Node, build_chain, chain_values, make_space


@pytest.fixture
def populated(space):
    handle = space.ingest(build_chain(30), cluster_size=10, root_name="h")
    space.set_root("config", {"retries": 3, "tags": ["a", "b"]})
    return space, handle


def test_roundtrip_values_preserved(populated, tmp_path):
    space, handle = populated
    handle.set_value(777)
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    assert chain_values(revived.get_root("h")) == [777] + list(range(1, 30))
    assert revived.get_root("config") == {"retries": 3, "tags": ["a", "b"]}
    revived.verify_integrity()


def test_original_space_untouched(populated, tmp_path):
    space, handle = populated
    before_objects = space.object_count()
    hibernate(space, tmp_path)
    assert space.object_count() == before_objects
    assert chain_values(handle) == list(range(30))
    space.verify_integrity()


def test_cluster_layout_preserved(populated, tmp_path):
    space, _ = populated
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    assert sorted(revived.clusters()) == sorted(space.clusters())
    for sid, cluster in space.clusters().items():
        assert revived.clusters()[sid].oids == cluster.oids


def test_swapped_cluster_captured(populated, tmp_path):
    space, handle = populated
    space.swap_out(2)
    hibernate(space, tmp_path)
    assert space.clusters()[2].is_swapped  # snapshot did not reload it
    revived = restore(tmp_path)
    assert revived.clusters()[2].is_resident
    assert revived.clusters()[2].epoch == 1  # epoch preserved
    assert chain_values(revived.get_root("h")) == list(range(30))


def test_revived_space_swaps_and_collects(populated, tmp_path):
    space, _ = populated
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    revived.manager.add_store(InMemoryStore("fresh"))
    revived.swap_out(2)
    assert chain_values(revived.get_root("h")) == list(range(30))
    revived.del_root("h")
    revived.del_root("config")
    revived.gc()
    assert revived.object_count() == 0
    revived.verify_integrity()


def test_new_ids_do_not_collide_after_restore(populated, tmp_path):
    space, _ = populated
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    fresh = revived.ingest(build_chain(5), cluster_size=5, root_name="new")
    revived.verify_integrity()
    assert chain_values(fresh) == list(range(5))
    new_sid = revived.sid_of(fresh)
    assert new_sid not in space.clusters()  # a genuinely new sid


def test_roots_into_cluster_zero(tmp_path):
    space = make_space()
    space.set_root("global", Node(42))
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    assert revived.get_root("global").get_value() == 42
    revived.verify_integrity()


def test_container_fields_and_shared_structure(tmp_path):
    space = make_space()
    holder = Holder()
    shared = Node(7)
    holder.items.extend([shared, shared])
    holder.index["n"] = shared
    space.ingest(holder, cluster_size=1, root_name="holder")
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    revived_holder = revived.get_root("holder")
    first = revived_holder.item_at(0)
    second = revived_holder.item_at(1)
    assert first == second  # sharing preserved
    assert revived_holder.get("n") == first


def test_pending_replication_proxy_rejected(tmp_path):
    from repro.replication import DirectServerClient, ObjectServer, Replicator

    server = ObjectServer()
    server.publish("list", build_chain(20), cluster_size=10)
    space = make_space()
    Replicator(space, DirectServerClient(server)).replicate("list")
    with pytest.raises(CodecError, match="replication proxy"):
        hibernate(space, tmp_path)


def test_restore_requires_manifest(tmp_path):
    with pytest.raises(CodecError, match="manifest"):
        restore(tmp_path)


def test_heap_capacity_override(populated, tmp_path):
    space, _ = populated
    hibernate(space, tmp_path)
    revived = restore(tmp_path, heap_capacity=1 << 22)
    assert revived.heap.capacity == 1 << 22


def test_double_hibernate_is_deterministic(populated, tmp_path):
    space, _ = populated
    hibernate(space, tmp_path / "one")
    hibernate(space, tmp_path / "two")
    first = (tmp_path / "one" / "cluster-1.xml").read_text()
    second = (tmp_path / "two" / "cluster-1.xml").read_text()
    assert first == second


# -- a directory written by the ElementTree encoder -------------------------------
# fixtures/hibernated_etree was written by ``hibernate`` when it built
# ElementTree documents: attributes in insertion order, ``<none />``,
# ``<ref oid="6" />``.  Cluster 2 was swapped out at the time; the manifest
# holds a root dict and a root list.

FIXTURE = Path(__file__).parent / "fixtures" / "hibernated_etree"


def test_restores_a_directory_written_by_elementtree():
    revived = restore(FIXTURE)
    assert revived.name == "fixture"
    assert chain_values(revived.get_root("h")) == [99] + list(range(1, 12))
    assert revived.clusters()[2].epoch == 1
    holder = revived.get_root("holder")
    assert [holder.item_at(index) for index in range(holder.count())] == [
        "", "a&b<c>", None, 2.5, b"\x00b", (1, "t")
    ]
    assert holder.get("k") == {1, 2}
    assert revived.get_root("config") == {
        "retries": 3, "tags": ["a", "b"], "none": None, "empty": ""
    }
    assert revived.get_root("order") == [1, "two", None]
    revived.verify_integrity()


def test_restore_rejects_a_cluster_whose_count_disagrees(tmp_path):
    space = make_space()
    space.ingest(build_chain(20), cluster_size=5, root_name="h")
    hibernate(space, tmp_path)
    path = tmp_path / "cluster-4.xml"
    text = path.read_text(encoding="utf-8")
    assert 'count="5"' in text
    last = text.index('<object class="Node" oid="20">')
    text = text[:last] + "</hibernated-cluster>"
    path.write_text(text.replace('<ref oid="20"/>', "<none/>"), encoding="utf-8")
    with pytest.raises(CodecError, match="count attribute says 5"):
        restore(tmp_path)
    # without a count the shortened document restores
    path.write_text(
        path.read_text(encoding="utf-8").replace(' count="5"', ""),
        encoding="utf-8",
    )
    assert chain_values(restore(tmp_path).get_root("h")) == list(range(19))


def test_rehibernating_the_fixture_writes_its_canonical_form(tmp_path):
    hibernate(restore(FIXTURE), tmp_path)
    for path in sorted(FIXTURE.iterdir()):
        written = (tmp_path / path.name).read_text(encoding="utf-8")
        assert written == canonical_text(path.read_text(encoding="utf-8")), path.name


# -- the stored copy of a swapped cluster is verified ----------------------------


def _mirrored(tmp_path, holders=2):
    space = make_space(with_store=False)
    stores = [InMemoryStore(f"store-{index}") for index in range(holders)]
    for store in stores:
        space.manager.add_store(store)
    space.manager.replication_factor = holders
    space.ingest(build_chain(20), cluster_size=5, root_name="h")
    location = space.swap_out(2)
    return space, space.manager.bindings_for(2), location.key


def test_hibernate_rejects_an_altered_only_copy(tmp_path):
    space, (holder,), key = _mirrored(tmp_path, holders=1)
    holder.store(key, holder.fetch(key).replace("<int>7</int>", "<int>9999</int>"))
    with pytest.raises(SwapStoreUnavailableError, match="digest mismatch"):
        hibernate(space, tmp_path)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda holder, key: holder.store(
            key, holder.fetch(key).replace("<int>7</int>", "<int>9999</int>")
        ),
        lambda holder, key: holder.store(key, holder.fetch(key)[:-9]),
        lambda holder, key: holder.drop(key),
    ],
    ids=["altered", "truncated", "missing"],
)
def test_hibernate_fails_over_past_a_bad_copy(tmp_path, spoil):
    space, (first, second), key = _mirrored(tmp_path)
    spoil(first, key)
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    assert chain_values(revived.get_root("h")) == list(range(20))


def test_hibernate_reads_a_holders_own_spelling(tmp_path):
    space, (holder,), key = _mirrored(tmp_path, holders=1)
    holder.store(key, holder.fetch(key).replace("><", ">\n  <"))
    hibernate(space, tmp_path)
    assert chain_values(restore(tmp_path).get_root("h")) == list(range(20))


# -- root names -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["ctl\x01", "tab\there", "line\nbreak", "cr\r"])
def test_a_root_name_xml_cannot_carry_is_refused_before_writing(tmp_path, name):
    space = make_space()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.set_root(name, 1)
    image = tmp_path / "image"
    with pytest.raises(CodecError, match="cannot be written"):
        hibernate(space, image)
    assert not image.exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    with pytest.raises(CodecError):
        hibernate(space, existing)
    assert list(existing.iterdir()) == []


def test_odd_but_writable_root_names_round_trip(tmp_path):
    space = make_space()
    names = ['a&b "q" <x>', "", "é{}'\\", "sp ace"]
    for value, name in enumerate(names):
        space.set_root(name, value)
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    assert revived.root_names() == names
    assert [revived.get_root(name) for name in names] == list(range(len(names)))
