"""The swap archive (versioning / reconciliation extension)."""

import pytest

from repro.core.archive import SwapArchive
from repro.devices import InMemoryStore
from repro.errors import SwapStoreUnavailableError
from tests.helpers import build_chain, chain_values, make_space


@pytest.fixture
def archived(space):
    archive = SwapArchive(space)
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    return space, archive, handle


def test_epochs_recorded(archived):
    space, archive, handle = archived
    space.swap_out(2)
    chain_values(handle)  # reload
    space.swap_out(2)
    records = archive.epochs(2)
    assert [record.epoch for record in records] == [1, 2]
    assert archive.latest(2).epoch == 2


def test_retained_copies_stay_on_store(archived):
    space, archive, handle = archived
    store = space.manager.available_stores()[0]
    space.swap_out(2)
    chain_values(handle)
    assert len(store.keys()) == 1  # epoch 1 retained after reload


def test_fetch_xml_verified(archived):
    space, archive, handle = archived
    space.swap_out(2)
    chain_values(handle)
    record = archive.latest(2)
    text = archive.fetch_xml(record)
    assert text.startswith("<swap-cluster")


def test_inspect_shows_field_values(archived):
    space, archive, handle = archived
    raw = space.resolve(handle)
    space.swap_out(2)
    record = archive.latest(2)
    snapshot = archive.inspect(record)
    assert len(snapshot) == 5
    values = sorted(fields["value"] for fields in snapshot.values())
    assert values == [5, 6, 7, 8, 9]
    # intra-cluster refs are symbolic
    ref_fields = [
        fields["next"] for fields in snapshot.values()
        if isinstance(fields["next"], tuple) and fields["next"][0] == "ref"
    ]
    assert len(ref_fields) == 4


def test_diff_between_epochs(archived):
    space, archive, handle = archived
    cursor = handle
    for _ in range(5):
        cursor = cursor.get_next()  # node 5, in cluster 2
    space.swap_out(2)
    chain_values(handle)  # reload epoch 1
    cursor = handle
    for _ in range(5):
        cursor = cursor.get_next()
    cursor.set_value(999)
    space.swap_out(2)  # epoch 2 with the change
    records = archive.epochs(2)
    changes = archive.diff(records[0], records[1])
    assert len(changes) == 1
    (oid, delta), = changes.items()
    assert delta == {"value": (5, 999)}


def test_diff_requires_same_cluster(archived):
    space, archive, handle = archived
    space.swap_out(1)
    chain_values(handle)
    space.swap_out(2)
    from repro.errors import CodecError

    with pytest.raises(CodecError):
        archive.diff(archive.latest(1), archive.latest(2))


def test_prune_drops_old_epochs(archived):
    space, archive, handle = archived
    store = space.manager.available_stores()[0]
    for _ in range(3):
        space.swap_out(2)
        chain_values(handle)
    assert len(store.keys()) == 3
    dropped = archive.prune(2, keep_last=1)
    assert dropped == 2
    assert len(store.keys()) == 1
    assert len(archive.epochs(2)) == 1


def test_fetch_after_holder_vanishes(archived):
    space, archive, handle = archived
    store = space.manager.available_stores()[0]
    space.swap_out(2)
    record = archive.latest(2)
    store.drop(record.key)
    with pytest.raises(SwapStoreUnavailableError):
        archive.fetch_xml(record)


def test_archived_bytes(archived):
    space, archive, handle = archived
    space.swap_out(2)
    assert archive.archived_bytes() == archive.latest(2).xml_bytes


def _mirrored_archive():
    space = make_space(with_store=False)
    for index in range(2):
        space.manager.add_store(InMemoryStore(f"s{index + 1}"))
    space.manager.replication_factor = 2
    archive = SwapArchive(space)
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    return space, archive, archive.latest(2)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda text: text[: len(text) // 2],
        lambda text: text.replace("<int>7</int>", "<int>70</int>"),
        lambda text: "not xml at all",
    ],
    ids=["truncated", "altered", "garbage"],
)
def test_fetch_xml_skips_a_bad_copy(spoil):
    space, archive, record = _mirrored_archive()
    first, second = space.manager.bindings_for(2)
    good = first.fetch(record.key)
    first.store(record.key, spoil(good))
    assert archive.fetch_xml(record) == good
    assert archive.inspect(record)[8]["value"] == 7
    second.store(record.key, spoil(good))
    with pytest.raises(SwapStoreUnavailableError, match="digest mismatch"):
        archive.fetch_xml(record)


def test_inspect_reads_a_holders_own_spelling(archived):
    space, archive, handle = archived
    space.swap_out(2)
    record = archive.latest(2)
    store = space.manager.available_stores()[0]
    canonical = archive.inspect(record)
    store.store(record.key, store.fetch(record.key).replace("><", ">\n  <"))
    assert archive.inspect(record) == canonical
