"""The background scrubber: verification, repair, orphan collection."""

from repro.core.space import Space
from repro.devices import InMemoryStore
from repro.events import ReplicaCorruptEvent, ScrubCompletedEvent
from repro.faults import FaultInjector, FaultPlan, FlakyStore, mangle_payload
from repro.resilience import ResilienceConfig
from tests.helpers import build_chain, chain_values


class CountingStore(InMemoryStore):
    """An InMemoryStore that counts payload fetches and probes."""

    def __init__(self, device_id):
        super().__init__(device_id)
        self.fetches = 0
        self.digest_probes = 0
        self.contains_probes = 0

    def fetch(self, key):
        self.fetches += 1
        return super().fetch(key)

    def digest(self, key):
        self.digest_probes += 1
        return super().digest(key)

    def contains(self, key):
        self.contains_probes += 1
        return super().contains(key)


class LegacyStore(InMemoryStore):
    """No ``digest`` (and no ``contains``): the paper's truly dumb store."""

    digest = property()  # type: ignore[assignment]
    contains = property()  # type: ignore[assignment]

    def __init__(self, device_id):
        super().__init__(device_id)
        self.fetches = 0

    def fetch(self, key):
        self.fetches += 1
        return super().fetch(key)


def _space(n_stores=3, factor=3, store_cls=InMemoryStore, **config):
    space = Space("scrub", heap_capacity=1 << 20)
    stores = [store_cls(f"s{i}") for i in range(n_stores)]
    for store in stores:
        space.manager.add_store(store)
    space.manager.enable_resilience(
        ResilienceConfig(replication_factor=factor, **config)
    )
    return space, stores


def _swap_out_all(space):
    sids = [sid for sid in sorted(space.clusters()) if sid != 0]
    for sid in sids:
        if space.clusters()[sid].swappable():
            space.swap_out(sid)
    return sids


def test_tick_honors_the_scrub_interval():
    space, _ = _space(scrub_interval_s=30.0)
    scrubber = space.manager.resilience.scrubber
    assert scrubber.tick() is not None  # first pass always due
    assert scrubber.tick() is None  # no simulated time has passed
    space.clock.advance(31.0)
    assert scrubber.tick() is not None
    assert space.manager.stats.scrub_ticks == 2


def test_scrub_emits_a_completion_event():
    space, _ = _space()
    space.manager.resilience.scrubber.tick(force=True)
    event = space.bus.last(ScrubCompletedEvent)
    assert event is not None and event.space == "scrub"


def test_digest_sampling_quarantines_and_repairs_at_rest_rot():
    space, stores = _space(n_stores=4, factor=3)
    handle = space.ingest(build_chain(10), cluster_size=10, root_name="h")
    (sid,) = _swap_out_all(space)
    record = space.manager.resilience.placement.get(sid)
    victim_id = sorted(record.active())[0]
    victim = next(s for s in stores if s.device_id == victim_id)
    victim._data[record.key] = mangle_payload(victim._data[record.key])

    space.manager.resilience.scrubber.run_until_stable()
    record = space.manager.resilience.placement.get(sid)
    # the rotted copy was quarantined, dropped, and replaced
    assert space.manager.stats.replicas_quarantined == 1
    assert space.manager.stats.replicas_repaired >= 1
    assert record.live_count >= 3
    assert not record.quarantined()
    # whatever the victim holds now (possibly a repaired copy), it is intact
    if record.key in victim._data:
        assert victim.digest(record.key) == record.digest
    event = space.bus.last(ReplicaCorruptEvent)
    assert event.source == "scrub" and event.device_id == victim_id
    assert chain_values(handle) == list(range(10))
    space.verify_integrity()


def test_scrub_prefers_the_digest_probe_over_fetching():
    space, stores = _space(n_stores=3, factor=3, store_cls=CountingStore)
    space.ingest(build_chain(10), cluster_size=10, root_name="h")
    _swap_out_all(space)
    for store in stores:
        store.fetches = 0
    space.manager.resilience.scrubber.tick(force=True)
    assert sum(s.digest_probes for s in stores) > 0
    assert sum(s.fetches for s in stores) == 0  # integrity checked by probe


def test_legacy_stores_fall_back_to_fetch_and_verify():
    space, stores = _space(n_stores=3, factor=3, store_cls=LegacyStore)
    space.ingest(build_chain(10), cluster_size=10, root_name="h")
    _swap_out_all(space)
    for store in stores:
        store.fetches = 0
    report = space.manager.resilience.scrubber.tick(force=True)
    assert report.verified == 1
    assert sum(s.fetches for s in stores) > 0


def test_orphan_collection_drops_unreferenced_keys_only():
    space, stores = _space(n_stores=3, factor=2)
    space.ingest(build_chain(10), cluster_size=10, root_name="h")
    (sid,) = _swap_out_all(space)
    live_key = space.manager.resilience.placement.get(sid).key
    stores[0].store("scrub/sc-99/e1", "<orphan/>")  # a failed drop left this
    stores[0].store("other-space/sc-1/e1", "<foreign/>")  # not ours

    report = space.manager.resilience.scrubber.tick(force=True)
    assert report.orphans_dropped == 1
    assert space.manager.stats.orphans_collected == 1
    assert "scrub/sc-99/e1" not in stores[0]._data
    assert "other-space/sc-1/e1" in stores[0]._data  # never touch other spaces
    assert live_key in stores[0]._data or live_key in stores[1]._data


def test_orphan_collection_respects_keep_swapped_copies():
    space, stores = _space(n_stores=2, factor=1)
    space.manager.keep_swapped_copies = True
    stores[0].store("scrub/sc-99/e1", "<setaside/>")
    report = space.manager.resilience.scrubber.tick(force=True)
    assert report.orphans_dropped == 0
    assert "scrub/sc-99/e1" in stores[0]._data


def test_under_replication_from_store_death_is_repaired():
    space, stores = _space(n_stores=4, factor=3)
    handle = space.ingest(build_chain(10), cluster_size=10, root_name="h")
    (sid,) = _swap_out_all(space)
    record = space.manager.resilience.placement.get(sid)
    dead_id = sorted(record.active())[0]
    dead = next(s for s in stores if s.device_id == dead_id)
    space.manager.detach_store(dead, dead=True)
    assert space.manager.resilience.placement.get(sid).live_count == 2

    space.manager.resilience.scrubber.run_until_stable()
    record = space.manager.resilience.placement.get(sid)
    assert record.live_count == 3
    assert dead_id not in record.replicas
    assert chain_values(handle) == list(range(10))


def test_clean_noop_swap_out_refreshes_verification():
    """Satellite regression: after a metadata-only clean swap-out the
    scrubber must not re-fetch (or even re-probe) the unmodified
    cluster — the ``contains`` probes of the fast path already
    re-verified it and bumped the verified epoch."""
    space, stores = _space(
        n_stores=3, factor=2, store_cls=CountingStore
    )
    space.manager.enable_fastpath()
    space.ingest(build_chain(10), cluster_size=10, root_name="h")
    (sid,) = _swap_out_all(space)
    space.swap_in(sid)  # no mutation: the cluster stays clean

    space.swap_out(sid)  # clean: metadata-only no-op
    assert space.manager.stats.fastpath_noops == 1
    record = space.manager.resilience.placement.get(sid)
    assert record.verified_epoch == record.epoch

    for store in stores:
        store.fetches = store.digest_probes = 0
    report = space.manager.resilience.scrubber.tick(force=True)
    assert report.verified == 0  # nothing was stale enough to sample
    assert sum(s.fetches for s in stores) == 0
    assert sum(s.digest_probes for s in stores) == 0

    # once the re-verify interval passes, sampling resumes
    space.clock.advance(601.0)
    space.manager.resilience.scrubber.tick(force=True)
    assert sum(s.digest_probes for s in stores) > 0


def test_suspect_replicas_reverify_without_reshipping():
    """A store that departs and rejoins gets its copies re-verified via
    probes — re-activation must not cost a payload re-ship."""
    space, stores = _space(n_stores=3, factor=3, store_cls=CountingStore)
    space.ingest(build_chain(10), cluster_size=10, root_name="h")
    (sid,) = _swap_out_all(space)
    suspect = stores[0]
    space.manager.detach_store(suspect, dead=False)
    assert space.manager.resilience.placement.get(sid).suspects() == [
        suspect.device_id
    ]

    shipped_before = space.manager.stats.bytes_shipped
    space.manager.attach_store(suspect)
    report = space.manager.resilience.scrubber.run_until_stable()
    record = space.manager.resilience.placement.get(sid)
    assert suspect.device_id in record.active()
    assert report.repaired_bytes == 0
    assert space.manager.stats.bytes_shipped == shipped_before
    assert space.manager.resilience.placement.stats.reactivations >= 1


def test_fault_plan_at_rest_corruption_is_caught_by_scrub():
    space = Space("rot", heap_capacity=1 << 20)
    injector = FaultInjector(
        FaultPlan(seed=11, at_rest_corruption_rate=1.0), clock=space.clock
    )
    space.manager.add_store(FlakyStore(InMemoryStore("rotting"), injector))
    clean = InMemoryStore("clean")
    space.manager.add_store(clean)
    space.manager.enable_resilience(ResilienceConfig(replication_factor=2))
    space.ingest(build_chain(10), cluster_size=10, root_name="h")
    _swap_out_all(space)
    assert injector.stats.at_rest_corruptions >= 1

    space.manager.resilience.scrubber.tick(force=True)
    assert space.manager.stats.replicas_quarantined >= 1
    event = space.bus.last(ReplicaCorruptEvent)
    assert event is not None and event.device_id == "rotting"
