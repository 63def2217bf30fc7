"""The background scrubber: verify, repair, reclaim.

A replicated swap-out only buys durability if something keeps the
replica sets honest *after* the write: stores depart and rejoin, bits
rot at rest, drops fail and leave orphans behind.  The scrubber is that
something — a clock-driven maintenance pass (:meth:`Scrubber.tick`,
driven by the same simulated clock as the health cool-downs) that each
cycle:

1. **re-verifies suspects** — replicas on stores that departed or
   tripped their circuit are probed (``contains`` + digest probe) once
   the store is admitted again, and reactivated or struck off;
2. **samples digests** — the stalest-verified placement records get an
   end-to-end integrity check against their stores, preferring the
   cheap ``digest`` control probe and falling back to fetch+verify for
   legacy stores; a mismatch quarantines the copy;
3. **repairs** — under-replicated clusters (departures, quarantines,
   degraded-to-local hibernations) are re-replicated from the best
   available source (payload cache, then a verified healthy replica,
   then the local fallback pool) onto fresh anti-affine stores, and
   quarantined copies are dropped;
4. **collects orphans** — keys on reachable stores that no placement
   record, fast-path retention or pending journal entry names are
   dropped (failed ``drop()``s and aborted hand-offs leave these).

Every pass emits one :class:`~repro.events.ScrubCompletedEvent` and is
summarized in a :class:`ScrubReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import (
    HeapExhaustedError,
    RetryExhaustedError,
    StoreFullError,
    TransportError,
    UnknownKeyError,
)
from repro.events import (
    ClusterUnderReplicatedEvent,
    ReplicaCorruptEvent,
    ReplicaRepairedEvent,
    ScrubCompletedEvent,
)
from repro.resilience.placement import PlacementRecord, plan_placement
from repro.wire.canonical import verify_payload

#: Placement records integrity-sampled per scrub pass.
SCRUB_SAMPLE = 4
#: A record verified this recently is skipped by the sampler; clean
#: fast-path swap-outs refresh it so unmodified clusters are not
#: re-fetched by scrub.
REVERIFY_INTERVAL_S = 600.0


@dataclass
class ScrubReport:
    """What one scrub pass did."""

    at_s: float = 0.0
    verified: int = 0
    reactivated: int = 0
    struck_suspects: int = 0
    quarantined: int = 0
    quarantines_dropped: int = 0
    repaired_replicas: int = 0
    repaired_bytes: int = 0
    repromotions: int = 0
    orphans_dropped: int = 0
    under_replicated: int = 0
    unrecoverable: int = 0


class Scrubber:
    """Clock-driven scrub/repair loop for one swapping manager."""

    def __init__(self, manager: Any, resilience: Any) -> None:
        self._manager = manager
        self._resilience = resilience
        self._last_tick: float = float("-inf")
        self.ticks = 0
        self.last_report: Optional[ScrubReport] = None

    # -- plumbing ----------------------------------------------------------

    @property
    def _space(self) -> Any:
        return self._manager._space

    @property
    def _placement(self) -> Any:
        return self._resilience.placement

    def due(self) -> bool:
        now = self._space.clock.now()
        interval = self._resilience.config.scrub_interval_s
        return now - self._last_tick >= interval

    # -- the pass ----------------------------------------------------------

    def tick(self, force: bool = False) -> Optional[ScrubReport]:
        """Run one scrub pass if the interval elapsed (or ``force``)."""
        if not force and not self.due():
            return None
        now = self._space.clock.now()
        self._last_tick = now
        report = ScrubReport(at_s=now)

        span = self._manager._obs_span("scrub.pass", tick=self.ticks)
        with span:
            stores = self._reachable_stores()
            self._verify_suspects(stores, report)
            self._verify_sampled(stores, report, now)
            self._repair(stores, report)
            self._collect_orphans(stores, report)

            rf = self._manager.target_replicas()
            report.under_replicated = len(self._placement.under_replicated(rf))
            span.set_tag("verified", report.verified)
            span.set_tag("repaired", report.repaired_replicas)
            span.set_tag("quarantined", report.quarantined)
            span.set_tag("orphans", report.orphans_dropped)
            span.set_tag("under_replicated", report.under_replicated)
        self.ticks += 1
        self._manager.stats.scrub_ticks += 1
        self.last_report = report
        self._space.bus.emit(
            ScrubCompletedEvent(
                space=self._space.name,
                verified=report.verified,
                reactivated=report.reactivated,
                repaired_replicas=report.repaired_replicas,
                repaired_bytes=report.repaired_bytes,
                quarantined=report.quarantined,
                orphans_dropped=report.orphans_dropped,
                repromotions=report.repromotions,
                under_replicated=report.under_replicated,
            )
        )
        return report

    def run_until_stable(self, max_ticks: int = 16) -> ScrubReport:
        """Force scrub passes until a pass changes nothing (tests/benches)."""
        report = self.tick(force=True)
        for _ in range(max_ticks - 1):
            previous = report
            report = self.tick(force=True)
            if (
                report.repaired_replicas == 0
                and report.reactivated == 0
                and report.orphans_dropped == 0
                and report.quarantines_dropped == 0
                and previous is not None
                and report.under_replicated == previous.under_replicated
            ):
                break
        return report

    # -- store resolution --------------------------------------------------

    def _reachable_stores(self) -> Dict[str, Any]:
        """device_id -> store for every currently-admitted store."""
        stores: Dict[str, Any] = {}
        for store in self._manager.available_stores():
            stores[store.device_id] = store
        fallback = self._resilience._fallback
        if fallback is not None:
            stores.setdefault(fallback.device_id, fallback)
        return stores

    # -- 1. suspect re-verification ---------------------------------------

    def _verify_suspects(self, stores: Dict[str, Any], report: ScrubReport) -> None:
        for sid, record in self._placement.records().items():
            for device_id in record.suspects():
                store = stores.get(device_id)
                if store is None:
                    continue  # still unreachable: stays suspect
                try:
                    if self._copy_intact(store, record):
                        self._placement.reactivate(sid, device_id)
                        self._sync_binding(sid, device_id, store, present=True)
                        report.reactivated += 1
                    else:
                        self._placement.remove_replica(sid, device_id)
                        self._sync_binding(sid, device_id, store, present=False)
                        report.struck_suspects += 1
                except (TransportError, RetryExhaustedError):
                    continue

    # -- 2. digest sampling ------------------------------------------------

    def _verify_sampled(
        self, stores: Dict[str, Any], report: ScrubReport, now: float
    ) -> None:
        candidates: List[PlacementRecord] = [
            record
            for record in self._placement.records().values()
            if record.verified_epoch != record.epoch
            or now - record.verified_at >= REVERIFY_INTERVAL_S
        ]
        candidates.sort(key=lambda record: (record.verified_at, record.sid))
        for record in candidates[:SCRUB_SAMPLE]:
            all_good = True
            probed_any = False
            for device_id in record.active():
                store = stores.get(device_id)
                if store is None:
                    all_good = False
                    continue
                try:
                    intact = self._copy_intact(store, record)
                except (TransportError, RetryExhaustedError):
                    all_good = False
                    continue
                probed_any = True
                if not intact:
                    all_good = False
                    self._note_corrupt(record, device_id, report)
            if all_good and probed_any:
                self._placement.record_verified(record.sid, record.epoch, now)
                report.verified += 1

    def _copy_intact(self, store: Any, record: PlacementRecord) -> bool:
        """Does ``store`` hold an uncorrupted copy of ``record``?

        Prefers the digest control probe (64-byte round trip); legacy
        stores without one pay for a full fetch + verify.
        """
        probe = getattr(store, "contains", None)
        if probe is not None and not probe(record.key):
            return False
        digest_probe = getattr(store, "digest", None)
        if digest_probe is not None:
            try:
                return digest_probe(record.key) == record.digest
            except UnknownKeyError:
                return False
        try:
            text = store.fetch(record.key)
        except UnknownKeyError:
            return False
        return verify_payload(text, record.digest)

    def _note_corrupt(
        self, record: PlacementRecord, device_id: str, report: ScrubReport
    ) -> None:
        if self._placement.quarantine(record.sid, device_id):
            report.quarantined += 1
            self._manager.stats.replicas_quarantined += 1
            self._space.bus.emit(
                ReplicaCorruptEvent(
                    space=self._space.name,
                    sid=record.sid,
                    device_id=device_id,
                    key=record.key,
                    source="scrub",
                )
            )

    # -- 3. repair ---------------------------------------------------------

    def _repair(self, stores: Dict[str, Any], report: ScrubReport) -> None:
        manager = self._manager
        rf = manager.target_replicas()
        fallback = self._resilience._fallback
        fallback_id = fallback.device_id if fallback is not None else None

        for record in list(self._placement.records().values()):
            self._drop_quarantined(record, stores, report)
            needs_promotion = (
                fallback_id is not None and fallback_id in record.replicas
            )
            # the fallback pool is heap, not durability: copies there
            # do not count toward the replication target
            real_active = [
                device_id
                for device_id in record.active()
                if device_id != fallback_id
            ]
            deficit = rf - len(real_active)
            if deficit <= 0 and not needs_promotion:
                continue
            text = self._payload_of(record, stores)
            if text is None:
                if record.live_count == 0:
                    report.unrecoverable += 1
                continue
            shipped = self._replicate(record, text, deficit, stores, report)
            if needs_promotion and (shipped > 0 or deficit <= 0):
                self._repromote(record, fallback, report)

    def _drop_quarantined(
        self, record: PlacementRecord, stores: Dict[str, Any], report: ScrubReport
    ) -> None:
        for device_id in record.quarantined():
            store = stores.get(device_id)
            if store is not None:
                try:
                    store.drop(record.key)
                except (TransportError, UnknownKeyError, RetryExhaustedError):
                    continue  # still unreachable: retry next pass
            self._placement.remove_replica(record.sid, device_id)
            if store is not None:
                self._sync_binding(record.sid, device_id, store, present=False)
            report.quarantines_dropped += 1

    def _payload_of(
        self, record: PlacementRecord, stores: Dict[str, Any]
    ) -> Optional[str]:
        """Obtain the verified canonical payload for a record."""
        fastpath = self._manager.fastpath
        if fastpath is not None:
            cached = fastpath.cache.get(record.digest)
            if cached is not None:
                return cached
        for device_id in record.active() + record.suspects():
            store = stores.get(device_id)
            if store is None:
                continue
            try:
                text = store.fetch(record.key)
            except (TransportError, UnknownKeyError, RetryExhaustedError):
                continue
            if verify_payload(text, record.digest):
                return text
            self._note_corrupt(record, device_id, self.last_report or ScrubReport())
        return None

    def _replicate(
        self,
        record: PlacementRecord,
        text: str,
        deficit: int,
        stores: Dict[str, Any],
        report: ScrubReport,
    ) -> int:
        if deficit <= 0:
            return 0
        manager = self._manager
        resilience = self._resilience
        fallback = resilience._fallback
        nbytes = len(text.encode("utf-8"))
        topology = getattr(manager, "topology", None)
        if topology is not None:
            # shard-aware repair: deficits re-replicate onto the record's
            # own shard holders first, so routing and durability converge
            # on the same stores after a reparent
            existing = set(record.replicas)
            targets = [
                store
                for store in topology.select_for(record.sid, nbytes, deficit + len(existing))
                if store.device_id not in existing
                and (fallback is None or store is not fallback)
            ][:deficit]
        else:
            candidates = [
                store
                for store in manager.available_stores()
                if fallback is None or store is not fallback
            ]
            targets = plan_placement(
                candidates,
                nbytes,
                deficit,
                health=resilience.health,
                exclude=set(record.replicas),
                on_probe_failure=lambda store: resilience.record_failure(
                    store.device_id
                ),
            )
        shipped = 0
        for store in targets:
            try:
                manager._store_payload(store, record.key, text, record.sid)
            except (
                StoreFullError,
                TransportError,
                RetryExhaustedError,
                HeapExhaustedError,
            ):
                continue
            self._placement.add_replica(record.sid, store.device_id)
            # the repair shipped the full current payload, so this
            # replica resolves the record's own epoch
            record.applied_epochs[store.device_id] = record.epoch
            self._sync_binding(record.sid, store.device_id, store, present=True)
            shipped += 1
            report.repaired_replicas += 1
            report.repaired_bytes += record.xml_bytes
            manager.stats.replicas_repaired += 1
            manager.stats.scrub_bytes_repaired += record.xml_bytes
            if topology is not None:
                # rebalance-cost accounting for the topology bench
                topology.stats.repair_replicas += 1
                topology.stats.repair_bytes += record.xml_bytes
            self._space.bus.emit(
                ReplicaRepairedEvent(
                    space=self._space.name,
                    sid=record.sid,
                    device_id=store.device_id,
                    key=record.key,
                    xml_bytes=record.xml_bytes,
                )
            )
        still_short = self._manager.target_replicas() - len(
            [
                device_id
                for device_id in record.active()
                if fallback is None or device_id != fallback.device_id
            ]
        )
        if still_short > 0:
            self._space.bus.emit(
                ClusterUnderReplicatedEvent(
                    space=self._space.name,
                    sid=record.sid,
                    live_replicas=record.live_count,
                    target_replicas=self._manager.target_replicas(),
                    reason="scrub repair incomplete",
                )
            )
        return shipped

    def _repromote(
        self, record: PlacementRecord, fallback: Any, report: ScrubReport
    ) -> None:
        """A degraded-to-local cluster made it back onto real stores:
        release the heap bytes its compressed hibernation occupies."""
        try:
            fallback.drop(record.key)
        except (UnknownKeyError, TransportError):
            pass
        self._placement.remove_replica(record.sid, fallback.device_id)
        self._sync_binding(record.sid, fallback.device_id, fallback, present=False)
        report.repromotions += 1
        self._manager.stats.repromotions += 1

    # -- 4. orphan collection ----------------------------------------------

    def _collect_orphans(self, stores: Dict[str, Any], report: ScrubReport) -> None:
        manager = self._manager
        if manager.keep_swapped_copies:
            return  # set-aside copies are deliberate; nothing is an orphan
        prefix = f"{self._space.name}/"
        keep = self._protected_keys()
        for store in stores.values():
            lister = getattr(store, "keys", None)
            if lister is None:
                continue
            try:
                inventory = list(lister())
            except (TransportError, RetryExhaustedError):
                continue
            for key in inventory:
                if not key.startswith(prefix) or key in keep:
                    continue
                try:
                    store.drop(key)
                except (TransportError, UnknownKeyError, RetryExhaustedError):
                    continue
                report.orphans_dropped += 1
                manager.stats.orphans_collected += 1

    def _protected_keys(self) -> set:
        """Every key some live bookkeeping still names."""
        keep = {
            record.key for record in self._placement.records().values()
        }
        fastpath = self._manager.fastpath
        if fastpath is not None:
            keep.update(key for key, _ in fastpath.retained.values())
            # delta-chain bases: collecting one would orphan every delta
            # standing on it
            for chain in fastpath.chains.values():
                keep.update(chain.keys)
        journal = self._resilience.journal
        keep.update(entry.key for entry in journal.pending())
        return keep

    # -- binding sync ------------------------------------------------------

    def _sync_binding(
        self, sid: int, device_id: str, store: Any, present: bool
    ) -> None:
        """Keep the manager's store-object bindings in step with the map."""
        bindings = self._manager._bindings.get(sid)
        if bindings is None:
            return
        held = [holder for holder in bindings if holder.device_id == device_id]
        if present and not held:
            bindings.append(store)
        elif not present:
            for holder in held:
                bindings.remove(holder)
