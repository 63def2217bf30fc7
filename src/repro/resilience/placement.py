"""Replica placement: where each swapped cluster's copies live.

The paper detaches live state onto "any nearby dumb storage device" —
devices that walk away, die, and rot bits at rest.  One copy on one
store is therefore one departure away from data loss.  This module
turns swap-out into *placement*: ``k`` replicas across distinct
stores, chosen health- and capacity-aware with anti-affinity across
``placement_group``s (two copies on the same rack/owner are one power
cable away from being one copy), and a :class:`PlacementMap` tracking
every swapped cluster's replica set, payload digest and epoch.

The map is the durability ledger the :class:`~repro.resilience.scrub.
Scrubber` works from: replicas move between three states —

* ``ACTIVE`` — believed present and correct;
* ``SUSPECT`` — the store departed or its circuit opened; the copy may
  still exist and is re-verified (not re-shipped) when the store heals;
* ``QUARANTINED`` — a digest check failed against this copy; it no
  longer counts toward replication and the scrubber drops + replaces it.

After a crash the map is rebuilt from the write-ahead journal plus the
stores' own inventory (:meth:`~repro.core.manager.SwappingManager.
recover_placement`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import TransportError


class ReplicaState(enum.Enum):
    ACTIVE = "active"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"


@dataclass
class PlacementRecord:
    """Replica set + integrity metadata for one swapped cluster."""

    sid: int
    key: str
    digest: str
    epoch: int
    xml_bytes: int
    #: device_id -> replica state.
    replicas: Dict[str, ReplicaState] = field(default_factory=dict)
    #: device_id -> epoch whose *content* the replica resolves to.  For
    #: full payloads this equals ``epoch``; for delta chains it is the
    #: epoch of the last document the store acknowledged — the delta
    #: path pre-checks it and ships a full payload to any replica whose
    #: applied epoch diverged from the delta's base.
    applied_epochs: Dict[str, int] = field(default_factory=dict)
    #: Last epoch whose replicas passed an end-to-end verification
    #: (scrub probe, fetch+digest, or a clean fast-path ``contains``).
    verified_epoch: int = -1
    #: Simulated time of that verification (scrub re-verifies stale ones).
    verified_at: float = float("-inf")

    def active(self) -> List[str]:
        return [
            device_id
            for device_id, state in self.replicas.items()
            if state is ReplicaState.ACTIVE
        ]

    def suspects(self) -> List[str]:
        return [
            device_id
            for device_id, state in self.replicas.items()
            if state is ReplicaState.SUSPECT
        ]

    def quarantined(self) -> List[str]:
        return [
            device_id
            for device_id, state in self.replicas.items()
            if state is ReplicaState.QUARANTINED
        ]

    @property
    def live_count(self) -> int:
        return len(self.active())

    def describe(self) -> str:
        states = ", ".join(
            f"{device_id}={state.value}"
            for device_id, state in sorted(self.replicas.items())
        )
        return (
            f"sc-{self.sid} key={self.key} epoch={self.epoch} "
            f"[{states}] verified_epoch={self.verified_epoch}"
        )


@dataclass
class PlacementStats:
    records: int = 0
    quarantines: int = 0
    suspects_marked: int = 0
    reactivations: int = 0
    recoveries: int = 0


class PlacementMap:
    """The per-space ledger of swapped-cluster replica sets.

    An optional *observer* (the sharded topology service, when enabled)
    is notified of every replica-set change so it can keep its per-cell
    replication records in step without the manager having to call two
    ledgers at every site.  Observers must never raise.
    """

    def __init__(self) -> None:
        self._records: Dict[int, PlacementRecord] = {}
        self.stats = PlacementStats()
        #: Optional listener with ``on_record_swap_out(record)``,
        #: ``on_forget(record)``, ``on_replica_added(sid, device_id)``
        #: and ``on_replica_removed(sid, device_id)`` hooks (all
        #: optional; missing hooks are skipped).
        self.observer: Optional[Any] = None

    def _notify(self, hook: str, *args: Any) -> None:
        observer = self.observer
        if observer is None:
            return
        method = getattr(observer, hook, None)
        if method is not None:
            method(*args)

    # -- lifecycle ---------------------------------------------------------

    def record_swap_out(
        self,
        sid: int,
        *,
        key: str,
        digest: str,
        epoch: int,
        xml_bytes: int,
        device_ids: Iterable[str],
    ) -> PlacementRecord:
        record = PlacementRecord(
            sid=sid,
            key=key,
            digest=digest,
            epoch=epoch,
            xml_bytes=xml_bytes,
            replicas={
                device_id: ReplicaState.ACTIVE for device_id in device_ids
            },
        )
        if sid not in self._records:
            self.stats.records += 1
        self._records[sid] = record
        self._notify("on_record_swap_out", record)
        return record

    def forget(self, sid: int) -> Optional[PlacementRecord]:
        """The cluster is resident again (or dropped); its map entry dies."""
        record = self._records.pop(sid, None)
        if record is not None:
            self._notify("on_forget", record)
        return record

    def get(self, sid: int) -> Optional[PlacementRecord]:
        return self._records.get(sid)

    def records(self) -> Dict[int, PlacementRecord]:
        return dict(self._records)

    # -- replica state transitions ----------------------------------------

    def add_replica(self, sid: int, device_id: str) -> None:
        record = self._records.get(sid)
        if record is not None:
            record.replicas[device_id] = ReplicaState.ACTIVE
            self._notify("on_replica_added", sid, device_id)

    def remove_replica(self, sid: int, device_id: str) -> None:
        record = self._records.get(sid)
        if record is not None:
            record.replicas.pop(device_id, None)
            self._notify("on_replica_removed", sid, device_id)

    def quarantine(self, sid: int, device_id: str) -> bool:
        """A copy failed its digest check; it no longer counts."""
        record = self._records.get(sid)
        if record is None or device_id not in record.replicas:
            return False
        if record.replicas[device_id] is ReplicaState.QUARANTINED:
            return False
        record.replicas[device_id] = ReplicaState.QUARANTINED
        self.stats.quarantines += 1
        return True

    def mark_device_suspect(self, device_id: str) -> List[int]:
        """The device departed or its circuit opened; its copies may
        still exist.  Returns the sids whose records were touched."""
        affected: List[int] = []
        for sid, record in self._records.items():
            if record.replicas.get(device_id) is ReplicaState.ACTIVE:
                record.replicas[device_id] = ReplicaState.SUSPECT
                self.stats.suspects_marked += 1
                affected.append(sid)
        return affected

    def mark_device_lost(self, device_id: str) -> List[int]:
        """The device is dead for good; its copies are gone."""
        affected: List[int] = []
        for sid, record in self._records.items():
            if device_id in record.replicas:
                del record.replicas[device_id]
                affected.append(sid)
                self._notify("on_replica_removed", sid, device_id)
        return affected

    def reactivate(self, sid: int, device_id: str) -> None:
        """A suspect copy was re-verified on a healed store."""
        record = self._records.get(sid)
        if record is not None and device_id in record.replicas:
            record.replicas[device_id] = ReplicaState.ACTIVE
            self.stats.reactivations += 1

    def record_verified(self, sid: int, epoch: int, now: float) -> None:
        record = self._records.get(sid)
        if record is not None and record.epoch == epoch:
            record.verified_epoch = epoch
            record.verified_at = now

    # -- queries -----------------------------------------------------------

    def under_replicated(self, factor: int) -> List[PlacementRecord]:
        """Records with fewer than ``factor`` active replicas (worst first)."""
        short = [
            record
            for record in self._records.values()
            if record.live_count < factor
        ]
        short.sort(key=lambda record: (record.live_count, record.sid))
        return short

    def current_keys(self) -> Dict[str, set]:
        """device_id -> the set of keys the map expects it to hold."""
        expected: Dict[str, set] = {}
        for record in self._records.values():
            for device_id in record.replicas:
                expected.setdefault(device_id, set()).add(record.key)
        return expected

    def __len__(self) -> int:
        return len(self._records)


#: Prefix of the implicit per-store placement group (see
#: :func:`placement_group_of`; documented in PROTOCOL.md §1e).
IMPLICIT_GROUP_PREFIX = "cell:"


def placement_group_of(store: Any) -> str:
    """Anti-affinity domain (cell) of a store.

    Stores may expose a ``placement_group`` attribute (e.g. every device
    on one desk, or owned by one person, shares a group); without one,
    each device is its own failure domain under the implicit group
    ``cell:<device_id>``.  The prefix keeps the implicit namespace
    disjoint from explicit group names: a bare device-id default would
    silently merge an ungrouped store named ``s3`` into an explicit
    group that happens to be called ``s3``, collapsing two failure
    domains into one.
    """
    group = getattr(store, "placement_group", None)
    if group:
        return group
    device_id = getattr(store, "device_id", None)
    return IMPLICIT_GROUP_PREFIX + (
        device_id if device_id else repr(store)
    )


def health_rank(record: Any) -> Tuple[int, float]:
    """The one health sort key: consecutive failures, then failure *rate*.

    Shared by :func:`plan_placement`, swap-in replica ranking
    (:meth:`~repro.resilience.coordinator.Resilience.rank_replicas`) and
    shard-primary election (:meth:`~repro.topology.service.
    TopologyService.reparent`) — the three orderings must agree or
    holder order scrambles between write and read.  Rate, not net
    count: a net-success score makes the first stores ever used outrank
    idle ones forever (rich-get-richer), funnelling every replica onto
    the same few radios while the rest of the fleet sits dark.
    """
    observed = record.total_failures + record.total_successes
    return (
        record.consecutive_failures,
        record.total_failures / observed if observed else 0.0,
    )


def plan_placement(
    candidates: Iterable[Any],
    nbytes: int,
    count: int,
    *,
    health: Optional[Any] = None,
    exclude: Iterable[str] = (),
    on_probe_failure: Optional[Callable[[Any], None]] = None,
) -> List[Any]:
    """Choose up to ``count`` stores for ``nbytes``, best placement first.

    Ranking is health-aware (fewer consecutive failures first, then
    better success history) and capacity-aware (more free space first);
    selection is anti-affine: a second copy lands in an already-used
    ``placement_group`` only when no unused group has room.  Stores that
    refuse the admission probe are skipped; unreachable probes are
    reported through ``on_probe_failure`` (circuit-breaker feeding).
    """
    excluded = set(exclude)
    admitted: List[Tuple[Tuple, Any]] = []
    for store in candidates:
        device_id = getattr(store, "device_id", None)
        if device_id in excluded:
            continue
        try:
            if not store.has_room(nbytes):
                continue
        except TransportError:
            if on_probe_failure is not None:
                on_probe_failure(store)
            continue
        if health is not None:
            rank = health_rank(health.of(device_id))
        else:
            rank = (0, 0.0)
        free = getattr(store, "free", None)
        admitted.append(((rank, -(free if free is not None else 1 << 62)), store))
    admitted.sort(key=itemgetter(0))

    chosen: List[Any] = []
    used_groups: set = set()
    remaining = [(placement_group_of(store), store) for _, store in admitted]
    while remaining and len(chosen) < count:
        position = 0  # every free group exhausted: co-locate as a last resort
        for index, (group, _store) in enumerate(remaining):
            if group not in used_groups:
                position = index
                break
        group, pick = remaining.pop(position)
        chosen.append(pick)
        used_groups.add(group)
    return chosen
