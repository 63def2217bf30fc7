"""Swap archive: retained epochs for versioning and reconciliation.

Paper, Section 3: a swap-cluster no longer needed "may be dropped from
the swapping node, or **set-aside if their content is still required for
other purposes (consistency, reconciliation, versioning, etc.)**".

The archive records every swap-out epoch (key, digest, holders) and, with
``retain=True``, instructs the manager to keep stored copies after
reload.  Retained epochs can be listed, fetched, inspected field-by-field
(without touching the live graph), diffed across epochs, and pruned.

Full state *rollback* is deliberately not offered: an old epoch's
outbound references index into a replacement array that no longer
exists, so a general rollback cannot be resolved soundly.  Inspection
decodes intra-cluster structure only and reports boundary references
symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.replacement import SwapLocation
from repro.errors import CodecError, SwapStoreUnavailableError, TransportError, UnknownKeyError
from repro.events import SwapOutEvent
from repro.ids import Sid
from repro.wire.canonical import verify_payload
from repro.wire.scan import member_fields, read_fields, scan_once, top_level


@dataclass(frozen=True)
class ArchivedEpoch:
    sid: Sid
    epoch: int
    key: str
    digest: str
    xml_bytes: int
    device_ids: Tuple[str, ...]

    def describe(self) -> str:
        return (
            f"sc-{self.sid} epoch {self.epoch}: {self.xml_bytes} bytes on "
            f"{', '.join(self.device_ids)}"
        )


class SwapArchive:
    """Epoch history of swapped clusters, backed by the stores themselves."""

    def __init__(self, space: Any, retain: bool = True) -> None:
        self._space = space
        self._epochs: Dict[Sid, List[ArchivedEpoch]] = {}
        self._holders: Dict[str, List[Any]] = {}  # key -> stores
        if retain:
            space.manager.keep_swapped_copies = True
        space.bus.subscribe(SwapOutEvent, self._on_swap_out)

    # -- recording ---------------------------------------------------------------

    def _on_swap_out(self, event: SwapOutEvent) -> None:
        if event.space != self._space.name:
            return
        cluster = self._space._clusters.get(event.sid)
        location: Optional[SwapLocation] = (
            cluster.location if cluster is not None else None
        )
        if location is None or location.key != event.key:
            return
        holders = self._space.manager.bindings_for(event.sid)
        record = ArchivedEpoch(
            sid=event.sid,
            epoch=location.epoch,
            key=event.key,
            digest=location.digest,
            xml_bytes=location.xml_bytes,
            device_ids=tuple(holder.device_id for holder in holders),
        )
        self._epochs.setdefault(event.sid, []).append(record)
        self._holders[event.key] = list(holders)

    # -- queries ---------------------------------------------------------------------

    def epochs(self, sid: Sid) -> List[ArchivedEpoch]:
        return list(self._epochs.get(sid, []))

    def latest(self, sid: Sid) -> Optional[ArchivedEpoch]:
        records = self._epochs.get(sid)
        return records[-1] if records else None

    def fetch_xml(self, record: ArchivedEpoch) -> str:
        """The archived XML text, verified against the recorded digest."""
        return fetch_verified(
            self._holders.get(record.key, []), record.key, record.digest
        )

    def inspect(self, record: ArchivedEpoch) -> Dict[int, Dict[str, Any]]:
        """Field values per object oid, decoded without touching the graph.

        References are symbolic: intra-cluster references become
        ``("ref", oid)``, boundary references ``("outref", index)`` /
        ``("extref", …)``.
        """

        def symbolic(kind: str, ident: Any) -> Any:
            if kind == "local":
                return ("ref", ident)
            if kind == "ext":
                return ("extref", dict(ident))
            return ("outref", ident)

        def read(text: str) -> Dict[int, Dict[str, Any]]:
            _attrs, events = top_level(text, "swap-cluster")
            snapshot: Dict[int, Dict[str, Any]] = {}
            for tag, oid, span, _class_name in events:
                if tag != "object":
                    raise CodecError(f"unexpected element <{tag}> in swap-cluster")
                snapshot[oid] = read_fields(member_fields(span), symbolic)
            return snapshot

        return scan_once(self.fetch_xml(record), "archived", read)

    def diff(
        self, older: ArchivedEpoch, newer: ArchivedEpoch
    ) -> Dict[int, Dict[str, Tuple[Any, Any]]]:
        """Per-object field changes between two epochs of the same cluster."""
        if older.sid != newer.sid:
            raise CodecError("diff requires two epochs of the same swap-cluster")
        before = self.inspect(older)
        after = self.inspect(newer)
        changes: Dict[int, Dict[str, Tuple[Any, Any]]] = {}
        for oid in sorted(set(before) | set(after)):
            old_fields = before.get(oid, {})
            new_fields = after.get(oid, {})
            delta = {
                name: (old_fields.get(name), new_fields.get(name))
                for name in sorted(set(old_fields) | set(new_fields))
                if old_fields.get(name) != new_fields.get(name)
            }
            if delta:
                changes[oid] = delta
        return changes

    # -- retention ----------------------------------------------------------------------

    def prune(self, sid: Sid, keep_last: int = 1) -> int:
        """Drop all but the newest ``keep_last`` epochs from the stores."""
        records = self._epochs.get(sid, [])
        if keep_last < 0:
            raise ValueError("keep_last must be non-negative")
        to_drop = records[: max(0, len(records) - keep_last)]
        for record in to_drop:
            for holder in self._holders.pop(record.key, []):
                try:
                    holder.drop(record.key)
                except (TransportError, UnknownKeyError):
                    pass
        self._epochs[sid] = records[len(to_drop):]
        return len(to_drop)

    def archived_bytes(self) -> int:
        return sum(
            record.xml_bytes * len(record.device_ids)
            for records in self._epochs.values()
            for record in records
        )


def fetch_verified(holders: List[Any], key: str, digest: str) -> str:
    """The first holder's copy of ``key`` whose canonical form matches
    ``digest``, read without swapping anything in.

    A holder that cannot produce the key, or whose copy is altered,
    truncated or not XML at all, is skipped for the next one; with none
    left, raises :class:`SwapStoreUnavailableError` naming each failure.
    """
    failures = []
    for holder in holders:
        try:
            text = holder.fetch(key)
        except (TransportError, UnknownKeyError) as exc:
            failures.append(f"{holder.device_id}: {exc}")
            continue
        if verify_payload(text, digest):
            return text
        failures.append(f"{holder.device_id}: digest mismatch")
    raise SwapStoreUnavailableError(
        f"no holder can produce {key}: {'; '.join(failures) or 'no holders'}"
    )
