"""Loosely-coupled replica synchronization (push / pull reintegration).

OBIWAN's broader platform supports "loosely-coupled, mobile replication
of objects with transactions" (the paper's reference [13]); this module
implements the reintegration half at cluster granularity, in the spirit
of mobile middleware: the device works disconnected on its replicas,
then

* ``push(cid)`` sends a cluster's current state back to the master with
  the version it was based on — the server accepts and bumps the
  version, or refuses with the current version (optimistic concurrency,
  no locks, no blocking);
* ``pull(cid)`` refreshes the local replica *in place* from the master —
  the replicas keep their oids, so every live proxy and root handle
  stays valid.

Scope (documented, enforced): pushes carry field values and edges among
*already-published* objects; structural growth (device-created objects)
is rejected by the server — DESIGN.md keeps full consistency machinery
out of scope.  Dirty tracking is state-based: a cluster is dirty when
its canonical push encoding differs from the baseline captured at
fetch/last-sync (no write interception, so it is insensitive to how the
writes were made — raw, via proxies, or via methods).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.errors import SyncConflictError, SyncError
from repro.events import ClusterReplicatedEvent
from repro.replication.server import PushResult, parse_replica_document
from repro.runtime.classext import instance_fields
from repro.wire.canonical import canonical_element, digest_of_canonical
from repro.wire.scan import member_fields, read_fields, scan_once, top_level
from repro.wire.wrappers import emit_fields

_object_setattr = object.__setattr__


@dataclass(frozen=True)
class SyncStatus:
    cid: int
    dirty: bool
    local_version: int
    server_version: int

    @property
    def behind(self) -> bool:
        return self.server_version > self.local_version


class ReplicaSync:
    """Push/pull reintegration for one replicator's clusters."""

    def __init__(self, replicator: Any) -> None:
        self._repl = replicator
        self._space = replicator._space
        self._client = replicator._client
        self._baseline: Dict[int, str] = {}
        # baseline everything already materialized, then every new arrival
        for cid in list(replicator._soids_by_cid):
            self._baseline[cid] = self._digest(cid)
        self._space.bus.subscribe(ClusterReplicatedEvent, self._on_replicated)

    # -- dirty tracking ---------------------------------------------------------

    def dirty(self, cid: int) -> bool:
        baseline = self._baseline.get(cid)
        if baseline is None:
            return False
        return self._digest(cid) != baseline

    def dirty_clusters(self) -> List[int]:
        return sorted(cid for cid in self._baseline if self.dirty(cid))

    def status(self, cid: int) -> SyncStatus:
        root_name = self._repl._root_by_cid.get(cid)
        if root_name is None:
            raise SyncError(f"cluster {cid} is not replicated here")
        return SyncStatus(
            cid=cid,
            dirty=self.dirty(cid),
            local_version=self._repl._version_by_cid.get(cid, 0),
            server_version=self._client.cluster_version(root_name, cid),
        )

    # -- push -----------------------------------------------------------------------

    def push(self, cid: int) -> PushResult:
        """Reintegrate one cluster's changes into the master.

        Raises :class:`SyncConflictError` when the master moved past the
        replica's base version — pull first, then push again.
        """
        root_name = self._require_replicated(cid)
        return self._push(cid, root_name, self._objects_text(cid))

    def push_all(self) -> Dict[int, PushResult]:
        dirty = []
        for cid in sorted(self._baseline):
            objects = self._objects_text(cid)
            if self._digest_of(cid, objects) != self._baseline[cid]:
                dirty.append((cid, objects))
        return {
            cid: self._push(cid, self._require_replicated(cid), objects)
            for cid, objects in dirty
        }

    def _push(self, cid: int, root_name: str, objects: str) -> PushResult:
        """Push ``objects`` (the cluster's text, written once) and take
        the new baseline from that same text."""
        document = self._build_push_document(root_name, cid, objects)
        result = self._client.apply_push(document)
        if not result.accepted:
            raise SyncConflictError(
                f"cluster {cid}: {result.message}; pull before pushing"
            )
        self._repl._version_by_cid[cid] = result.version
        self._baseline[cid] = self._digest_of(cid, objects)
        return result

    # -- pull ------------------------------------------------------------------------

    def pull(self, cid: int, overwrite: bool = False) -> int:
        """Refresh the local replica of ``cid`` from the master, in place.

        Refuses to clobber local unpushed changes unless ``overwrite``;
        returns the master version pulled.
        """
        root_name = self._require_replicated(cid)
        if self.dirty(cid) and not overwrite:
            raise SyncConflictError(
                f"cluster {cid} has local changes; push them or pull with "
                f"overwrite=True"
            )
        space = self._space
        sid = self._ensure_resident(cid)
        text = self._client.fetch_cluster(root_name, cid)
        parsed_cid, frontier, body, version = parse_replica_document(text)
        if parsed_cid != cid:
            raise SyncError(f"asked for cluster {cid}, server sent {parsed_cid}")

        def resolve(kind: str, ident: Any) -> Any:
            if kind == "local":
                local_oid = self._repl._oid_by_soid.get(int(ident))
                if local_oid is None:
                    raise SyncError(
                        f"pull of cluster {cid}: master gained object "
                        f"soid={ident}; re-replication required"
                    )
                return space._objects[local_oid]
            if kind == "out":
                frontier_cid, frontier_soid = frontier[int(ident)]
                return self._repl._resolve_frontier(
                    frontier_cid, frontier_soid, sid
                )
            return self._repl._resolve_extern(ident, sid)

        def read(text: str) -> List[Any]:
            _attrs, events = top_level(text, "swap-cluster")
            updates = []
            for tag, soid, span, _class_name in events:
                if tag != "object":
                    raise SyncError(f"unexpected <{tag}> in replica of cluster {cid}")
                local_oid = self._repl._oid_by_soid.get(soid)
                if local_oid is None:
                    raise SyncError(
                        f"pull of cluster {cid}: master gained object "
                        f"soid={soid}; re-replication required"
                    )
                replica = space._objects[local_oid]
                updates.append((replica, read_fields(member_fields(span), resolve)))
            return updates

        updates = scan_once(body, "replica body", read)
        for replica, fields in updates:
            for name in list(vars(replica)):
                if not name.startswith("_obi_"):
                    object.__delattr__(replica, name)
            for name, value in fields.items():
                _object_setattr(replica, name, value)
            space.heap.resize(
                replica._obi_oid, space.size_model.size_of(replica)
            )
            self._repl._register_sites(replica)

        self._repl._version_by_cid[cid] = version
        self._baseline[cid] = self._digest(cid)
        space.verify_integrity()
        return version

    # -- internals ----------------------------------------------------------------------

    def _require_replicated(self, cid: int) -> str:
        root_name = self._repl._root_by_cid.get(cid)
        if root_name is None or cid not in self._repl._soids_by_cid:
            raise SyncError(f"cluster {cid} is not materialized on this device")
        return root_name

    def _ensure_resident(self, cid: int) -> int:
        sid = self._repl._materialized.get(cid)
        if sid is None:
            raise SyncError(f"cluster {cid} is not materialized on this device")
        cluster = self._space._clusters.get(sid)
        if cluster is None:
            raise SyncError(f"cluster {cid}'s swap-cluster was collected")
        if cluster.is_swapped:
            self._space.manager.swap_in(sid)
        return sid

    def _objects_text(self, cid: int) -> str:
        """The cluster's replicas as canonical ``<object soid=…>``
        elements, in soid order."""
        space = self._space
        self._ensure_resident(cid)
        member_soids = set(self._repl._soids_by_cid.get(cid, ()))

        def classify(value: Any) -> Any:
            cls = type(value)
            if getattr(cls, "_obi_is_proxy", False):
                return self._extern_of(value._obi_target_oid, member_soids)
            if getattr(cls, "_obi_is_repl_proxy", False):
                return ("ext", {"cid": value._obi_cid, "soid": value._obi_soid})
            if getattr(cls, "_obi_managed", False):
                return self._extern_of(value._obi_oid, member_soids)
            return None

        objects = []
        for soid in sorted(member_soids):
            replica = space._objects[self._repl._oid_by_soid[soid]]
            fields: List[str] = []
            emit_fields(fields, instance_fields(replica), classify)
            objects.append(
                canonical_element(
                    "object",
                    {"soid": str(soid), "class": type(replica)._obi_schema.name},
                    "".join(fields),
                )
            )
        return "".join(objects)

    def _extern_of(self, local_oid: int, member_soids: set) -> Any:
        soid = self._repl._soid_by_oid.get(local_oid)
        if soid is None:
            raise SyncError(
                f"cluster contains a device-created object (oid={local_oid}); "
                f"structural growth cannot be pushed"
            )
        if soid in member_soids:
            return ("local", soid)
        cid = self._repl._cid_by_soid.get(soid)
        if cid is None:
            raise SyncError(f"soid {soid} has no known master cluster")
        return ("ext", {"cid": cid, "soid": soid})

    def _digest(self, cid: int) -> str:
        return self._digest_of(cid, self._objects_text(cid))

    @staticmethod
    def _digest_of(cid: int, objects: str) -> str:
        """Hash of the cluster's ``<push-body>`` around ``objects`` text:
        its bytes are pinned, since a baseline taken earlier is compared
        against it."""
        return digest_of_canonical(
            canonical_element("push-body", {"cid": str(cid)}, objects)
        )

    def _build_push_document(self, root_name: str, cid: int, objects: str) -> str:
        return canonical_element(
            "push-cluster",
            {
                "root": root_name,
                "cid": str(cid),
                "base_version": str(self._repl._version_by_cid.get(cid, 0)),
                "device": self._space.name,
            },
            objects,
        )

    def _on_replicated(self, event: Any) -> None:
        if event.space != self._space.name:
            return
        if event.cid in self._repl._soids_by_cid and event.cid not in self._baseline:
            self._baseline[event.cid] = self._digest(event.cid)
