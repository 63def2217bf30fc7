"""The device-side incremental replication engine.

Fetches clusters on demand (object faults), adopts the replicas into the
device space, folds every ``clusters_per_swap`` consecutively fetched
clusters into one swap-cluster ("considering a number, also adaptable,
of chained object clusters as a single macro-object", Section 1), and
performs **proxy replacement**:

* references between objects that landed in the *same* swap-cluster end
  up raw — "there are no further indirections w.r.t. object invocation
  (the application runs at full-speed), once objects are replicated";
* references across swap-clusters get a swap-cluster-proxy — "for
  objects belonging to different swap-clusters, a special proxy always
  remains in the way";
* replication proxies standing in fields are rewritten to those final
  references as soon as their target cluster materializes.

The replicator also installs the space's extern resolver so replication
proxies serialized inside a swapped cluster (``<extref>``) reconnect on
reload, and listens to swap-in events to re-register holder sites.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ReplicationError
from repro.events import (
    ClusterCollectedEvent,
    ClusterReplicatedEvent,
    ObjectFaultEvent,
    SwapInEvent,
)
from repro.ids import ROOT_SID
from repro.replication.proxies import ReplicationProxy
from repro.replication.server import ServerClient, parse_replica_document
from repro.runtime.classext import instance_fields
from repro.wire.scan import read_number
from repro.wire.xmlcodec import decode_cluster

_object_setattr = object.__setattr__


class Replicator:
    """Incremental replication into one space from one server client."""

    def __init__(
        self,
        space: Any,
        client: ServerClient,
        clusters_per_swap: int = 1,
        prefetch_frontier: int = 0,
    ) -> None:
        if clusters_per_swap <= 0:
            raise ValueError("clusters_per_swap must be positive")
        if prefetch_frontier < 0:
            raise ValueError("prefetch_frontier must be non-negative")
        self._space = space
        self._client = client
        self._clusters_per_swap = clusters_per_swap
        #: After each fault, eagerly materialize up to this many further
        #: clusters reachable from the faulted cluster's frontier
        #: (hoarding: "when one of the objects enclosed in the cluster
        #: becomes needed again, there is a high probability that the
        #: others will be as well" extends one hop outward).
        self.prefetch_frontier = prefetch_frontier
        self._oid_by_soid: Dict[int, int] = {}
        self._soid_by_oid: Dict[int, int] = {}
        #: cid -> soids fetched in it, and the master version they came from
        self._soids_by_cid: Dict[int, List[int]] = {}
        self._version_by_cid: Dict[int, int] = {}
        #: soid -> owning server cluster (members + observed frontier).
        self._cid_by_soid: Dict[int, int] = {}
        self._proxies: Dict[int, ReplicationProxy] = {}
        self._materialized: Dict[int, int] = {}  # cid -> sid
        #: cid -> the cids its frontier references (filled on fetch).
        self._frontier_of: Dict[int, List[int]] = {}
        self._root_by_cid: Dict[int, str] = {}
        self._current_sc: Any = None
        self._current_count = 0
        self.faults = 0
        self.clusters_fetched = 0
        self.prefetched = 0
        #: sid -> cids folded into it (for DGC-lite unregistration).
        self._cids_by_sid: Dict[int, List[int]] = {}
        #: cid -> root name (registration bookkeeping).
        self._registered_root: Dict[int, str] = {}
        space.extern_resolver = self._resolve_extern
        space.bus.subscribe(SwapInEvent, self._on_swap_in)
        space.bus.subscribe(ClusterCollectedEvent, self._on_cluster_collected)

    # -- public API ---------------------------------------------------------------

    def replicate(self, root_name: str) -> Any:
        """Replicate a published root's first cluster; returns the handle.

        Further clusters arrive on demand when the application navigates
        past the replicated frontier.
        """
        descriptor = self._client.describe_root(root_name)
        self._root_by_cid[descriptor.root_cid] = root_name
        if descriptor.root_soid not in self._oid_by_soid:
            self._materialize(root_name, descriptor.root_cid)
        root_oid = self._oid_by_soid[descriptor.root_soid]
        handle = self._space._proxy_for(ROOT_SID, root_oid)
        self._space._roots[root_name] = handle
        return handle

    def prefetch(self, root_name: str, cids: List[int]) -> None:
        """Eagerly materialize specific clusters (hoarding)."""
        for cid in cids:
            self._root_by_cid.setdefault(cid, root_name)
            self._materialize(root_name, cid)

    def materialized_clusters(self) -> Dict[int, int]:
        return dict(self._materialized)

    def pending_proxy_count(self) -> int:
        return len(self._proxies)

    def oid_of_soid(self, soid: int) -> Optional[int]:
        return self._oid_by_soid.get(soid)

    # -- fault handling --------------------------------------------------------------

    def fault(self, proxy: ReplicationProxy) -> Any:
        """A replication proxy was invoked: fetch its cluster, replace it."""
        soid = proxy._obi_soid
        cid = proxy._obi_cid
        if soid not in self._oid_by_soid:
            root_name = self._root_by_cid.get(cid)
            if root_name is None:
                raise ReplicationError(
                    f"replication proxy for cid={cid} has no known root"
                )
            self.faults += 1
            self._space.bus.emit(
                ObjectFaultEvent(space=self._space.name, cid=cid)
            )
            self._materialize(root_name, cid)
            if self.prefetch_frontier > 0:
                self._prefetch_from(root_name, cid, self.prefetch_frontier)
        target_oid = self._oid_by_soid[soid]
        self._replace_sites(proxy)
        self._proxies.pop(soid, None)

        sites: List[Any] = proxy._obi_sites
        holder_sid = ROOT_SID
        for holder in sites:
            if getattr(holder, "_obi_space", None) is self._space:
                holder_sid = holder._obi_sid
                break
        target_sid = self._space._sid_by_oid[target_oid]
        if target_sid == holder_sid:
            resident = self._space._objects.get(target_oid)
            if resident is not None:
                return resident
        return self._space._proxy_for(holder_sid, target_oid)

    def _prefetch_from(self, root_name: str, cid: int, budget: int) -> int:
        """Materialize up to ``budget`` clusters reachable from ``cid``'s
        frontier, breadth-first.  Returns how many were fetched."""
        fetched = 0
        queue = list(self._frontier_of.get(cid, ()))
        seen = set(queue)
        while queue and fetched < budget:
            next_cid = queue.pop(0)
            if next_cid in self._materialized:
                continue
            self._materialize(root_name, next_cid)
            fetched += 1
            self.prefetched += 1
            for further in self._frontier_of.get(next_cid, ()):
                if further not in seen:
                    seen.add(further)
                    queue.append(further)
        return fetched

    # -- materialization ---------------------------------------------------------------

    def _materialize(self, root_name: str, cid: int) -> int:
        existing = self._materialized.get(cid)
        if existing is not None:
            return existing
        space = self._space
        text = self._client.fetch_cluster(root_name, cid)
        parsed_cid, frontier, body, version = parse_replica_document(text)
        if parsed_cid != cid:
            raise ReplicationError(
                f"asked for cluster {cid}, server returned {parsed_cid}"
            )
        self._frontier_of[cid] = sorted({frontier_cid for frontier_cid, _ in frontier})

        swap_cluster = self._current_sc
        if (
            swap_cluster is None
            or not swap_cluster.is_resident
            or swap_cluster.sid not in space._clusters
            or self._current_count >= self._clusters_per_swap
        ):
            swap_cluster = space.new_swap_cluster()
            self._current_sc = swap_cluster
            self._current_count = 0
        sid = swap_cluster.sid

        def resolve_out(index: int) -> Any:
            frontier_cid, frontier_soid = frontier[index]
            self._root_by_cid.setdefault(frontier_cid, root_name)
            self._cid_by_soid.setdefault(frontier_soid, frontier_cid)
            known_oid = self._oid_by_soid.get(frontier_soid)
            if known_oid is not None:
                target_sid = space._sid_by_oid.get(known_oid)
                if target_sid == sid and known_oid in space._objects:
                    return space._objects[known_oid]
                if target_sid is not None:
                    return space._proxy_for(sid, known_oid)
            return self._proxy_of(frontier_cid, frontier_soid)

        swap_cluster.pins += 1
        try:
            document = decode_cluster(
                body,
                registry=space._registry,
                resolve_out=resolve_out,
                resolve_extern=lambda attrs: self._resolve_extern(attrs, sid),
            )
            for soid in sorted(document.objects):
                replica = document.objects[soid]
                space.adopt(replica, sid)
                self._oid_by_soid[soid] = replica._obi_oid
                self._soid_by_oid[replica._obi_oid] = soid
            for replica in document.objects.values():
                self._register_sites(replica)
        finally:
            swap_cluster.pins -= 1

        swap_cluster.cids.append(cid)
        self._current_count += 1
        self._materialized[cid] = sid
        self._soids_by_cid[cid] = sorted(document.objects)
        self._version_by_cid[cid] = version
        for soid in document.objects:
            self._cid_by_soid[soid] = cid
        self._cids_by_sid.setdefault(sid, []).append(cid)
        self.clusters_fetched += 1
        # DGC-lite: tell the server this device now holds a live replica
        register = getattr(self._client, "register_replica", None)
        if register is not None:
            register(root_name, cid, space.name)
            self._registered_root[cid] = root_name

        # proxy replacement: every pending proxy whose target just arrived
        for soid in [s for s in self._proxies if s in self._oid_by_soid]:
            self._replace_sites(self._proxies.pop(soid))

        space.bus.emit(
            ClusterReplicatedEvent(
                space=space.name,
                cid=cid,
                sid=sid,
                object_count=len(document.objects),
            )
        )
        return sid

    # -- proxy replacement -----------------------------------------------------------------

    def _replace_sites(self, proxy: ReplicationProxy) -> None:
        space = self._space
        target_oid = self._oid_by_soid.get(proxy._obi_soid)
        if target_oid is None:
            return
        for holder in list(proxy._obi_sites):
            if getattr(holder, "_obi_space", None) is not space:
                continue
            holder_oid = getattr(holder, "_obi_oid", None)
            if holder_oid not in space._objects:
                # holder's cluster is swapped out; its XML carries an
                # <extref> that the extern resolver reconnects on reload
                continue
            holder_sid = holder._obi_sid
            target_sid = space._sid_by_oid[target_oid]
            if target_sid == holder_sid and target_oid in space._objects:
                final: Any = space._objects[target_oid]
            else:
                final = space._proxy_for(holder_sid, target_oid)
            self._replace_in_holder(holder, proxy, final)
        proxy._obi_sites.clear()

    def _replace_in_holder(
        self, holder: Any, proxy: ReplicationProxy, final: Any
    ) -> None:
        for name, value in instance_fields(holder).items():
            new_value = self._replace_value(value, proxy, final)
            if new_value is not value:
                _object_setattr(holder, name, new_value)

    def _replace_value(self, value: Any, proxy: ReplicationProxy, final: Any) -> Any:
        if value is proxy:
            return final
        cls = type(value)
        if cls is list:
            for index, item in enumerate(value):
                new_item = self._replace_value(item, proxy, final)
                if new_item is not item:
                    value[index] = new_item
            return value
        if cls is tuple:
            rebuilt = tuple(
                self._replace_value(item, proxy, final) for item in value
            )
            return rebuilt if any(
                new is not old for new, old in zip(rebuilt, value)
            ) else value
        if cls is dict:
            changed = False
            rebuilt_dict = {}
            for key, item in value.items():
                new_key = self._replace_value(key, proxy, final)
                new_item = self._replace_value(item, proxy, final)
                changed = changed or new_key is not key or new_item is not item
                rebuilt_dict[new_key] = new_item
            if changed:
                value.clear()
                value.update(rebuilt_dict)
            return value
        if cls in (set, frozenset):
            if any(item is proxy for item in value):
                rebuilt_set = {
                    final if item is proxy else item for item in value
                }
                if cls is set:
                    value.clear()
                    value.update(rebuilt_set)
                    return value
                return frozenset(rebuilt_set)
            return value
        return value

    # -- site registration ----------------------------------------------------------------------

    def _register_sites(self, holder: Any) -> None:
        for value in instance_fields(holder).values():
            self._register_sites_in_value(value, holder)

    def _register_sites_in_value(self, value: Any, holder: Any) -> None:
        if getattr(type(value), "_obi_is_repl_proxy", False):
            value._obi_register_site(holder)
            return
        cls = type(value)
        if cls in (list, tuple, set, frozenset):
            for item in value:
                self._register_sites_in_value(item, holder)
        elif cls is dict:
            for key, item in value.items():
                self._register_sites_in_value(key, holder)
                self._register_sites_in_value(item, holder)

    # -- wire/GC integration ------------------------------------------------------------------------

    def _resolve_extern(self, attrs: Dict[str, str], sid: int) -> Any:
        return self._resolve_frontier(
            read_number(attrs.get("cid"), "<extref cid>"),
            read_number(attrs.get("soid"), "<extref soid>"),
            sid,
        )

    def _resolve_frontier(self, cid: int, soid: int, sid: int) -> Any:
        """The object at master ``(cid, soid)`` as cluster ``sid`` sees
        it: the instance, a swap-cluster-proxy, or a replication proxy."""
        known_oid = self._oid_by_soid.get(soid)
        if known_oid is not None:
            target_sid = self._space._sid_by_oid.get(known_oid)
            if target_sid is not None:
                if target_sid == sid and known_oid in self._space._objects:
                    return self._space._objects[known_oid]
                return self._space._proxy_for(sid, known_oid)
        return self._proxy_of(cid, soid)

    def _on_cluster_collected(self, event: Any) -> None:
        """The local collector reclaimed a swap-cluster: release the
        server-side replica registrations of the cids it contained."""
        if event.space != self._space.name:
            return
        unregister = getattr(self._client, "unregister_replica", None)
        self._cids_by_sid.pop(event.sid, None)
        for cid in event.cids:
            self._materialized.pop(cid, None)
            root_name = self._registered_root.pop(cid, None)
            if root_name is not None and unregister is not None:
                unregister(root_name, cid, self._space.name)

    def _on_swap_in(self, event: Any) -> None:
        if event.space != self._space.name:
            return
        cluster = self._space._clusters.get(event.sid)
        if cluster is None:
            return
        for oid in cluster.oids:
            holder = self._space._objects.get(oid)
            if holder is not None:
                self._register_sites(holder)

    def _proxy_of(self, cid: int, soid: int) -> ReplicationProxy:
        proxy = self._proxies.get(soid)
        if proxy is None:
            proxy = ReplicationProxy(self, cid, soid)
            self._proxies[soid] = proxy
            self._cid_by_soid.setdefault(soid, cid)
        return proxy

    def cid_of_soid(self, soid: int) -> Optional[int]:
        return self._cid_by_soid.get(soid)

    def soid_of_oid(self, oid: int) -> Optional[int]:
        return self._soid_by_oid.get(oid)

    def cluster_soids(self, cid: int) -> List[int]:
        return list(self._soids_by_cid.get(cid, ()))

    def cluster_version(self, cid: int) -> Optional[int]:
        return self._version_by_cid.get(cid)
