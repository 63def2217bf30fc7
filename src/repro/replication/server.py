"""The master object server.

Holds master copies of published object graphs, partitioned into
replication clusters of adaptable size, and serves them cluster-by-
cluster as XML replica documents.  The wire format wraps the shared
cluster codec with a frontier table, all of it canonical text written
without an element tree (shown indented)::

    <replica-cluster cid="4" root="album" version="1">
      <frontier>
        <entry cid="5" index="0" oid="123"/>
      </frontier>
      <swap-cluster count="20" epoch="0" sid="4" space="server">…</swap-cluster>
    </replica-cluster>

``<outref index=…/>`` elements inside the cluster body point into the
frontier table: references to objects in clusters the device has not
fetched yet.

Two lifecycle stances, matching the paper: **swapping** involves no
server bookkeeping whatsoever (nearby stores just hold text), while
**replication** uses a reference-listing DGC-lite — devices register the
clusters they replicate and asynchronously unregister when their local
collector reclaims a replica, so the server knows which master clusters
still have live replicas anywhere.  Replica *consistency* (concurrent
updates, reconciliation) remains out of scope as documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Tuple

from repro.comm.webservice import WebServiceClient, WebServiceEndpoint
from repro.core.clustering import partition_sequential, walk_graph
from repro.errors import CodecError, ReplicationError, SyncError
from repro.ids import IdAllocator
from repro.replication.cluster import ObjectCluster
from repro.runtime.registry import TypeRegistry, global_registry
from repro.wire.canonical import canonical_element
from repro.wire.scan import (
    empty_elements,
    leading_element,
    member_fields,
    read_document,
    read_fields,
    read_number,
    scan_once,
    top_level,
)
from repro.wire.xmlcodec import encode_cluster_stream

_object_setattr = object.__setattr__


@dataclass(frozen=True)
class RootDescriptor:
    """What a device needs to start replicating a published graph."""

    root_name: str
    root_cid: int
    root_soid: int
    cluster_count: int
    object_count: int
    class_name: str

    def to_wire(self) -> Dict[str, Any]:
        return {
            "root_name": self.root_name,
            "root_cid": self.root_cid,
            "root_soid": self.root_soid,
            "cluster_count": self.cluster_count,
            "object_count": self.object_count,
            "class_name": self.class_name,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "RootDescriptor":
        return cls(**data)


class _PublishedGraph:
    def __init__(self, root_name: str) -> None:
        self.root_name = root_name
        self.root_soid = 0
        self.root_cid = 0
        self.clusters: Dict[int, ObjectCluster] = {}
        self.cid_by_soid: Dict[int, int] = {}
        self.soid_to_object: Dict[int, Any] = {}
        #: per-cluster master version, bumped on every accepted push
        self.versions: Dict[int, int] = {}
        self.object_count = 0
        self.root_class = ""


class ObjectServer:
    """Publishes object graphs and serves replica clusters."""

    def __init__(
        self, name: str = "server", registry: Optional[TypeRegistry] = None
    ) -> None:
        self.name = name
        self._registry = registry if registry is not None else global_registry()
        self._soids = IdAllocator(start=1)
        self._cids = IdAllocator(start=1)
        self._graphs: Dict[str, _PublishedGraph] = {}
        #: DGC-lite reference listing: which device spaces hold a live
        #: replica of each cluster.  "Memory management depends on object
        #: replication to be aware of which objects have been replicated"
        #: (Section 2); devices unregister when their local collector
        #: reclaims a replica, asynchronously and without blocking.
        self._replica_holders: Dict[Tuple[str, int], set] = {}
        self.clusters_served = 0

    # -- publishing -------------------------------------------------------------

    def publish(self, root_name: str, root: Any, cluster_size: int = 20) -> RootDescriptor:
        """Partition a master graph into clusters and make it fetchable."""
        if root_name in self._graphs:
            raise ReplicationError(f"root {root_name!r} already published")
        graph = _PublishedGraph(root_name)
        order = walk_graph(root)
        for obj in order:
            soid = getattr(obj, "_obi_soid", None)
            if soid is None:
                soid = self._soids.next()
                _object_setattr(obj, "_obi_soid", soid)
        for members in partition_sequential(order, cluster_size):
            cid = self._cids.next()
            cluster = ObjectCluster(cid=cid, members=members)
            graph.clusters[cid] = cluster
            graph.versions[cid] = 1
            for obj in members:
                graph.cid_by_soid[obj._obi_soid] = cid
                graph.soid_to_object[obj._obi_soid] = obj
        graph.root_soid = root._obi_soid
        graph.root_cid = graph.cid_by_soid[graph.root_soid]
        graph.object_count = len(order)
        graph.root_class = type(root)._obi_schema.name
        self._graphs[root_name] = graph
        return self.describe_root(root_name)

    def unpublish(self, root_name: str) -> None:
        self._graphs.pop(root_name, None)

    def published_roots(self) -> List[str]:
        return sorted(self._graphs)

    # -- serving ------------------------------------------------------------------

    def describe_root(self, root_name: str) -> RootDescriptor:
        graph = self._graph(root_name)
        return RootDescriptor(
            root_name=root_name,
            root_cid=graph.root_cid,
            root_soid=graph.root_soid,
            cluster_count=len(graph.clusters),
            object_count=graph.object_count,
            class_name=graph.root_class,
        )

    def fetch_cluster(self, root_name: str, cid: int) -> str:
        """One replica document: frontier table + cluster body."""
        graph = self._graph(root_name)
        cluster = graph.clusters.get(cid)
        if cluster is None:
            raise ReplicationError(f"root {root_name!r} has no cluster {cid}")

        members = {obj._obi_soid: obj for obj in cluster.members}
        frontier: List[Tuple[int, int]] = []  # (cid, soid) per index
        index_by_soid: Dict[int, int] = {}

        def foreign_index_of(obj: Any) -> int:
            soid = obj._obi_soid
            index = index_by_soid.get(soid)
            if index is None:
                index = len(frontier)
                index_by_soid[soid] = index
                frontier.append((graph.cid_by_soid[soid], soid))
            return index

        body = "".join(
            encode_cluster_stream(
                sid=cid,
                space=self.name,
                epoch=0,
                objects=members,
                oid_of=lambda obj: obj._obi_soid,
                outbound_index_of=lambda proxy: (_ for _ in ()).throw(
                    ReplicationError("master graphs must not contain proxies")
                ),
                foreign_index_of=foreign_index_of,
            )
        )
        entries = "".join(
            canonical_element(
                "entry",
                {"index": str(index), "cid": str(frontier_cid), "oid": str(soid)},
                "",
            )
            for index, (frontier_cid, soid) in enumerate(frontier)
        )
        self.clusters_served += 1
        return canonical_element(
            "replica-cluster",
            {
                "root": root_name,
                "cid": str(cid),
                "version": str(graph.versions.get(cid, 1)),
            },
            canonical_element("frontier", {}, entries) + body,
        )

    def cluster_ids(self, root_name: str) -> List[int]:
        return sorted(self._graph(root_name).clusters)

    # -- reintegration (push) ----------------------------------------------------

    def cluster_version(self, root_name: str, cid: int) -> int:
        graph = self._graph(root_name)
        if cid not in graph.clusters:
            raise ReplicationError(f"root {root_name!r} has no cluster {cid}")
        return graph.versions[cid]

    def apply_push(self, xml_text: str) -> "PushResult":
        """Reintegrate a device's changes to one cluster (values + edges
        among already-published objects; structural growth is rejected).

        Optimistic concurrency: the push carries the version the replica
        was based on; if the master has moved past it, the push is
        refused with the current version so the device can pull and
        retry (loosely-coupled reintegration).
        """

        def read(text: str) -> Tuple[Any, Any]:
            """``(None, refusal)`` for a stale push, else ``((versions,
            cid, device), updates)``: every update read and validated
            before anything is mutated."""
            attrs, events = top_level(text, "push-cluster", id_attr="soid")
            root_name = attrs.get("root", "")
            cid = read_number(attrs.get("cid", "-1"), "push-cluster cid")
            base_version = read_number(
                attrs.get("base_version", "-1"), "push-cluster base_version"
            )
            graph = self._graph(root_name)
            if cid not in graph.clusters:
                raise SyncError(f"root {root_name!r} has no cluster {cid}")
            current = graph.versions[cid]
            if base_version != current:
                return None, PushResult(
                    accepted=False,
                    version=current,
                    message=(
                        f"conflict: master at version {current}, "
                        f"push based on {base_version}"
                    ),
                )
            member_soids = {obj._obi_soid for obj in graph.clusters[cid].members}

            def resolve(kind: str, ident: Any) -> Any:
                if kind == "local":
                    soid = ident
                elif kind == "ext":
                    soid = read_number(ident.get("soid"), "<extref soid>")
                else:
                    raise SyncError("push documents must not contain <outref>")
                target = graph.soid_to_object.get(soid)
                if target is None:
                    raise SyncError(f"push references unknown soid {soid}")
                return target

            updates = []
            for tag, soid, span, class_name in events:
                if tag != "object":
                    raise SyncError(f"unexpected <{tag}> in push document")
                if soid not in member_soids:
                    raise SyncError(
                        f"soid {soid} is not a member of cluster {cid} "
                        f"(structural growth is not supported by push)"
                    )
                master = graph.soid_to_object[soid]
                expected_class = type(master)._obi_schema.name
                if class_name != expected_class:
                    raise SyncError(
                        f"soid {soid}: class mismatch "
                        f"({class_name} vs {expected_class})"
                    )
                updates.append((master, read_fields(member_fields(span), resolve)))
            return (graph.versions, cid, attrs.get("device", "?")), updates

        try:
            accepted, updates = scan_once(xml_text, "push", read)
        except CodecError as exc:
            raise SyncError(f"malformed push document: {exc}") from exc
        if accepted is None:
            return updates
        for master, fields in updates:
            for name in list(vars(master)):
                if not name.startswith("_obi_"):
                    object.__delattr__(master, name)
            for name, value in fields.items():
                _object_setattr(master, name, value)
        versions, cid, device = accepted
        versions[cid] += 1
        return PushResult(
            accepted=True, version=versions[cid], message=f"accepted from {device}"
        )

    # -- DGC-lite: replica reference listing -----------------------------------

    def register_replica(self, root_name: str, cid: int, device: str) -> None:
        """A device materialized a replica of (root, cid)."""
        self._graph(root_name)  # validates the root
        self._replica_holders.setdefault((root_name, cid), set()).add(device)

    def unregister_replica(self, root_name: str, cid: int, device: str) -> None:
        """A device's local collector reclaimed its replica (idempotent)."""
        holders = self._replica_holders.get((root_name, cid))
        if holders is not None:
            holders.discard(device)
            if not holders:
                del self._replica_holders[(root_name, cid)]

    def replica_holders(self, root_name: str, cid: int) -> List[str]:
        return sorted(self._replica_holders.get((root_name, cid), ()))

    def replica_count(self, root_name: str) -> int:
        """Total live replica registrations across a root's clusters."""
        return sum(
            len(holders)
            for (held_root, _), holders in self._replica_holders.items()
            if held_root == root_name
        )

    def unreplicated_clusters(self, root_name: str) -> List[int]:
        """Clusters with no live replica anywhere (safe to archive)."""
        return [
            cid
            for cid in self.cluster_ids(root_name)
            if not self._replica_holders.get((root_name, cid))
        ]

    def _graph(self, root_name: str) -> _PublishedGraph:
        graph = self._graphs.get(root_name)
        if graph is None:
            raise ReplicationError(f"no published root {root_name!r}")
        return graph

    # -- web-service exposure ----------------------------------------------------------

    def as_endpoint(self) -> WebServiceEndpoint:
        endpoint = WebServiceEndpoint(self.name)
        endpoint.register(
            "describe_root",
            lambda root_name: self.describe_root(root_name).to_wire(),
        )
        endpoint.register(
            "fetch_cluster",
            lambda root_name, cid: self.fetch_cluster(root_name, cid),
        )
        endpoint.register("published_roots", self.published_roots)
        endpoint.register(
            "register_replica",
            lambda root_name, cid, device: self.register_replica(
                root_name, cid, device
            ),
        )
        endpoint.register(
            "unregister_replica",
            lambda root_name, cid, device: self.unregister_replica(
                root_name, cid, device
            ),
        )
        endpoint.register(
            "apply_push", lambda xml_text: self.apply_push(xml_text).to_wire()
        )
        endpoint.register(
            "cluster_version",
            lambda root_name, cid: self.cluster_version(root_name, cid),
        )
        return endpoint


@dataclass(frozen=True)
class PushResult:
    """Outcome of a reintegration push."""

    accepted: bool
    version: int
    message: str = ""

    def to_wire(self) -> Dict[str, Any]:
        return {
            "accepted": self.accepted,
            "version": self.version,
            "message": self.message,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "PushResult":
        return cls(**data)


class ServerClient(Protocol):
    """What a replicator needs from the server side."""

    def describe_root(self, root_name: str) -> RootDescriptor: ...

    def fetch_cluster(self, root_name: str, cid: int) -> str: ...

    def register_replica(self, root_name: str, cid: int, device: str) -> None: ...

    def unregister_replica(self, root_name: str, cid: int, device: str) -> None: ...


class DirectServerClient:
    """Same-process client (tests, single-machine scenarios)."""

    def __init__(self, server: ObjectServer) -> None:
        self._server = server

    def describe_root(self, root_name: str) -> RootDescriptor:
        return self._server.describe_root(root_name)

    def fetch_cluster(self, root_name: str, cid: int) -> str:
        return self._server.fetch_cluster(root_name, cid)

    def register_replica(self, root_name: str, cid: int, device: str) -> None:
        self._server.register_replica(root_name, cid, device)

    def unregister_replica(self, root_name: str, cid: int, device: str) -> None:
        self._server.unregister_replica(root_name, cid, device)

    def apply_push(self, xml_text: str) -> PushResult:
        return self._server.apply_push(xml_text)

    def cluster_version(self, root_name: str, cid: int) -> int:
        return self._server.cluster_version(root_name, cid)


class WsServerClient:
    """Server access over the web-service bridge (charges the link)."""

    def __init__(self, client: WebServiceClient) -> None:
        self._client = client

    def describe_root(self, root_name: str) -> RootDescriptor:
        data = self._client.call("describe_root", root_name=root_name)
        return RootDescriptor.from_wire(data)

    def fetch_cluster(self, root_name: str, cid: int) -> str:
        return self._client.call("fetch_cluster", root_name=root_name, cid=cid)

    def register_replica(self, root_name: str, cid: int, device: str) -> None:
        self._client.call(
            "register_replica", root_name=root_name, cid=cid, device=device
        )

    def unregister_replica(self, root_name: str, cid: int, device: str) -> None:
        self._client.call(
            "unregister_replica", root_name=root_name, cid=cid, device=device
        )

    def apply_push(self, xml_text: str) -> PushResult:
        return PushResult.from_wire(
            self._client.call("apply_push", xml_text=xml_text)
        )

    def cluster_version(self, root_name: str, cid: int) -> int:
        return self._client.call(
            "cluster_version", root_name=root_name, cid=cid
        )


def parse_replica_document(
    text: str,
) -> Tuple[int, List[Tuple[int, int]], str, int]:
    """Split a replica document into (cid, frontier, body_xml, version).

    The body is sliced out of the canonical document as it stands, so it
    is the server's canonical ``<swap-cluster>`` text byte for byte.
    """

    def read(candidate: str) -> Tuple[int, List[Tuple[int, int]], str, int]:
        attrs, content = read_document(candidate, "replica-cluster")
        entries, body = leading_element(content, "frontier")
        if not body.startswith("<swap-cluster"):
            raise CodecError("replica document missing <frontier> or <swap-cluster>")
        frontier = [
            (
                read_number(entry.get("cid"), "frontier entry cid"),
                read_number(entry.get("oid"), "frontier entry oid"),
            )
            for entry in empty_elements(entries, "entry")
        ]
        return (
            read_number(attrs.get("cid", "-1"), "replica-cluster cid"),
            frontier,
            body,
            read_number(attrs.get("version", "1"), "replica-cluster version"),
        )

    return scan_once(text, "replica document", read, screen=True)
