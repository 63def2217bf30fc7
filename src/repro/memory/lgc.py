"""The local collector (LGC) and its cooperation with object-swapping.

Paper, Section 3, "Integration with GC Mechanisms":

* while a replacement-object is reachable, the LGC "must behave
  conservatively: it must regard as reachable all objects belonging to
  the swap-cluster, even if all but one of them are garbage" — the whole
  swap-cluster is preserved (on the device for resident clusters, on the
  swapping store for detached ones);
* when a replacement-object becomes unreachable, "the swapping device
  may be instructed to discard the XML text with the contents of the
  swap-cluster";
* there is **no DGC** across swapping devices: "all the decisions are
  made locally to the device running the application; the swapping
  device is instructed just to store, return, or drop XML-data."

The collector is precise over the space's declared roots (named roots,
pinned clusters, and caller-supplied extras).  Python stack variables are
invisible to it — pass handles held in locals via ``extra_roots`` or run
collections at quiescent points, exactly as OBIWAN runs swapping
decisions between invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.ids import ROOT_SID
from repro.memory.reachability import mark_from, space_roots


@dataclass(frozen=True)
class CollectionResult:
    objects_collected: int
    clusters_collected: int
    swapped_dropped: int
    bytes_freed: int

    def describe(self) -> str:
        return (
            f"collected {self.objects_collected} objects, "
            f"{self.clusters_collected} whole clusters "
            f"({self.swapped_dropped} swapped copies dropped), "
            f"{self.bytes_freed} bytes freed"
        )


class LocalCollector:
    """Mark-sweep collector over one managed space."""

    def __init__(self, space: Any) -> None:
        self._space = space

    def collect(self, extra_roots: Iterable[Any] = ()) -> CollectionResult:
        space = self._space

        # The conservative whole-cluster rule, applied during marking:
        # reaching any member of a (non-root) swap-cluster reaches them
        # all, and the kept members anchor their own outgoing references
        # (otherwise a conservatively-preserved object could hold a proxy
        # into a cluster the sweep just collected).
        reachable = mark_from(space_roots(space, extra_roots), space)

        objects_collected = 0
        clusters_collected = 0
        swapped_dropped = 0
        bytes_freed = 0

        for sid, cluster in list(space._clusters.items()):
            if cluster.is_swapped:
                if reachable.is_swapped_cluster_reachable(sid):
                    continue  # conservative: keep the whole stored cluster
                replacement_oid = (
                    cluster.replacement.oid if cluster.replacement else None
                )
                if replacement_oid is not None and space.heap.holds(replacement_oid):
                    bytes_freed += space.heap.size_of(replacement_oid)
                space._manager.drop_swapped(cluster)
                space._drop_cluster_record(sid)
                clusters_collected += 1
                swapped_dropped += 1
                objects_collected += len(cluster.oids)
                continue

            if sid == ROOT_SID:
                # swap-cluster-0 is the process itself: globals that were
                # dropped are collected individually.
                for oid in list(cluster.oids):
                    if not reachable.is_object_reachable(oid):
                        bytes_freed += space._evict_object(oid)
                        objects_collected += 1
                continue

            if sid in reachable.cluster_sids or not cluster.oids:
                # conservative whole-cluster rule: internal garbage is
                # preserved as long as any member is reachable
                continue
            objects_collected += len(cluster.oids)
            bytes_freed += space._evict_cluster(cluster)
            space._drop_cluster_record(sid)
            clusters_collected += 1

        return CollectionResult(
            objects_collected=objects_collected,
            clusters_collected=clusters_collected,
            swapped_dropped=swapped_dropped,
            bytes_freed=bytes_freed,
        )
