"""The object-at-a-time collector, kept as a reference for the real one.

:func:`reference_mark` is the marking walk the collector used before it
marked swap-clusters whole: every managed object is pushed, popped and
classified on its own, and a hook expands each newly reached member's
resident cluster into its co-members.  :func:`reference_collection`
predicts, without changing the space, what a collection over that
marking does: its :class:`~repro.memory.lgc.CollectionResult`, the sids
it drops, the oids that survive, and the ``(device_id, key)`` drop calls
it sends to stores (for a space without fast path or scheduler).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Set, Tuple

from repro.ids import ROOT_SID
from repro.memory.lgc import CollectionResult
from repro.memory.reachability import ReachableSet, space_roots
from repro.runtime.classext import instance_fields


def reference_mark_from(roots: Iterable[Any], expand_object: Any = None) -> ReachableSet:
    result = ReachableSet()
    seen_containers: Set[int] = set()
    stack = list(roots)
    while stack:
        item = stack.pop()
        cls = type(item)
        if getattr(cls, "_obi_managed", False):
            oid = getattr(item, "_obi_oid", None)
            if oid is None or oid in result.oids:
                continue
            result.oids.add(oid)
            stack.extend(instance_fields(item).values())
            if expand_object is not None:
                stack.extend(expand_object(oid))
        elif getattr(cls, "_obi_is_proxy", False):
            target = item._obi_target
            if getattr(type(target), "_obi_is_replacement", False):
                if target.sid not in result.replacement_sids:
                    result.replacement_sids.add(target.sid)
                    stack.extend(target.outbound)
            else:
                stack.append(target)
        elif getattr(cls, "_obi_is_replacement", False):
            if item.sid not in result.replacement_sids:
                result.replacement_sids.add(item.sid)
                stack.extend(item.outbound)
        elif cls in (list, tuple, set, frozenset):
            marker = id(item)
            if marker not in seen_containers:
                seen_containers.add(marker)
                stack.extend(item)
        elif cls is dict:
            marker = id(item)
            if marker not in seen_containers:
                seen_containers.add(marker)
                stack.extend(item.keys())
                stack.extend(item.values())
    return result


def reference_mark(space: Any, extra_roots: Iterable[Any] = ()) -> ReachableSet:
    expanded: Set[int] = set()

    def expand_object(oid: int):
        sid = space._sid_by_oid.get(oid)
        if sid is None or sid == ROOT_SID or sid in expanded:
            return ()
        cluster = space._clusters.get(sid)
        if cluster is None or not cluster.is_resident:
            return ()
        expanded.add(sid)
        return [
            space._objects[member_oid]
            for member_oid in cluster.oids
            if member_oid in space._objects
        ]

    return reference_mark_from(space_roots(space, extra_roots), expand_object)


@dataclass
class ExpectedCollection:
    result: CollectionResult
    dropped_sids: List[int]
    surviving_oids: Set[int]
    store_drops: List[Tuple[str, str]]


def reference_collection(space: Any, extra_roots: Iterable[Any] = ()) -> ExpectedCollection:
    reachable = reference_mark(space, extra_roots)
    heap = space.heap
    objects = clusters = swapped = freed = 0
    dropped: List[int] = []
    collected: Set[int] = set()
    store_drops: List[Tuple[str, str]] = []

    def size(oid: int) -> int:
        return heap.size_of(oid) if heap.holds(oid) else 0

    for sid, cluster in space._clusters.items():
        if cluster.is_swapped:
            if reachable.is_swapped_cluster_reachable(sid):
                continue
            if cluster.replacement is not None:
                freed += size(cluster.replacement.oid)
            store_drops.extend(
                (holder.device_id, cluster.location.key)
                for holder in space.manager.bindings_for(sid)
            )
            dropped.append(sid)
            clusters += 1
            swapped += 1
            objects += len(cluster.oids)
            continue
        if sid == ROOT_SID:
            garbage = [oid for oid in cluster.oids if oid not in reachable.oids]
        elif cluster.oids and not any(oid in reachable.oids for oid in cluster.oids):
            garbage = list(cluster.oids)
            dropped.append(sid)
            clusters += 1
        else:
            continue
        for oid in garbage:
            freed += size(oid)
            objects += 1
            collected.add(oid)
    return ExpectedCollection(
        result=CollectionResult(
            objects_collected=objects,
            clusters_collected=clusters,
            swapped_dropped=swapped,
            bytes_freed=freed,
        ),
        dropped_sids=dropped,
        surviving_oids=set(space._objects) - collected,
        store_drops=store_drops,
    )
