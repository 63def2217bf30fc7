"""Reachability analysis over a managed space.

Implements the marking walk shared by the local collector and tests.
The traversal rules encode the paper's GC integration (Section 3):

* raw managed objects are marked by oid and traversed field-by-field
  (descending into containers); given a space, reaching one member of a
  resident swap-cluster other than swap-cluster-0 marks the whole
  cluster;
* a swap-cluster-proxy marks nothing itself but forwards the walk to its
  target: the live replica when resident, the **replacement-object** when
  swapped;
* a reachable replacement-object marks its swap-cluster as
  conservatively reachable *as a whole* and keeps the detached cluster's
  outbound proxies alive (so the walk continues through them — the
  swapped cluster still "references" those targets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Set


@dataclass
class ReachableSet:
    """Result of a marking walk."""

    oids: Set[int] = field(default_factory=set)
    #: sids whose replacement-object was reached (swapped clusters alive).
    replacement_sids: Set[int] = field(default_factory=set)
    #: resident non-root swap-clusters reached, and so marked whole (only
    #: filled by a walk given a space).
    cluster_sids: Set[int] = field(default_factory=set)

    def is_object_reachable(self, oid: int) -> bool:
        return oid in self.oids

    def is_swapped_cluster_reachable(self, sid: int) -> bool:
        return sid in self.replacement_sids


# What the walk does with an item, by its class (see ``_kind_of``).
_OTHER, _MANAGED, _PROXY, _REPLACEMENT, _SEQUENCE, _DICT = range(6)


def _kind_of(cls: type) -> int:
    if getattr(cls, "_obi_managed", False):
        return _MANAGED
    if getattr(cls, "_obi_is_proxy", False):
        return _PROXY
    if getattr(cls, "_obi_is_replacement", False):
        return _REPLACEMENT
    if cls in (list, tuple, set, frozenset):
        return _SEQUENCE
    if cls is dict:
        return _DICT
    return _OTHER


def mark_from(roots: Iterable[Any], space: Any = None) -> ReachableSet:
    """Mark everything reachable from ``roots``.

    With ``space``, the walk applies the paper's conservative rule: a
    swap-cluster is reachable *as a whole*.  The first member reached of
    a resident swap-cluster other than swap-cluster-0 marks every member
    at once, and all of them anchor their own outgoing references (their
    targets must not be collected under members kept only by
    conservatism).  Swap-cluster-0's members are marked one by one.

    A managed object's values are pushed straight from its ``__dict__``:
    its own ``_obi_`` entries hold only ints and its space, which the
    walk passes over like any other value that is not a reference.
    """
    result = ReachableSet()
    oids = result.oids
    replacement_sids = result.replacement_sids
    cluster_sids = result.cluster_sids
    if space is not None:
        objects = space._objects
        sid_by_oid = space._sid_by_oid
        resident = space._resident
    # one class test per item; per walk, so it keeps no class alive
    kinds: Dict[type, int] = {}
    seen_containers: Set[int] = set()
    stack = list(roots)
    push = stack.extend
    pop = stack.pop
    while stack:
        item = pop()
        cls = type(item)
        kind = kinds.get(cls)
        if kind is None:
            kind = kinds[cls] = _kind_of(cls)
        if kind == _OTHER:
            continue
        if kind == _MANAGED:
            oid = getattr(item, "_obi_oid", None)
            if oid is None or oid in oids:
                continue
            oids.add(oid)
            push(vars(item).values())
            if space is None:
                continue
            sid = sid_by_oid.get(oid)
            cluster = resident.get(sid)
            if cluster is None or sid in cluster_sids:
                continue
            cluster_sids.add(sid)
            for member_oid in cluster.oids:
                if member_oid not in oids:
                    member = objects.get(member_oid)
                    if member is not None:
                        oids.add(member_oid)
                        push(vars(member).values())
        elif kind == _PROXY:
            stack.append(item._obi_target)
        elif kind == _REPLACEMENT:
            if item.sid not in replacement_sids:
                replacement_sids.add(item.sid)
                push(item._outbound)
        else:
            marker = id(item)
            if marker not in seen_containers:
                seen_containers.add(marker)
                if kind == _SEQUENCE:
                    push(item)
                else:
                    push(item.keys())
                    push(item.values())
    return result


def space_roots(space: Any, extra_roots: Iterable[Any] = ()) -> list:
    """The root set of a space: named roots, pinned clusters, extras."""
    roots: list = list(space._roots.values())
    for cluster in space._clusters.values():
        if cluster.pins > 0 and cluster.is_resident:
            roots.extend(
                space._objects[oid] for oid in cluster.oids if oid in space._objects
            )
    roots.extend(extra_roots)
    return roots
