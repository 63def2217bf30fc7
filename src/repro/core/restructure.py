"""Runtime swap-cluster restructuring: merge and split.

The paper makes both granularities *adaptable* — clusters have adaptable
size and "a number (also adaptable) of chained object clusters" forms a
swap-cluster — but its prototype fixes the grouping at replication time.
This module adds the runtime half of that adaptability:

* :func:`merge_swap_clusters` — fold one resident swap-cluster into
  another.  Proxies that mediated references *between* the two are
  dismantled (the references become raw: the application regains full
  speed across the former boundary, exactly like proxy replacement at
  replication time);
* :func:`split_swap_cluster` — move a subset of members into a fresh
  swap-cluster, inserting swap-cluster-proxies on every edge crossing
  the new boundary.

Both preserve the mediation invariant (``verify_integrity`` clean) and
all existing application handles: live proxies are retagged/dismantled
in place through the same proxy table swapping uses.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Set

from repro.core.swap_proxy import set_cluster, set_target_sid
from repro.errors import ClusterNotResidentError, ClusterPinnedError, NotManagedError
from repro.events import SwapClusterMergedEvent, SwapClusterSplitEvent
from repro.ids import Oid, ROOT_SID, Sid

_object_setattr = object.__setattr__


def _require_restructurable(space: Any, sid: Sid) -> Any:
    cluster = space._cluster(sid)
    if sid == ROOT_SID:
        raise ClusterNotResidentError("swap-cluster-0 cannot be restructured")
    if not cluster.is_resident:
        raise ClusterNotResidentError(
            f"swap-cluster {sid} is swapped out; reload before restructuring"
        )
    if cluster.pins > 0:
        raise ClusterPinnedError(f"swap-cluster {sid} is pinned")
    return cluster


def _move_bucket_entries(
    space: Any, from_sid: Sid, to_sid: Sid, moved_oids: Set[Oid] | None = None
) -> int:
    """Re-file live proxies targeting ``from_sid`` (optionally only those
    targeting ``moved_oids``) under the same keys in ``to_sid``'s bucket,
    retagging them."""
    target_cluster = space._clusters[to_sid]
    moved = 0
    for key, proxy in space.proxies_targeting(from_sid).items():
        if moved_oids is not None and proxy._obi_target_oid not in moved_oids:
            continue
        set_target_sid(proxy, to_sid)
        set_cluster(proxy, target_cluster)
        space._refile_proxy(proxy, from_sid, key, key)
        moved += 1
    return moved


def merge_swap_clusters(space: Any, absorber_sid: Sid, absorbed_sid: Sid) -> Sid:
    """Fold swap-cluster ``absorbed_sid`` into ``absorber_sid``.

    Returns the surviving sid.  Both clusters must be resident and
    unpinned.  References between the two become raw; references from
    elsewhere are retargeted transparently.
    """
    if absorber_sid == absorbed_sid:
        raise NotManagedError("cannot merge a swap-cluster with itself")
    absorber = _require_restructurable(space, absorber_sid)
    absorbed = _require_restructurable(space, absorbed_sid)

    # 1. membership: retag every absorbed member
    for oid in list(absorbed.oids):
        class_name = absorbed.class_name_by_oid[oid]
        absorber.add_member(oid, class_name)
        space._sid_by_oid[oid] = absorber_sid
        member = space._objects[oid]
        _object_setattr(member, "_obi_sid", absorber_sid)
    moved_oids = set(absorbed.oids)
    absorbed.oids.clear()
    absorbed.class_name_by_oid.clear()

    # 2. live proxies targeting the absorbed cluster now target the absorber
    _move_bucket_entries(space, absorbed_sid, absorber_sid)

    # 3. re-mediate fields: former cross-boundary proxies between the two
    #    clusters dismantle to raw references; foreign-source proxies that
    #    ended up in absorber-owned fields are re-wrapped
    for oid in list(absorber.oids):
        space._rewrite_boundaries(space._objects[oid])

    # 4. record keeping
    absorber.cids.extend(absorbed.cids)
    absorber.crossings += absorbed.crossings
    absorber.last_crossing_tick = max(
        absorber.last_crossing_tick, absorbed.last_crossing_tick
    )
    space._pop_cluster(absorbed_sid)
    space._drop_proxy_bucket(absorbed_sid)

    space.bus.emit(
        SwapClusterMergedEvent(
            space=space.name,
            absorber_sid=absorber_sid,
            absorbed_sid=absorbed_sid,
            object_count=len(moved_oids),
        )
    )
    return absorber_sid


def split_swap_cluster(
    space: Any,
    sid: Sid,
    members: Iterable[Any] | Callable[[Any], bool] | int,
) -> Sid:
    """Move some members of swap-cluster ``sid`` into a new swap-cluster.

    ``members`` selects what moves: an iterable of oids/objects/proxies,
    a predicate over raw member objects, or an integer (the *last* n
    members in oid order — the tail of a chained cluster).  Returns the
    new swap-cluster's sid.  Every reference crossing the new boundary
    gets a swap-cluster-proxy.
    """
    cluster = _require_restructurable(space, sid)
    moved_oids = _resolve_member_selection(space, cluster, members)
    if not moved_oids:
        raise NotManagedError("split selection is empty")
    if moved_oids == set(cluster.oids):
        raise NotManagedError("split selection would empty the source cluster")

    new_cluster = space.new_swap_cluster()
    new_cluster.last_crossing_tick = cluster.last_crossing_tick

    # 1. membership
    for oid in sorted(moved_oids):
        class_name = cluster.class_name_by_oid[oid]
        new_cluster.add_member(oid, class_name)
        cluster.remove_member(oid)
        space._sid_by_oid[oid] = new_cluster.sid
        member = space._objects[oid]
        _object_setattr(member, "_obi_sid", new_cluster.sid)

    # 2. live proxies targeting moved members follow them
    _move_bucket_entries(space, sid, new_cluster.sid, moved_oids)

    # 3. re-mediate both sides: raw edges crossing the new boundary gain
    #    proxies; proxies that now point within one side dismantle
    for member_sid in (sid, new_cluster.sid):
        for oid in list(space._clusters[member_sid].oids):
            space._rewrite_boundaries(space._objects[oid])

    space.bus.emit(
        SwapClusterSplitEvent(
            space=space.name,
            source_sid=sid,
            new_sid=new_cluster.sid,
            object_count=len(moved_oids),
        )
    )
    return new_cluster.sid


def _resolve_member_selection(
    space: Any, cluster: Any, members: Iterable[Any] | Callable[[Any], bool] | int
) -> Set[Oid]:
    from repro.core.utils import SwapClusterUtils

    if isinstance(members, int):
        ordered = sorted(cluster.oids)
        if members <= 0:
            return set()
        return set(ordered[-members:])
    if callable(members):
        return {
            oid
            for oid in cluster.oids
            if members(space._objects[oid])
        }
    selected: Set[Oid] = set()
    for item in members:
        oid = item if isinstance(item, int) else SwapClusterUtils.oid_of(item)
        if oid not in cluster.oids:
            raise NotManagedError(
                f"oid {oid} is not a member of swap-cluster {cluster.sid}"
            )
        selected.add(oid)
    return selected
