"""Responsiveness-aware victim policy: priorities + working sets.

SWAM's core observation (PAPERS.md) is that swap policy on a device is
really a *responsiveness* policy: the cluster behind the screen must
never pay the fault stall, and the working set — not raw recency — is
what predicts the next fault.  This module adds both notions on top of
the crossing statistics and PR 2 dirty tracking the clusters already
carry:

* a :class:`Priority` per swap-cluster (foreground / background /
  idle), settable via :meth:`repro.core.space.Space.set_priority`;
* :func:`working_set_bytes`, a working-set estimator fed by the dirty
  tracker: dirty bytes are certainly hot, and a cluster crossed within
  the recency window is conservatively counted whole;
* :func:`footprint`, the heap bytes a cluster's resident members hold.

The ``"responsiveness"`` ranking built on these lives with every other
ranking in :mod:`repro.policy.victims`: evict idle before background
before foreground, cold before hot, stale before recent.
"""

from __future__ import annotations

import enum
from typing import Any

#: Crossings within this many ticks of "now" count the whole cluster as
#: part of the working set (a touched cluster is about to be touched
#: again far more often than not).
WORKING_SET_WINDOW_TICKS = 64


class Priority(enum.IntEnum):
    """User-visible importance of a swap-cluster's contents.

    Plain ints on the wire (``SwapCluster.priority`` stores the value),
    so core never imports this module; higher means more protected.
    """

    IDLE = 0
    BACKGROUND = 1
    FOREGROUND = 2


def footprint(space: Any, cluster: Any) -> int:
    """Heap bytes held by ``cluster``'s members."""
    heap = space.heap
    return sum(heap.size_of(oid) for oid in cluster.oids if heap.holds(oid))


def working_set_bytes(
    space: Any, cluster: Any, window_ticks: int = WORKING_SET_WINDOW_TICKS
) -> int:
    """Estimated hot bytes of a resident cluster.

    Fed by the dirty tracker: attributed dirty objects are certainly
    part of the working set; a conservative whole-payload invalidation
    (``dirty_all``) or a crossing within ``window_ticks`` counts the
    full footprint.  A clean cluster untouched for longer than the
    window estimates to zero — the ideal victim.
    """
    if not cluster.is_resident or not cluster.oids:
        return 0
    whole = footprint(space, cluster)
    if cluster.dirty_all:
        hot = whole
    else:
        heap = space.heap
        hot = sum(
            heap.size_of(oid)
            for oid in cluster.dirty_oids
            if oid in cluster.oids and heap.holds(oid)
        )
    if space._tick - cluster.last_crossing_tick <= window_ticks:
        hot = whole
    return hot


def hot_fraction(space: Any, cluster: Any) -> float:
    """``working_set_bytes`` over footprint, in ``[0, 1]``."""
    whole = footprint(space, cluster)
    if whole <= 0:
        return 0.0
    return min(1.0, working_set_bytes(space, cluster) / whole)
