"""Prefetch prediction: reference edges, succession history, pinned counts.

``Prefetcher._neighbors`` reads a swapped cluster's reference edges from
its replacement-object's outbound array (paper §3).  The property test
keeps the former space-wide proxy scan as the reference and requires
both to agree after arbitrary swap, GC, restructure and cursor
traffic.  The pinned chase fixes the exact scheduler counts and final
simulated clock of a small seeded run, so any change to what is
predicted or booked shows up as a diff here.
"""

from __future__ import annotations

import gc as python_gc
import random
from typing import Any, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import managed
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.sched import AsyncSchedConfig, Prefetcher
from repro.core.space import Space
from repro.core.utils import SwapClusterUtils
from repro.devices.store import XmlStoreDevice
from repro.ids import ROOT_SID, Sid
from tests.helpers import Pair, make_space


def _scan_neighbors(prefetcher: Prefetcher, source: Sid) -> List[Sid]:
    """The former ``_neighbors``: reference edges found by scanning every
    live proxy in the space for one whose source is ``source``.

    The scan also sees proxies that only unreachable Python garbage
    still holds: fields of a dead incarnation of a member (replaced at
    the last swap-in) that sits in a reference cycle until the cyclic
    collector runs.  Those are no reference edges of the live graph, so
    callers collect cycles first.
    """
    space = prefetcher._space
    clusters = space._clusters

    def swapped(sid: Sid) -> bool:
        cluster = clusters.get(sid)
        return (
            cluster is not None
            and cluster.is_swapped
            and cluster.location is not None
        )

    ranked: List[Sid] = []
    history = prefetcher._successors.get(source, {})
    for sid, _count in sorted(
        history.items(), key=lambda item: (-item[1], item[0])
    ):
        if swapped(sid):
            ranked.append(sid)
    edges: List[Tuple[int, Sid]] = []
    for target_sid in sorted(clusters):
        if target_sid == source or target_sid in history:
            continue
        if not swapped(target_sid):
            continue
        if any(
            proxy._obi_source_sid == source
            for proxy in space.proxies_targeting(target_sid).values()
        ):
            edges.append((-clusters[target_sid].last_crossing_tick, target_sid))
    ranked.extend(sid for _tick, sid in sorted(edges))
    return ranked


# -- the replacement-object edges equal the full scan ----------------------

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "out", "evict", "in", "walk", "flip",
                "merge", "split", "gc", "drop",
            ]
        ),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=30,
)


def _pick(candidates: List[Sid], pick: int) -> Sid:
    return candidates[pick % len(candidates)]


@settings(max_examples=80, deadline=None)
@given(
    nodes=st.integers(min_value=4, max_value=24),
    cluster_size=st.integers(min_value=1, max_value=5),
    shape_seed=st.integers(min_value=0, max_value=1_000),
    ops=_OPS,
)
def test_replacement_edges_match_the_full_proxy_scan(
    nodes, cluster_size, shape_seed, ops
):
    # objects that predate the example are frozen out of the cyclic
    # collector, so collecting before every comparison stays cheap
    python_gc.freeze()
    try:
        _random_history_keeps_edges_equal(nodes, cluster_size, shape_seed, ops)
    finally:
        python_gc.unfreeze()


def _random_history_keeps_edges_equal(
    nodes: int, cluster_size: int, shape_seed: int, ops: List[Tuple[str, int]]
) -> None:
    shape = random.Random(shape_seed)
    graph = [Pair() for _ in range(nodes)]
    for index, node in enumerate(graph):
        node.left = graph[(index + 1) % nodes]
        node.right = graph[shape.randrange(nodes)]
    space = make_space(heap_capacity=8 << 20)
    space.ingest(graph[0], cluster_size=cluster_size, root_name="head")
    space.set_root("side", space.get_root("head").get_right())
    del graph, node
    # faults go through the async scheduler, so the prefetcher learns
    # succession history and predicts from the real fault path
    prefetcher = space.manager.enable_async_scheduler(channels=2).prefetcher
    cursors: List[Any] = []

    def clusters_where(test) -> List[Sid]:
        return [
            sid
            for sid, cluster in sorted(space.clusters().items())
            if sid != ROOT_SID and test(cluster)
        ]

    def swappable(cluster: Any) -> bool:
        return cluster.swappable() and bool(cluster.oids)

    def swapped(cluster: Any) -> bool:
        return cluster.is_swapped

    for sid in clusters_where(swappable):
        space.swap_out(sid)

    for kind, pick in ops:
        resident = clusters_where(swappable)
        swapped_sids = clusters_where(swapped)
        if kind == "out" and resident:
            space.swap_out(_pick(resident, pick))
        elif kind == "evict":
            for sid in resident:
                space.swap_out(sid)
        elif kind == "in" and swapped_sids:
            space.swap_in(_pick(swapped_sids, pick))
        elif kind == "walk":
            # an assign-mode cursor retargets itself step by step across
            # cluster boundaries, faulting swapped clusters in as it goes
            cursor = SwapClusterUtils.assign(
                space.make_cursor(space.get_root("head"))
            )
            for step in range(pick % 17):
                cursor = cursor.get_left() if step % 3 else cursor.get_right()
            cursors = (cursors + [cursor])[-3:]
        elif kind == "flip" and cursors:
            # a mediated write: the node's reference edges change
            cursors[pick % len(cursors)].swap_sides()
        elif kind == "merge" and len(resident) >= 2:
            absorber = _pick(resident, pick)
            absorbed = _pick(resident, pick + 1)
            if absorber != absorbed:
                space.merge_swap_clusters(absorber, absorbed)
        elif kind == "split":
            splittable = [
                sid for sid in resident if len(space.clusters()[sid]) >= 2
            ]
            if splittable:
                sid = _pick(splittable, pick)
                space.split_swap_cluster(sid, 1)
        elif kind == "gc":
            space.gc(extra_roots=tuple(cursors))
        elif kind == "drop" and "side" in space.root_names():
            space.del_root("side")
            cursors.clear()
            space.gc()
        python_gc.collect()
        for sid in clusters_where(swapped):
            assert prefetcher._neighbors(sid) == _scan_neighbors(
                prefetcher, sid
            ), f"after {kind}: neighbors of swap-cluster {sid} differ"
    space.verify_integrity()


# -- a pinned seeded chase --------------------------------------------------


@managed
class ChaseNode:
    """A ring node with a second, longer reference (a jump)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.next: Any = None
        self.alt: Any = None


def _seeded_chase(seed: int, steps: int = 300) -> Tuple[Any, SimulatedClock]:
    """A pointer chase over a 60-node ring in 15 clusters, heap room for
    about four of them, three Bluetooth stores, a speculation buffer of
    two so that fresh predictions demote stale ones; returns the scheduler
    and the clock after the walk and a final drain."""
    shape = random.Random(seed)
    clock = SimulatedClock()
    space = Space("chase", heap_capacity=64 << 20, clock=clock)
    for index in range(3):
        link = bluetooth_link(clock, name=f"bt-{index}")
        space.manager.add_store(
            XmlStoreDevice(f"peer-{index}", capacity=1 << 20, link=link)
        )
    ring = [ChaseNode(index) for index in range(60)]
    for index, node in enumerate(ring):
        node.next = ring[(index + 1) % 60]
        node.alt = ring[(index + 4 + shape.randrange(16)) % 60]
    space.ingest(ring[0], cluster_size=4, root_name="head")
    del ring, node
    cluster_bytes = space.heap.used // 15
    for sid, cluster in sorted(space.clusters().items()):
        if cluster.swappable() and cluster.oids:
            space.swap_out(sid)
    space.heap.capacity = space.heap.used + 4 * cluster_bytes
    sched = space.manager.enable_async_scheduler(
        AsyncSchedConfig(channels=3, prefetch_depth=3, max_speculative=2)
    )
    cursor = space.get_root("head")
    for _ in range(steps):
        _ = cursor.index
        cursor = cursor.alt if shape.random() < 0.2 else cursor.next
    sched.drain()
    space.verify_integrity()
    return sched, clock


#: Recorded with the full-scan ``_neighbors`` as 157, 68, 89 and
#: 43.875634285714405 s; reading the replacement-object's edges left
#: them unchanged.  They moved once, when a full buffer began to demote
#: its stalest speculation only for a fetch the radios could book as
#: they stood (before, demoting could refund a busy radio to a less
#: likely prediction): 37 fewer demotions keep 18 more payloads until
#: their fault.
PINNED_ISSUED, PINNED_HITS, PINNED_DEMOTED = 139, 86, 52
PINNED_CLOCK_S = 41.7588228571429


def test_seeded_chase_reproduces_pinned_scheduler_counts():
    sched, clock = _seeded_chase(seed=5)
    stats = sched.stats
    assert (
        stats.prefetch_issued,
        stats.prefetch_hits,
        stats.prefetch_demoted,
    ) == (PINNED_ISSUED, PINNED_HITS, PINNED_DEMOTED)
    assert clock.now() == PINNED_CLOCK_S
