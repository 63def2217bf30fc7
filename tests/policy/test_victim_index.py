"""Victim rankings over the resident index equal a full-cluster-table scan.

Every ranking in :mod:`repro.policy.victims` reads ``Space._resident``
instead of scanning ``Space._clusters``.  This file keeps the full-scan
versions as the reference — the default LRU selector and the per-strategy
rankings exactly as they read every cluster of the space — and checks,
after every step of random ingest / touch / swap / pin / restructure /
GC / priority sequences, that each ranking and each one-victim selector
returns the same sids, ties included.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Dict, List, Optional

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.fastpath import FastPathConfig
from repro.core.hibernate import hibernate, restore
from repro.devices import InMemoryStore
from repro.ids import ROOT_SID
from repro.policy.priority import WORKING_SET_WINDOW_TICKS
from repro.policy.victims import VICTIM_STRATEGIES, make_selector, select_lru
from tests.helpers import build_chain, chain_values, make_space

# -- the full-scan reference ----------------------------------------------------


def full_scan_victim(space: Any) -> Optional[int]:
    """The default selector as a scan of every cluster in the space."""
    best_sid = None
    best_tick = None
    for sid, cluster in space._clusters.items():
        if not cluster.swappable() or not cluster.oids:
            continue
        if best_tick is None or cluster.last_crossing_tick < best_tick:
            best_tick = cluster.last_crossing_tick
            best_sid = sid
    return best_sid


def _swappable(space: Any) -> List[Any]:
    return [
        cluster
        for cluster in space._clusters.values()
        if cluster.swappable() and cluster.oids
    ]


def _footprint(space: Any, cluster: Any) -> int:
    heap = space.heap
    return sum(heap.size_of(oid) for oid in cluster.oids if heap.holds(oid))


def _hot_fraction(space: Any, cluster: Any) -> float:
    footprint = _footprint(space, cluster)
    if footprint <= 0:
        return 0.0
    if not cluster.is_resident or not cluster.oids:
        hot = 0
    elif cluster.dirty_all:
        hot = footprint
    else:
        heap = space.heap
        hot = sum(
            heap.size_of(oid)
            for oid in cluster.dirty_oids
            if oid in cluster.oids and heap.holds(oid)
        )
    if space._tick - cluster.last_crossing_tick <= WORKING_SET_WINDOW_TICKS:
        hot = footprint
    return min(1.0, hot / footprint)


def _sids(clusters: List[Any]) -> List[int]:
    return [cluster.sid for cluster in clusters]


def _ref_hybrid(space: Any) -> List[int]:
    now = space._tick

    def score(cluster: Any) -> float:
        idle = max(1, now - cluster.last_crossing_tick)
        return _footprint(space, cluster) * idle / (1 + cluster.crossings)

    return _sids(sorted(_swappable(space), key=score, reverse=True))


def _ref_responsiveness(space: Any) -> List[int]:
    def key(cluster: Any):
        return (
            cluster.priority,
            _hot_fraction(space, cluster),
            cluster.last_crossing_tick,
            -_footprint(space, cluster),
            cluster.sid,
        )

    return _sids(sorted(_swappable(space), key=key))


REFERENCE_RANKINGS = {
    "lru": lambda space: _sids(
        sorted(_swappable(space), key=lambda c: c.last_crossing_tick)
    ),
    "lfu": lambda space: _sids(
        sorted(_swappable(space), key=lambda c: (c.crossings, c.last_crossing_tick))
    ),
    "largest": lambda space: _sids(
        sorted(_swappable(space), key=lambda c: _footprint(space, c), reverse=True)
    ),
    "smallest": lambda space: _sids(
        sorted(_swappable(space), key=lambda c: _footprint(space, c))
    ),
    "hybrid": _ref_hybrid,
    "responsiveness": _ref_responsiveness,
}


def assert_matches_reference(space: Any) -> None:
    assert sorted(VICTIM_STRATEGIES) == sorted(REFERENCE_RANKINGS)
    for name, reference in REFERENCE_RANKINGS.items():
        expected = reference(space)
        assert VICTIM_STRATEGIES[name](space) == expected, name
        assert make_selector(name)(space) == (expected[0] if expected else None), name
    assert select_lru(space) == full_scan_victim(space)


# -- the state machine --------------------------------------------------------------


class VictimIndexMachine(RuleBasedStateMachine):
    @initialize(fastpath=st.booleans())
    def setup(self, fastpath):
        self.space = make_space(heap_capacity=8 << 20)
        if fastpath:
            # dirty attribution makes hot fractions differ between clusters
            self.space.manager.enable_fastpath(FastPathConfig())
        self.names: List[str] = []
        self.pins: List[ExitStack] = []
        self.counter = 0

    def _matching(self, predicate) -> List[int]:
        return [
            sid
            for sid, cluster in sorted(self.space.clusters().items())
            if sid != ROOT_SID and predicate(cluster)
        ]

    @rule(
        length=st.integers(min_value=1, max_value=12),
        cluster_size=st.integers(min_value=1, max_value=4),
    )
    def ingest(self, length, cluster_size):
        # every cluster of one ingest shares its created tick: ties
        name = f"chain-{self.counter}"
        self.counter += 1
        self.space.ingest(
            build_chain(length), cluster_size=cluster_size, root_name=name
        )
        self.names.append(name)

    @rule(pick=st.integers(min_value=0, max_value=10_000), steps=st.integers(0, 12))
    def touch(self, pick, steps):
        if not self.names:
            return
        cursor = self.space.get_root(self.names[pick % len(self.names)])
        cursor.get_value()
        for _ in range(steps):
            cursor = cursor.get_next()
            if cursor is None:
                break
            cursor.get_value()

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def swap_out(self, pick):
        candidates = self._matching(lambda c: c.swappable() and c.oids)
        if candidates:
            self.space.swap_out(candidates[pick % len(candidates)])

    @rule()
    def swap_out_default_victim(self):
        if self.space.manager.victim_selector(self.space) is not None:
            self.space.swap_out()

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def swap_in(self, pick):
        swapped = self._matching(lambda c: c.is_swapped)
        if swapped:
            self.space.swap_in(swapped[pick % len(swapped)])

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def pin(self, pick):
        candidates = self._matching(lambda c: True)
        if candidates:
            stack = ExitStack()
            stack.enter_context(self.space.pin(candidates[pick % len(candidates)]))
            self.pins.append(stack)

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def unpin(self, pick):
        if self.pins:
            self.pins.pop(pick % len(self.pins)).close()

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def merge(self, pick):
        candidates = self._matching(lambda c: c.swappable() and c.oids)
        if len(candidates) >= 2:
            absorber = candidates[pick % len(candidates)]
            absorbed = candidates[(pick + 1) % len(candidates)]
            self.space.merge_swap_clusters(absorber, absorbed)

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def split(self, pick):
        candidates = self._matching(lambda c: c.swappable() and len(c) >= 2)
        if candidates:
            sid = candidates[pick % len(candidates)]
            size = len(self.space.clusters()[sid])
            self.space.split_swap_cluster(sid, 1 + pick % (size - 1))

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def drop_and_collect(self, pick):
        if self.names and not self.pins:
            self.space.del_root(self.names.pop(pick % len(self.names)))
        self.space.gc()

    @rule(pick=st.integers(min_value=0, max_value=10_000), priority=st.integers(0, 2))
    def set_priority(self, pick, priority):
        candidates = self._matching(lambda c: True)
        if candidates:
            self.space.set_priority(candidates[pick % len(candidates)], priority)

    @rule()
    def cool(self):
        self.space._tick += WORKING_SET_WINDOW_TICKS + 1

    @invariant()
    def rankings_match_the_full_scan(self):
        if hasattr(self, "space"):
            self.space.verify_integrity()
            assert_matches_reference(self.space)

    def teardown(self):
        for stack in getattr(self, "pins", ()):
            stack.close()


TestVictimIndexMachine = VictimIndexMachine.TestCase
TestVictimIndexMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


# -- fixed cases ---------------------------------------------------------------------


def test_ties_among_never_crossed_clusters_fall_to_the_lowest_sid():
    space = make_space()
    space.ingest(build_chain(12), cluster_size=3, root_name="a")  # sc-1..4
    # swap a middle cluster out and back: it moves to the end of the
    # resident index but keeps its tick, so it must not win or lose a tie
    space.swap_out(2)
    space.swap_in(2)
    space.swap_out(1)
    space.swap_in(1)
    assert list(space._resident) != sorted(space._resident)
    assert select_lru(space) == full_scan_victim(space) == 1
    assert_matches_reference(space)


def test_restored_space_evicts_the_full_scan_victim(tmp_path):
    space = make_space()
    space.ingest(build_chain(30), cluster_size=10, root_name="h")
    space.ingest(build_chain(20), cluster_size=5, root_name="g")
    space.swap_out(2)
    hibernate(space, tmp_path)

    # a heap with room for about 25 more nodes beyond the restored ones
    probe = restore(tmp_path)
    revived = restore(tmp_path, heap_capacity=probe.heap.used + 1024)
    revived.manager.add_store(InMemoryStore("revived-store"))
    revived.verify_integrity()
    assert select_lru(revived) == full_scan_victim(revived) == 1
    assert_matches_reference(revived)

    picks: List[Dict[str, Optional[int]]] = []
    default = revived.manager.victim_selector
    assert default is select_lru

    def recording(target: Any) -> Optional[int]:
        picks.append({"got": default(target), "want": full_scan_victim(target)})
        return picks[-1]["got"]

    revived.manager.victim_selector = recording
    # fill the heap: the ingest allocations must evict restored clusters
    revived.ingest(build_chain(60), cluster_size=10, root_name="filler")
    assert revived.manager.stats.swap_outs > 0
    assert picks and picks[0] == {"got": 1, "want": 1}
    assert all(pick["got"] == pick["want"] for pick in picks)
    assert revived.clusters()[1].is_swapped
    revived.verify_integrity()
    assert chain_values(revived.get_root("h")) == list(range(30))
