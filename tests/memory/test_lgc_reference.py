"""The collector against its object-at-a-time reference.

A hypothesis state machine builds graphs with containers, cross-cluster
proxies, swapped clusters with outbound proxies, ``assign`` cursors,
pinned clusters, removed roots and merge/split.  Before every
collection the reference walk (``tests/memory/lgc_reference.py``)
predicts the result; the real collection must match it in its
``CollectionResult``, the sids it drops, the oids that survive and the
drop calls the stores receive.  The marking sets must match too, with
and without the whole-cluster rule.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.utils import SwapClusterUtils
from repro.devices import InMemoryStore
from tests.helpers import Holder, Node, Pair, build_chain, make_space
from repro.memory.reachability import mark_from, space_roots
from tests.memory.lgc_reference import (
    reference_collection,
    reference_mark,
    reference_mark_from,
)


class RecordingStore(InMemoryStore):
    """An in-memory store that logs every drop call."""

    def __init__(self, device_id: str) -> None:
        super().__init__(device_id)
        self.drops: list = []

    def drop(self, key: str) -> None:
        self.drops.append((self.device_id, key))
        super().drop(key)


def _holder(size: int) -> Holder:
    holder = Holder()
    nodes = [Node(value) for value in range(size)]
    holder.items.extend(nodes)
    holder.index = {value: node for value, node in enumerate(nodes) if value % 2}
    holder.fixed = (Pair(nodes[0], nodes[-1]), size)
    return holder


class CollectorMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.space = make_space(heap_capacity=8 << 20, with_store=False)
        self.stores = [RecordingStore("rec-a"), RecordingStore("rec-b")]
        for store in self.stores:
            self.space.manager.add_store(store)
        self.names: list = []
        self.counter = 0
        self.cursors: list = []
        self.pins: list = []

    # -- building ------------------------------------------------------------

    def _add(self, graph, cluster_size: int) -> None:
        name = f"g{self.counter}"
        self.counter += 1
        self.space.ingest(graph, cluster_size=cluster_size, root_name=name)
        self.names.append(name)

    @rule(length=st.integers(1, 10), cluster_size=st.integers(1, 4))
    def ingest_chain(self, length, cluster_size):
        self._add(build_chain(length), cluster_size)

    @rule(size=st.integers(1, 6), cluster_size=st.integers(1, 4))
    def ingest_holder(self, size, cluster_size):
        self._add(_holder(size), cluster_size)

    def _root(self, pick):
        if not self.names:
            return None
        return self.space.get_root(self.names[pick % len(self.names)])

    @staticmethod
    def _walk(handle, steps):
        """The node ``steps`` links along a chain, or the last node
        before its end or a link into a holder."""
        for _ in range(steps):
            following = handle.get_next()
            if following is None or not isinstance(
                SwapClusterUtils.resolve(following), Node
            ):
                break
            handle = following
        return handle

    @rule(src=st.integers(0, 99), dst=st.integers(0, 99), steps=st.integers(0, 9),
          key=st.integers(0, 3))
    def link(self, src, dst, steps, key):
        """Point a field or container slot of one graph into another."""
        source, target = self._root(src), self._root(dst)
        if source is None:
            return
        if isinstance(SwapClusterUtils.resolve(source), Holder):
            if key % 2:
                source.put(key, target)
            else:
                source.add(target)
        else:
            self._walk(source, steps).next = target

    @rule(pick=st.integers(0, 99), steps=st.integers(0, 9))
    def cut(self, pick, steps):
        """Drop a reference: what it held may become garbage, or garbage
        kept only by the whole-cluster rule."""
        source = self._root(pick)
        if source is None:
            return
        if isinstance(SwapClusterUtils.resolve(source), Holder):
            if steps % 2:
                source.fixed = ()
            else:
                source.index = {}
        else:
            self._walk(source, steps).next = None
        self.collect()

    @rule(pick=st.integers(0, 99), swap=st.booleans())
    def drop_root(self, pick, swap):
        if not self.names:
            return
        name = self.names.pop(pick % len(self.names))
        if swap:
            sid = self.space.sid_of(self.space.get_root(name))
            if self.space.clusters()[sid].swappable():
                self.space.swap_out(sid)
        self.space.del_root(name)
        self.collect()

    # -- cursors and pins --------------------------------------------------------

    @rule(pick=st.integers(0, 99), steps=st.integers(0, 9))
    def step_cursor(self, pick, steps):
        handle = self._root(pick)
        if handle is None or isinstance(SwapClusterUtils.resolve(handle), Holder):
            return
        cursor = SwapClusterUtils.assign(self.space.make_cursor(handle))
        self._walk(cursor, steps)
        self.cursors = (self.cursors + [cursor])[-3:]

    @rule()
    def forget_cursors(self):
        self.cursors = []

    @rule(pick=st.integers(0, 10_000))
    def pin(self, pick):
        resident = sorted(self.space._resident)
        if resident:
            pinned = self.space.pin(resident[pick % len(resident)])
            pinned.__enter__()
            self.pins.append(pinned)

    @rule()
    def unpin(self):
        if self.pins:
            self.pins.pop().__exit__(None, None, None)

    # -- swapping and restructuring ------------------------------------------------

    def _swappable(self):
        return [
            sid
            for sid, cluster in self.space.clusters().items()
            if cluster.swappable() and cluster.oids
        ]

    @rule(pick=st.integers(0, 10_000))
    def swap_out(self, pick):
        candidates = self._swappable()
        if candidates:
            self.space.swap_out(candidates[pick % len(candidates)])

    @rule(pick=st.integers(0, 10_000))
    def swap_in(self, pick):
        swapped = [
            sid for sid, cluster in self.space.clusters().items() if cluster.is_swapped
        ]
        if swapped:
            self.space.swap_in(swapped[pick % len(swapped)])

    @rule(pick=st.integers(0, 10_000))
    def merge(self, pick):
        candidates = self._swappable()
        if len(candidates) >= 2:
            absorber = candidates[pick % len(candidates)]
            absorbed = candidates[(pick + 1) % len(candidates)]
            self.space.merge_swap_clusters(absorber, absorbed)

    @rule(pick=st.integers(0, 10_000))
    def split(self, pick):
        candidates = [
            sid
            for sid, cluster in self.space.clusters().items()
            if cluster.swappable() and len(cluster) >= 2
        ]
        if candidates:
            sid = candidates[pick % len(candidates)]
            self.space.split_swap_cluster(sid, 1 + pick % (len(self.space.clusters()[sid]) - 1))

    # -- the check -------------------------------------------------------------------

    @rule()
    def collect(self):
        space = self.space
        roots = space_roots(space, self.cursors)
        # the walk without a space is the object-at-a-time walk; with one
        # it marks what the reference marks with its expansion hook
        plain, reference = mark_from(roots), reference_mark_from(roots)
        assert plain.oids == reference.oids
        assert plain.replacement_sids == reference.replacement_sids
        whole, reference = mark_from(roots, space), reference_mark(space, self.cursors)
        assert whole.oids == reference.oids
        assert whole.replacement_sids == reference.replacement_sids
        expected = reference_collection(space, self.cursors)
        before = set(space.clusters())
        for store in self.stores:
            store.drops.clear()
        result = space.gc(extra_roots=tuple(self.cursors))
        assert result == expected.result
        assert sorted(before - set(space.clusters())) == sorted(expected.dropped_sids)
        assert set(space._objects) == expected.surviving_oids
        assert sorted(drop for store in self.stores for drop in store.drops) == sorted(
            expected.store_drops
        )

    @invariant()
    def integrity_holds(self):
        if hasattr(self, "space"):
            self.space.verify_integrity()

    def teardown(self):
        while getattr(self, "pins", None):
            self.unpin()


TestCollectorMachine = CollectorMachine.TestCase
TestCollectorMachine.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
