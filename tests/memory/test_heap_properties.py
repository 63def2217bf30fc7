"""Stateful property test of the heap's accounting invariants.

Every rule runs on two heaps: ``heap`` and a ``twin``.  The whole-cluster
calls (``allocate_cluster``/``free_cluster``) run on ``heap`` only, while
the twin runs the per-oid loop they stand for; the two must agree on all
accounting and on every callback, including the ``used``/``ratio`` each
callback saw.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.errors import HeapExhaustedError
from repro.memory.heap import Heap


def _record(log, kind):
    return lambda heap, need: log.append((kind, need, heap.used, heap.ratio))


class HeapMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.heap = Heap(10_000, high_watermark=0.8, low_watermark=0.4)
        self.twin = Heap(10_000, high_watermark=0.8, low_watermark=0.4)
        self.model: dict[int, int] = {}
        self.next_oid = 1
        self.highs = 0
        self.lows = 0
        self.heap.on_high(lambda h, n: setattr(self, "highs", self.highs + 1))
        self.heap.on_low(lambda h, n: setattr(self, "lows", self.lows + 1))
        self.events: list = []
        self.twin_events: list = []
        for heap, log in ((self.heap, self.events), (self.twin, self.twin_events)):
            heap.on_high(_record(log, "high"))
            heap.on_low(_record(log, "low"))
            heap.on_exhausted(_record(log, "exhausted"))

    def _both(self, call, twin_call=None):
        """Run ``call`` on the heap and ``twin_call`` (default ``call``)
        on the twin; both must raise alike or not."""
        outcomes = []
        for heap, run in ((self.heap, call), (self.twin, twin_call or call)):
            try:
                run(heap)
                outcomes.append(None)
            except HeapExhaustedError:
                outcomes.append(HeapExhaustedError)
        assert outcomes[0] is outcomes[1]
        return outcomes[0]

    @rule(size=st.integers(min_value=0, max_value=4_000))
    def allocate(self, size):
        oid = self.next_oid
        self.next_oid += 1
        expect_fail = sum(self.model.values()) + size > self.heap.capacity
        failed = self._both(lambda heap: heap.allocate(oid, size))
        assert (failed is HeapExhaustedError) == expect_fail
        if not expect_fail:
            self.model[oid] = size

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def free(self, pick):
        if not self.model:
            return
        oid = sorted(self.model)[pick % len(self.model)]
        assert self.heap.free_oid(oid) == self.model[oid]
        assert self.twin.free_oid(oid) == self.model.pop(oid)

    @rule(pick=st.integers(min_value=0, max_value=10_000),
          new_size=st.integers(min_value=0, max_value=4_000))
    def resize(self, pick, new_size):
        if not self.model:
            return
        oid = sorted(self.model)[pick % len(self.model)]
        delta = new_size - self.model[oid]
        expect_fail = delta > 0 and sum(self.model.values()) + delta > self.heap.capacity
        failed = self._both(lambda heap: heap.resize(oid, new_size))
        assert (failed is HeapExhaustedError) == expect_fail
        if not expect_fail:
            self.model[oid] = new_size

    @rule(sizes=st.lists(st.integers(min_value=0, max_value=3_000), max_size=6))
    def allocate_cluster(self, sizes):
        batch = {}
        for size in sizes:
            batch[self.next_oid] = size
            self.next_oid += 1

        def per_oid(heap):
            for oid, size in batch.items():
                heap.allocate(oid, size)

        self._both(lambda heap: heap.allocate_cluster(batch), per_oid)
        # a batch that does not fit keeps the prefix that did, as the
        # per-oid loop does
        for oid in batch:
            if self.twin.holds(oid):
                self.model[oid] = self.twin.size_of(oid)

    @rule(picks=st.lists(st.integers(min_value=0, max_value=10_000), max_size=6),
          stray=st.booleans())
    def free_cluster(self, picks, stray):
        held = sorted(self.model)
        oids = list(dict.fromkeys(held[p % len(held)] for p in picks)) if held else []
        if stray:
            oids.append(self.next_oid + 1_000)  # not held: skipped
        freed = self.heap.free_cluster(oids)
        twin_freed = sum(self.twin.free_oid(oid) for oid in oids if self.twin.holds(oid))
        assert freed == twin_freed == sum(self.model.pop(oid) for oid in oids if oid in self.model)

    @rule(slack=st.integers(min_value=-3_000, max_value=6_000))
    def reassign_capacity(self, slack):
        # swapbench tightens a built space's heap this way; the flag that
        # remembers "above high" is not re-evaluated until the next check,
        # so a batch may start on the far side of a watermark
        capacity = max(1, self.heap.used + slack)
        self.heap.capacity = capacity
        self.twin.capacity = capacity

    @invariant()
    def twin_agrees(self):
        if hasattr(self, "heap"):
            assert self.heap.stats() == self.twin.stats()
            assert self.events == self.twin_events
            for oid in self.model:
                assert self.twin.size_of(oid) == self.heap.size_of(oid)

    @invariant()
    def used_matches_model(self):
        if hasattr(self, "heap"):
            assert self.heap.used == sum(self.model.values())
            assert self.heap.free == self.heap.capacity - self.heap.used

    @invariant()
    def per_oid_sizes_match(self):
        if hasattr(self, "heap"):
            for oid, size in self.model.items():
                assert self.heap.holds(oid)
                assert self.heap.size_of(oid) == size

    @invariant()
    def watermark_events_alternate(self):
        # high/low notifications strictly alternate, starting with high
        if hasattr(self, "heap"):
            assert self.highs - self.lows in (0, 1)

    @invariant()
    def peak_monotone(self):
        if hasattr(self, "heap"):
            stats = self.heap.stats()
            assert stats.peak_used >= self.heap.used


TestHeapMachine = HeapMachine.TestCase
TestHeapMachine.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
