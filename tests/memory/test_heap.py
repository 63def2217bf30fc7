"""Heap accounting, watermarks, exhaustion callbacks."""

import pytest

from repro.errors import HeapExhaustedError
from repro.memory.heap import Heap


def test_allocate_and_free():
    heap = Heap(1000)
    heap.allocate(1, 100)
    heap.allocate(2, 200)
    assert heap.used == 300
    assert heap.free == 700
    assert heap.free_oid(1) == 100
    assert heap.used == 200


def test_ratio():
    heap = Heap(1000)
    heap.allocate(1, 250)
    assert heap.ratio == 0.25


def test_double_allocate_same_oid_rejected():
    heap = Heap(1000)
    heap.allocate(1, 10)
    with pytest.raises(KeyError):
        heap.allocate(1, 10)


def test_free_unknown_oid_raises():
    with pytest.raises(KeyError):
        Heap(100).free_oid(9)


def test_exhaustion_raises():
    heap = Heap(100)
    heap.allocate(1, 90)
    with pytest.raises(HeapExhaustedError):
        heap.allocate(2, 20)
    assert heap.used == 90  # failed allocation leaves no residue


def test_exhaustion_callback_gets_a_chance_to_free():
    heap = Heap(100)
    heap.allocate(1, 90)

    def relieve(h, need):
        h.free_oid(1)

    heap.on_exhausted(relieve)
    heap.allocate(2, 20)  # succeeds because the callback freed room
    assert heap.used == 20


def test_exhaustion_callback_insufficient_still_raises():
    heap = Heap(100)
    heap.allocate(1, 90)
    heap.on_exhausted(lambda h, need: None)
    with pytest.raises(HeapExhaustedError):
        heap.allocate(2, 20)


def test_high_watermark_fires_once_until_low():
    heap = Heap(100, high_watermark=0.8, low_watermark=0.5)
    highs, lows = [], []
    heap.on_high(lambda h, n: highs.append(h.used))
    heap.on_low(lambda h, n: lows.append(h.used))
    heap.allocate(1, 85)
    heap.allocate(2, 5)  # still above: no second high event
    assert len(highs) == 1
    heap.free_oid(1)  # drops to 5: below low
    assert len(lows) == 1
    heap.allocate(3, 80)  # crosses high again
    assert len(highs) == 2


def test_watermark_validation():
    with pytest.raises(ValueError):
        Heap(100, high_watermark=0.4, low_watermark=0.6)
    with pytest.raises(ValueError):
        Heap(0)


def test_resize_grow_and_shrink():
    heap = Heap(100)
    heap.allocate(1, 40)
    heap.resize(1, 60)
    assert heap.used == 60
    heap.resize(1, 10)
    assert heap.used == 10


def test_resize_to_negative_size_rejected():
    heap = Heap(100)
    heap.allocate(1, 40)
    with pytest.raises(ValueError):
        heap.resize(1, -5)
    assert heap.used == 40
    assert heap.size_of(1) == 40


def test_resize_over_capacity_raises():
    heap = Heap(100)
    heap.allocate(1, 40)
    with pytest.raises(HeapExhaustedError):
        heap.resize(1, 200)
    assert heap.size_of(1) == 40


def test_would_fit():
    heap = Heap(100)
    heap.allocate(1, 60)
    assert heap.would_fit(40)
    assert not heap.would_fit(41)


def test_bytes_over_low_watermark():
    heap = Heap(100, high_watermark=0.9, low_watermark=0.5)
    heap.allocate(1, 80)
    assert heap.bytes_over_low_watermark() == 30
    heap.free_oid(1)
    assert heap.bytes_over_low_watermark() == 0


def test_stats():
    heap = Heap(100)
    heap.allocate(1, 70)
    heap.free_oid(1)
    heap.allocate(2, 10)
    stats = heap.stats()
    assert stats.peak_used == 70
    assert stats.allocations == 2
    assert stats.used == 10
    assert stats.free == 90


def test_negative_allocation_rejected():
    with pytest.raises(ValueError):
        Heap(100).allocate(1, -5)


def test_cluster_calls_fire_watermarks_where_the_per_oid_loop_does():
    heap = Heap(100, high_watermark=0.8, low_watermark=0.5)
    seen = []
    heap.on_high(lambda h, n: seen.append(("high", h.used)))
    heap.on_low(lambda h, n: seen.append(("low", h.used)))
    heap.allocate_cluster({1: 30, 2: 60, 3: 5})  # crosses high at oid 2
    assert seen == [("high", 90)]
    assert heap.used == 95 and heap.stats().allocations == 3
    assert heap.free_cluster([3, 2, 9]) == 65  # oid 9 is not held
    assert seen == [("high", 90), ("low", 30)]


def test_cluster_allocation_that_does_not_fit_keeps_the_prefix():
    heap = Heap(100)
    with pytest.raises(HeapExhaustedError):
        heap.allocate_cluster({1: 60, 2: 30, 3: 20})
    assert heap.used == 90
    assert heap.holds(2) and not heap.holds(3)
