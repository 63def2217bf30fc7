"""Byte-accounted heap model with watermarks.

Models the constrained device heap: a fixed capacity, per-allocation
accounting keyed by oid, and high/low watermarks that drive the
context-management module's memory-pressure events ("the memory occupied
by the object graphs of applications reaches a threshold value, possibly
near the limit of the memory capacity of the device" — paper, Section 3).

The heap itself is policy-free: it *reports* pressure through callbacks;
deciding to swap is the policy engine's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, List, Mapping, Optional

from repro.errors import HeapExhaustedError

PressureCallback = Callable[["Heap", int], None]


@dataclass(frozen=True)
class HeapStats:
    capacity: int
    used: int
    allocations: int
    peak_used: int

    @property
    def ratio(self) -> float:
        return self.used / self.capacity if self.capacity else 0.0

    @property
    def free(self) -> int:
        return self.capacity - self.used


class Heap:
    """Fixed-capacity accounted heap.

    ``allocate`` raises :class:`HeapExhaustedError` when the allocation
    does not fit; before failing it gives each registered
    ``on_exhausted`` callback one chance to free memory (the swap path).
    Watermark crossings invoke ``on_high`` / ``on_low`` callbacks.
    """

    def __init__(
        self,
        capacity: int,
        high_watermark: float = 0.85,
        low_watermark: float = 0.60,
    ) -> None:
        if capacity <= 0:
            raise ValueError("heap capacity must be positive")
        if not 0.0 < low_watermark <= high_watermark <= 1.0:
            raise ValueError("watermarks must satisfy 0 < low <= high <= 1")
        self.capacity = capacity
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._sizes: Dict[int, int] = {}
        self._used = 0
        self._peak = 0
        self._allocations = 0
        self._above_high = False
        self._on_high: List[PressureCallback] = []
        self._on_low: List[PressureCallback] = []
        self._on_exhausted: List[PressureCallback] = []

    # -- callbacks -----------------------------------------------------------

    def on_high(self, callback: PressureCallback) -> None:
        self._on_high.append(callback)

    def on_low(self, callback: PressureCallback) -> None:
        self._on_low.append(callback)

    def on_exhausted(self, callback: PressureCallback) -> None:
        self._on_exhausted.append(callback)

    # -- accounting ----------------------------------------------------------

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self.capacity - self._used

    @property
    def ratio(self) -> float:
        return self._used / self.capacity

    def holds(self, oid: int) -> bool:
        return oid in self._sizes

    def size_of(self, oid: int) -> int:
        return self._sizes[oid]

    def stats(self) -> HeapStats:
        return HeapStats(
            capacity=self.capacity,
            used=self._used,
            allocations=self._allocations,
            peak_used=self._peak,
        )

    def allocate(self, oid: int, size: int) -> None:
        if size < 0:
            raise ValueError("allocation size must be non-negative")
        if oid in self._sizes:
            raise KeyError(f"oid {oid} already allocated")
        if self._used + size > self.capacity:
            for callback in self._on_exhausted:
                callback(self, size)
            if self._used + size > self.capacity:
                raise HeapExhaustedError(
                    f"need {size} bytes, {self.free} free of {self.capacity}"
                )
        self._sizes[oid] = size
        self._used += size
        self._allocations += 1
        self._peak = max(self._peak, self._used)
        self._check_watermarks()

    def free_oid(self, oid: int) -> int:
        size = self._sizes.pop(oid)
        self._used -= size
        self._check_watermarks()
        return size

    # -- whole swap-clusters ---------------------------------------------------
    #
    # A swap-in, a swap-out and a collected cluster move many allocations
    # at once.  Each call below leaves exactly the state of the per-oid
    # loop it stands for (``used``, ``peak``, ``allocations``, the sizes,
    # and every callback with the ``used``/``ratio`` it saw).  When no
    # step of that loop could fire a callback, it updates the totals once
    # and checks no watermark: ``used`` moves monotonically through the
    # batch, so its end points bound every ratio in between.  Otherwise
    # (a watermark in reach, or an allocation that does not fit) it runs
    # the per-oid loop.

    def allocate_cluster(self, sizes: Mapping[int, int]) -> None:
        """Allocate every ``oid -> size`` of ``sizes``, in its order, as
        ``allocate`` would one by one."""
        start = self._used
        end = start + sum(sizes.values())
        if (
            end > self.capacity
            or not self._quiet(start, end)
            or not self._sizes.keys().isdisjoint(sizes)
            or (sizes and min(sizes.values()) < 0)
        ):
            for oid, size in sizes.items():
                self.allocate(oid, size)
            return
        self._sizes.update(sizes)
        self._used = end
        self._allocations += len(sizes)
        if end > self._peak:
            self._peak = end

    def free_cluster(self, oids: Collection[int]) -> int:
        """Free those of ``oids`` the heap holds, in order, as
        ``free_oid`` would one by one; returns the bytes freed.

        Oids it does not hold are skipped: the compress-local rung
        releases a victim's accounting before its detach runs.
        """
        sizes = self._sizes
        freed = sum(sizes[oid] for oid in oids if oid in sizes)
        if not self._quiet(self._used, self._used - freed):
            return sum(self.free_oid(oid) for oid in oids if oid in sizes)
        pop = sizes.pop
        for oid in oids:
            pop(oid, None)
        self._used -= freed
        return freed

    def resize(self, oid: int, new_size: int) -> None:
        """Adjust an existing allocation (object grew or shrank)."""
        if new_size < 0:
            raise ValueError("allocation size must be non-negative")
        old = self._sizes[oid]
        delta = new_size - old
        if delta > 0 and self._used + delta > self.capacity:
            for callback in self._on_exhausted:
                callback(self, delta)
            if self._used + delta > self.capacity:
                raise HeapExhaustedError(
                    f"resize needs {delta} more bytes, {self.free} free"
                )
        self._sizes[oid] = new_size
        self._used += delta
        self._peak = max(self._peak, self._used)
        self._check_watermarks()

    def would_fit(self, size: int) -> bool:
        return self._used + size <= self.capacity

    def bytes_over_low_watermark(self) -> int:
        """How many bytes must be freed to get back under the low mark."""
        target = int(self.low_watermark * self.capacity)
        return max(0, self._used - target)

    # -- internals ------------------------------------------------------------

    def _quiet(self, start: int, end: int) -> bool:
        """Whether moving ``used`` monotonically from ``start`` to ``end``
        crosses no watermark, so no check on the way would fire."""
        if self._above_high:
            return min(start, end) / self.capacity > self.low_watermark
        return max(start, end) / self.capacity < self.high_watermark

    def _check_watermarks(self) -> None:
        ratio = self.ratio
        if not self._above_high and ratio >= self.high_watermark:
            self._above_high = True
            for callback in self._on_high:
                callback(self, 0)
        elif self._above_high and ratio <= self.low_watermark:
            self._above_high = False
            for callback in self._on_low:
                callback(self, 0)
