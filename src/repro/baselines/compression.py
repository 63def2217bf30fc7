"""Heap-compression baseline (Chen et al. OOPSLA'03; Chihaia & Gross WMPI'04).

The related work frees memory by *compressing* victim data in place
instead of shipping it away: "constant on-the-fly data compression
performed on the heap saves memory but imposes additional CPU load and
energy cost, since compression is a computational-intensive process"
(Section 6); the software-only variant reserves a compressed memory pool
that "actually reduces the memory available to applications".

Implemented as a :class:`~repro.core.interfaces.SwapStore` whose storage
*is the device's own heap*: pass it to ``manager.swap_out(sid,
store=pool)`` and the cluster's XML is zlib-compressed into the pool,
charging the compressed bytes back to the same heap.  Net memory freed is
(cluster footprint − compressed size); the price is CPU seconds, which
the store meters as the energy proxy for the comparison bench.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import StoreFullError, UnknownKeyError
from repro.ids import IdAllocator


@dataclass
class CompressionStats:
    compressions: int = 0
    decompressions: int = 0
    bytes_in: int = 0
    bytes_compressed: int = 0
    cpu_seconds: float = 0.0

    @property
    def compression_ratio(self) -> float:
        if self.bytes_in == 0:
            return 1.0
        return self.bytes_compressed / self.bytes_in


class CompressedPoolStore:
    """An in-heap compressed memory pool with the SwapStore contract."""

    def __init__(
        self,
        space,
        level: int = 6,
        pool_fraction: float = 0.5,
    ) -> None:
        """``pool_fraction`` caps the pool at a share of the heap —
        "devoting too much memory to the compressed-memory pool hurts
        performance as much as not reserving enough" (Section 6)."""
        if not 0.0 < pool_fraction <= 1.0:
            raise ValueError("pool_fraction must be in (0, 1]")
        self._space = space
        self._level = level
        self._pool_limit = int(space.heap.capacity * pool_fraction)
        self._entries: Dict[str, bytes] = {}
        self._pool_oids: Dict[str, int] = {}
        self._pool_ids = IdAllocator(start=1)
        self._pool_used = 0
        self.stats = CompressionStats()

    @property
    def device_id(self) -> str:
        return "compressed-pool"

    @property
    def pool_used(self) -> int:
        return self._pool_used

    def store(self, key: str, xml_text: str) -> None:
        raw = xml_text.encode("utf-8")
        started = time.perf_counter()
        compressed = zlib.compress(raw, self._level)
        self.stats.cpu_seconds += time.perf_counter() - started
        self.stats.compressions += 1
        self.stats.bytes_in += len(raw)
        self.stats.bytes_compressed += len(compressed)
        if self._pool_used + len(compressed) > self._pool_limit:
            raise StoreFullError(
                f"compressed pool full: {len(compressed)} bytes over the "
                f"{self._pool_limit}-byte reservation"
            )
        # the pool lives in the SAME heap: compressing trades application
        # memory for pool memory
        pool_oid = -1_000_000 - self._pool_ids.next()
        self._space.heap.allocate(pool_oid, len(compressed))
        self._entries[key] = compressed
        self._pool_oids[key] = pool_oid
        self._pool_used += len(compressed)

    def fetch(self, key: str) -> str:
        compressed = self._entries.get(key)
        if compressed is None:
            raise UnknownKeyError(f"compressed pool: no key {key!r}")
        started = time.perf_counter()
        raw = zlib.decompress(compressed)
        self.stats.cpu_seconds += time.perf_counter() - started
        self.stats.decompressions += 1
        return raw.decode("utf-8")

    def drop(self, key: str) -> None:
        compressed = self._entries.pop(key, None)
        if compressed is None:
            return
        pool_oid = self._pool_oids.pop(key)
        self._space.heap.free_oid(pool_oid)
        self._pool_used -= len(compressed)

    def has_room(self, nbytes: int) -> bool:
        # admission uses a conservative 4:1 estimate; real admission is
        # checked against the actual compressed size in store()
        estimated = max(64, nbytes // 4)
        return (
            self._pool_used + estimated <= self._pool_limit
            and self._space.heap.would_fit(estimated)
        )

    def keys(self):
        return list(self._entries)
