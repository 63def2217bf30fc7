"""Peer stores: one OBIWAN device lending heap to another.

The paper's receivers include "other PDAs" — devices that are themselves
memory-constrained and may be running OBIWAN.  A :class:`PeerStore`
exposes part of a host space's *own heap headroom* as swap storage for a
neighbour: stored XML is charged to the host's heap (so the host's
memory pressure sees it, and the host's policies may refuse admission),
and dropped text credits it back.

Contrast with :class:`~repro.devices.store.XmlStoreDevice`, whose
capacity is independent of any heap: a peer's generosity shrinks as its
own working set grows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.comm.transport import Link
from repro.errors import StoreFullError, TransportError, UnknownKeyError
from repro.ids import IdAllocator
from repro.wire.canonical import utf8_len


class PeerStore:
    """Swap storage carved out of another space's heap headroom."""

    def __init__(
        self,
        host_space: Any,
        *,
        reserve_fraction: float = 0.25,
        link: Optional[Link] = None,
        device_id: Optional[str] = None,
    ) -> None:
        """``reserve_fraction`` caps how much of the host heap guest data
        may ever occupy; admission additionally requires the host heap to
        actually have the room at store time."""
        if not 0.0 < reserve_fraction <= 1.0:
            raise ValueError("reserve_fraction must be in (0, 1]")
        self._host = host_space
        self._link = link
        self._device_id = (
            device_id if device_id is not None else f"peer:{host_space.name}"
        )
        self._limit = int(host_space.heap.capacity * reserve_fraction)
        self._texts: Dict[str, str] = {}
        self._heap_oids: Dict[str, int] = {}
        self._guest_bytes = 0
        self._ids = IdAllocator(start=1)

    # -- SwapStore protocol ----------------------------------------------------

    @property
    def device_id(self) -> str:
        return self._device_id

    def store(self, key: str, xml_text: str) -> None:
        nbytes = utf8_len(xml_text)
        self._carry(nbytes)
        previous = self._texts.get(key)
        delta = nbytes - (utf8_len(previous) if previous else 0)
        if self._guest_bytes + delta > self._limit:
            raise StoreFullError(
                f"{self._device_id}: guest data capped at {self._limit} bytes"
            )
        if delta > 0 and not self._host.heap.would_fit(delta):
            raise StoreFullError(
                f"{self._device_id}: host heap has no room "
                f"({self._host.heap.free} free)"
            )
        if previous is not None:
            self._host.heap.free_oid(self._heap_oids.pop(key))
            self._guest_bytes -= utf8_len(previous)
        heap_oid = -2_000_000 - self._ids.next()
        self._host.heap.allocate(heap_oid, nbytes)
        self._heap_oids[key] = heap_oid
        self._texts[key] = xml_text
        self._guest_bytes += nbytes

    def fetch(self, key: str) -> str:
        try:
            text = self._texts[key]
        except KeyError:
            raise UnknownKeyError(f"{self._device_id}: no key {key!r}") from None
        self._carry(utf8_len(text))
        return text

    def drop(self, key: str) -> None:
        self._carry(64)
        text = self._texts.pop(key, None)
        if text is None:
            return
        self._host.heap.free_oid(self._heap_oids.pop(key))
        self._guest_bytes -= utf8_len(text)

    def has_room(self, nbytes: int) -> bool:
        if self._link is not None and not self._link.is_up:
            raise TransportError(f"{self._device_id}: link down")
        return (
            self._guest_bytes + nbytes <= self._limit
            and self._host.heap.would_fit(nbytes)
        )

    # -- extras -----------------------------------------------------------------

    @property
    def guest_bytes(self) -> int:
        return self._guest_bytes

    @property
    def limit(self) -> int:
        return self._limit

    def keys(self) -> List[str]:
        return list(self._texts)

    def _carry(self, nbytes: int) -> None:
        if self._link is not None:
            self._link.transfer(nbytes)

    def __len__(self) -> int:
        return len(self._texts)
