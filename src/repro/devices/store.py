"""XML store devices — the dumb receivers of swapped clusters.

Receiving devices "need not have neither OBIWAN nor even a virtual
machine installed.  They need only be able to store and return a textual
representation of the serialized objects being swapped-out" (Section 3).
All variants implement the :class:`repro.core.interfaces.SwapStore`
protocol: ``store`` / ``fetch`` / ``drop`` / ``has_room``.

* :class:`XmlStoreDevice` — a capacity-limited nearby device, optionally
  behind a simulated wireless link (payloads charge transfer time) and
  exposable as a web-service endpoint;
* :class:`InMemoryStore` — the simplest possible conforming store;
* :class:`FileStore` — text files in a directory (the flash-card
  analogue of the .NET Micro discussion in the related work).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.comm.transport import (
    Link,
    SUPPORTED_COMPRESSIONS,
    compress_payload,
    decompress_payload,
)
from repro.comm.webservice import WebServiceEndpoint
from repro.errors import (
    CodecError,
    StoreFullError,
    TransportError,
    UnknownKeyError,
)
from repro.wire.canonical import digest_of_canonical, utf8_len
from repro.wire.delta import apply_cluster_delta
from repro.wire.scan import document_epoch

#: Cost of a key-probe / drop round trip: a control message, not a payload.
CONTROL_MESSAGE_BYTES = 64

#: Hard cap on delta-chain depth a store will resolve; the manager's
#: compaction thresholds keep real chains far shorter.
MAX_DELTA_CHAIN = 64


#: Digest returned by a digest probe when the stored payload cannot even
#: be decoded (at-rest corruption of the compressed frames).  Never a
#: valid hex digest, so it can only ever mismatch.
UNREADABLE_DIGEST = "unreadable"

class InMemoryStore:
    """Minimal conforming store: a dict of key -> XML text."""

    def __init__(self, device_id: str = "memory-store") -> None:
        self.device_id = device_id
        self._data: Dict[str, str] = {}
        #: key -> (delta text, base key); a key lives in exactly one of
        #: ``_data`` / ``_deltas``
        self._deltas: Dict[str, Tuple[str, str]] = {}

    def store(self, key: str, xml_text: str) -> None:
        self._deltas.pop(key, None)
        self._data[key] = xml_text

    def store_stream(
        self,
        key: str,
        frames: Iterable[bytes],
        compression: Optional[str] = None,
    ) -> None:
        """Receive a payload as a batch of frames (loopback, no link)."""
        data = b"".join(bytes(frame) for frame in frames)
        self.store(key, decompress_payload(data, compression))

    def store_delta(
        self,
        key: str,
        base_epoch: int,
        frames: Iterable[bytes],
        *,
        base_key: str,
        compression: Optional[str] = None,
    ) -> None:
        """Accept a delta document applying to the payload at ``base_key``.

        Raises :class:`~repro.errors.UnknownKeyError` when the base is
        not held, and :class:`~repro.errors.CodecError` when the held
        base sits at a different epoch than ``base_epoch`` (diverged
        replica — the sender must fall back to a full payload).
        """
        if key == base_key:
            raise TransportError(
                f"{self.device_id}: delta key {key!r} cannot be its own base"
            )
        data = b"".join(bytes(frame) for frame in frames)
        text = decompress_payload(data, compression)
        base_text = self._resolve_text(base_key)
        held_epoch = document_epoch(base_text)
        if held_epoch != base_epoch:
            raise CodecError(
                f"{self.device_id}: base {base_key!r} is at epoch "
                f"{held_epoch}, delta expects {base_epoch}"
            )
        self._data.pop(key, None)
        self._deltas[key] = (text, base_key)

    def _resolve_text(self, key: str, depth: int = 0) -> str:
        if key in self._data:
            return self._data[key]
        entry = self._deltas.get(key)
        if entry is None:
            raise UnknownKeyError(f"{self.device_id}: no key {key!r}") from None
        if depth >= MAX_DELTA_CHAIN:
            raise CodecError(f"{self.device_id}: delta chain too deep at {key!r}")
        delta_text, base_key = entry
        return apply_cluster_delta(
            self._resolve_text(base_key, depth + 1), delta_text
        )

    def fetch(self, key: str) -> str:
        return self._resolve_text(key)

    def drop(self, key: str) -> None:
        # a delta depending on the dropped key must survive it: collapse
        # direct dependents to full payloads first
        for child, (_text, base_key) in list(self._deltas.items()):
            if base_key == key and child != key:
                self._data[child] = self._resolve_text(child)
                self._deltas.pop(child, None)
        self._data.pop(key, None)
        self._deltas.pop(key, None)

    def contains(self, key: str) -> bool:
        return key in self._data or key in self._deltas

    def digest(self, key: str) -> str:
        """Digest probe: hash of the payload as held *right now*."""
        if not self.contains(key):
            raise UnknownKeyError(f"{self.device_id}: no key {key!r}") from None
        try:
            return digest_of_canonical(self._resolve_text(key))
        except Exception:
            return UNREADABLE_DIGEST

    def has_room(self, nbytes: int) -> bool:
        return True

    def keys(self) -> List[str]:
        return list(self._data) + list(self._deltas)

    def used_by_prefix(self, prefix: str) -> int:
        """Bytes held under keys starting with ``prefix``.

        Swap keys are namespaced per space (``"{space}/sc-{sid}/..."``),
        so this is one space's footprint on the store.  A pure metadata
        scan: no link traffic.
        """
        return sum(
            utf8_len(text)
            for key, text in self._data.items()
            if key.startswith(prefix)
        ) + sum(
            utf8_len(text)
            for key, (text, _base) in self._deltas.items()
            if key.startswith(prefix)
        )

    def __len__(self) -> int:
        return len(self._data) + len(self._deltas)


class XmlStoreDevice:
    """A nearby device with bounded storage behind an optional link.

    Entries are kept as the bytes that actually travelled (compressed
    when a codec was negotiated), so capacity accounting reflects the
    store's real footprint; :meth:`fetch` transparently decompresses.
    """

    #: Codecs this store can accept, best first (compression negotiation).
    supported_compressions: Tuple[str, ...] = SUPPORTED_COMPRESSIONS

    def __init__(
        self,
        device_id: str,
        capacity: int = 1 << 20,
        link: Optional[Link] = None,
        placement_group: Optional[str] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("store capacity must be positive")
        self.device_id = device_id
        self.capacity = capacity
        self._link = link
        #: Anti-affinity domain (rack/owner/desk); replica placement
        #: avoids putting two copies in one group.  ``None`` = the
        #: device is its own failure domain.
        self.placement_group = placement_group
        #: key -> (stored bytes, compression codec or None)
        self._data: Dict[str, Tuple[bytes, Optional[str]]] = {}
        #: key -> (delta bytes, compression, base key); a key lives in
        #: exactly one of ``_data`` / ``_deltas``.  Delta bytes count
        #: toward capacity like any other stored bytes.
        self._deltas: Dict[str, Tuple[bytes, Optional[str], str]] = {}
        self._used = 0

    # -- SwapStore protocol ----------------------------------------------------

    def store(self, key: str, xml_text: str) -> None:
        data = xml_text.encode("utf-8")
        self._carry(len(data))
        self._put(key, data, None)

    def store_stream(
        self,
        key: str,
        frames: Iterable[bytes],
        compression: Optional[str] = None,
    ) -> None:
        """Receive a payload as a batch of frames over one connection.

        ``frames`` already carry the negotiated ``compression``; the link
        (when batching-capable) charges one latency for the whole batch
        instead of one per frame.
        """
        self._put(key, self._receive_frames(frames, compression), compression)

    def store_delta(
        self,
        key: str,
        base_epoch: int,
        frames: Iterable[bytes],
        *,
        base_key: str,
        compression: Optional[str] = None,
    ) -> None:
        """Receive a delta applying to the payload held at ``base_key``.

        The store keeps the delta as-is (capacity-accounted like any
        payload); fetch/digest of the chain tip resolve base + deltas to
        the full document server-side.  Raises
        :class:`~repro.errors.UnknownKeyError` when the base is missing
        and :class:`~repro.errors.CodecError` when the held base sits at
        a different epoch than ``base_epoch`` — the diverged-replica
        signal that tells the sender to fall back to a full payload.
        """
        if key == base_key:
            raise TransportError(
                f"{self.device_id}: delta key {key!r} cannot be its own base"
            )
        data = self._receive_frames(frames, compression)
        base_text = self._resolve_text(base_key)
        held_epoch = document_epoch(base_text)
        if held_epoch != base_epoch:
            raise CodecError(
                f"{self.device_id}: base {base_key!r} is at epoch "
                f"{held_epoch}, delta expects {base_epoch}"
            )
        previous = self._data.get(key) or self._deltas.get(key)
        delta = len(data) - (len(previous[0]) if previous else 0)
        if self._used + delta > self.capacity:
            raise StoreFullError(
                f"{self.device_id}: {len(data)} delta bytes exceed free "
                f"space ({self.capacity - self._used} of {self.capacity})"
            )
        entry = self._data.pop(key, None)
        if entry is not None:
            self._used -= len(entry[0])
            delta += len(entry[0])
        self._deltas[key] = (data, compression, base_key)
        self._used += delta

    def _receive_frames(
        self, frames: Iterable[bytes], compression: Optional[str]
    ) -> bytes:
        """Carry one batch of frames over the link and join them.

        The link is charged before ``compression`` is checked against
        the advertisement: a refused batch still crossed the air.
        """
        frame_list = [bytes(frame) for frame in frames]
        if self._link is not None:
            batch = getattr(self._link, "transfer_batch", None)
            if batch is not None:
                batch([len(frame) for frame in frame_list])
            else:
                for frame in frame_list:
                    self._link.transfer(len(frame))
        if compression is not None and compression not in self.supported_compressions:
            raise TransportError(
                f"{self.device_id}: unsupported compression {compression!r} "
                f"(advertises {sorted(self.supported_compressions)})"
            )
        return b"".join(frame_list)

    def _resolve_text(self, key: str, depth: int = 0) -> str:
        """Full document under ``key``, applying any delta chain (no link)."""
        entry = self._data.get(key)
        if entry is not None:
            return decompress_payload(entry[0], entry[1])
        delta_entry = self._deltas.get(key)
        if delta_entry is None:
            raise UnknownKeyError(f"{self.device_id}: no key {key!r}") from None
        if depth >= MAX_DELTA_CHAIN:
            raise CodecError(f"{self.device_id}: delta chain too deep at {key!r}")
        data, compression, base_key = delta_entry
        delta_text = decompress_payload(data, compression)
        base_text = self._resolve_text(base_key, depth + 1)
        return apply_cluster_delta(base_text, delta_text)

    def fetch(self, key: str) -> str:
        entry = self._data.get(key)
        if entry is not None:
            self._carry(len(entry[0]))
            return self._resolve_text(key)
        # chain tip: the applied document is what travels back
        text = self._resolve_text(key)
        self._carry(utf8_len(text))
        return text

    def drop(self, key: str) -> None:
        self._carry(CONTROL_MESSAGE_BYTES)
        self._drop_direct(key)

    def contains(self, key: str) -> bool:
        """Key probe: a cheap control round trip, no payload on the link.

        This is what makes a metadata-only swap-out of a *clean* cluster
        possible — the manager verifies the store still holds the payload
        without shipping it again.
        """
        self._carry(CONTROL_MESSAGE_BYTES)
        return key in self._data or key in self._deltas

    def digest(self, key: str) -> str:
        """Digest probe: hash what is *actually at rest* under ``key``.

        The scrubber's cheap integrity check — one control round trip
        instead of a payload fetch.  The digest is computed over the
        stored bytes at probe time — for a delta-chain tip, over the
        chain as it applies right now — so silent at-rest corruption of
        any link in the chain shows up as a mismatch (or
        :data:`UNREADABLE_DIGEST` when it no longer even resolves).
        """
        if key not in self._data and key not in self._deltas:
            raise UnknownKeyError(f"{self.device_id}: no key {key!r}") from None
        self._carry(CONTROL_MESSAGE_BYTES)
        try:
            return digest_of_canonical(self._resolve_text(key))
        except Exception:
            return UNREADABLE_DIGEST

    def has_room(self, nbytes: int) -> bool:
        if self._link is not None and not self._link.is_up:
            raise TransportError(f"{self.device_id}: link down")
        return self._used + nbytes <= self.capacity

    def _put(self, key: str, data: bytes, compression: Optional[str]) -> None:
        previous = self._data.get(key) or self._deltas.get(key)
        delta = len(data) - (len(previous[0]) if previous else 0)
        if self._used + delta > self.capacity:
            raise StoreFullError(
                f"{self.device_id}: {len(data)} bytes exceed free space "
                f"({self.capacity - self._used} of {self.capacity})"
            )
        # a full payload arriving under a key held as a delta replaces it
        self._deltas.pop(key, None)
        self._data[key] = (data, compression)
        self._used += delta

    # -- extras ----------------------------------------------------------------------

    @property
    def link(self) -> Optional[Link]:
        """The simulated link in front of this store (None = direct).

        Writable so fault schedules can interpose a
        :class:`~repro.faults.flaky.FlakyLink` on a live device.
        """
        return self._link

    @link.setter
    def link(self, link: Optional[Link]) -> None:
        self._link = link

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self.capacity - self._used

    def keys(self) -> List[str]:
        return list(self._data) + list(self._deltas)

    def used_by_prefix(self, prefix: str) -> int:
        """Bytes at rest under keys starting with ``prefix``.

        Swap keys are namespaced ``"{space}/sc-{sid}/..."``, so this
        reads one space's footprint as *actually held*, deltas and
        negotiated compression included, in the same units as ``used``
        / ``capacity``.  A local metadata scan: no link charge.
        """
        return sum(
            len(data)
            for key, (data, _compression) in self._data.items()
            if key.startswith(prefix)
        ) + sum(
            len(data)
            for key, (data, _compression, _base) in self._deltas.items()
            if key.startswith(prefix)
        )

    def as_endpoint(self) -> WebServiceEndpoint:
        """Expose the store contract as web-service operations."""
        endpoint = WebServiceEndpoint(self.device_id)
        endpoint.register("store", lambda key, text: self._store_direct(key, text))
        endpoint.register("fetch", lambda key: self._fetch_direct(key))
        endpoint.register("drop", lambda key: self._drop_direct(key))
        endpoint.register("keys", lambda: self.keys())
        endpoint.register(
            "has_room", lambda nbytes: self._used + nbytes <= self.capacity
        )
        endpoint.register(
            "contains", lambda key: key in self._data or key in self._deltas
        )
        endpoint.register("digest", lambda key: self._digest_direct(key))
        return endpoint

    # endpoint variants skip the link (the web-service client charges it)
    def _store_direct(self, key: str, text: str) -> None:
        self._put(key, text.encode("utf-8"), None)

    def _fetch_direct(self, key: str) -> str:
        return self._resolve_text(key)

    def _drop_direct(self, key: str) -> None:
        # deltas depending on the dropped key must survive it: collapse
        # direct dependents to full payloads first (allowed to overshoot
        # capacity transiently — a drop must never fail for lack of room)
        for child, (_data, _compression, base_key) in list(self._deltas.items()):
            if base_key == key and child != key:
                self._materialize(child)
        entry = self._data.pop(key, None)
        if entry is not None:
            self._used -= len(entry[0])
        delta_entry = self._deltas.pop(key, None)
        if delta_entry is not None:
            self._used -= len(delta_entry[0])

    def _materialize(self, key: str) -> None:
        """Collapse a delta entry to the full payload it resolves to."""
        text = self._resolve_text(key)
        data, compression, _base_key = self._deltas.pop(key)
        self._used -= len(data)
        full = compress_payload(text, compression)
        self._data[key] = (full, compression)
        self._used += len(full)

    def _digest_direct(self, key: str) -> str:
        if key not in self._data and key not in self._deltas:
            raise UnknownKeyError(f"{self.device_id}: no key {key!r}") from None
        try:
            return digest_of_canonical(self._resolve_text(key))
        except Exception:
            return UNREADABLE_DIGEST

    def _carry(self, nbytes: int) -> None:
        if self._link is not None:
            self._link.transfer(nbytes)

    def __len__(self) -> int:
        return len(self._data) + len(self._deltas)


def _safe_filename(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", key) + ".xml"


class FileStore:
    """Swapped clusters as text files under a directory.

    The local-persistent-memory analogue (cf. the extended weak
    references of the .NET Micro Framework in the paper's related work):
    swapping to a flash card instead of a nearby device.
    """

    def __init__(self, directory: str | Path, device_id: str = "flash-card") -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.device_id = device_id
        self._paths: Dict[str, Path] = {}

    def store(self, key: str, xml_text: str) -> None:
        path = self._directory / _safe_filename(key)
        path.write_text(xml_text, encoding="utf-8")
        self._paths[key] = path

    def store_stream(
        self,
        key: str,
        frames: Iterable[bytes],
        compression: Optional[str] = None,
    ) -> None:
        """Receive a framed payload and write it as one text file."""
        data = b"".join(bytes(frame) for frame in frames)
        self.store(key, decompress_payload(data, compression))

    def fetch(self, key: str) -> str:
        path = self._paths.get(key, self._directory / _safe_filename(key))
        if not path.exists():
            raise UnknownKeyError(f"{self.device_id}: no key {key!r}")
        return path.read_text(encoding="utf-8")

    def drop(self, key: str) -> None:
        path = self._paths.pop(key, self._directory / _safe_filename(key))
        if path.exists():
            path.unlink()

    def contains(self, key: str) -> bool:
        path = self._paths.get(key, self._directory / _safe_filename(key))
        return path.exists()

    def digest(self, key: str) -> str:
        """Digest probe over the file as it exists on the card now."""
        try:
            return digest_of_canonical(self.fetch(key))
        except UnknownKeyError:
            raise
        except Exception:
            return UNREADABLE_DIGEST

    def has_room(self, nbytes: int) -> bool:
        return True

    def keys(self) -> List[str]:
        return sorted(self._paths)

    def used_by_prefix(self, prefix: str) -> int:
        """Bytes on the card under keys starting with ``prefix``."""
        return sum(
            path.stat().st_size
            for key, path in self._paths.items()
            if key.startswith(prefix) and path.exists()
        )
