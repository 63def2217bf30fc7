"""Simulated wireless links with an explicit time-cost model.

The paper's prototype ships swapped clusters over "Bluetooth connectivity
at 700Kbps" (Section 4).  A :class:`SimulatedLink` charges transfer time
(latency + payload/bandwidth) to a simulated clock, so swap-cycle
experiments are deterministic and fast regardless of payload size.
Links can be taken down to model a storage device leaving the room.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.clock import Clock, SimulatedClock
from repro.errors import TransportError

#: The paper's Bluetooth link speed (bits per second).
BLUETOOTH_BPS = 700_000

#: A 802.11b-class link for the desktop-PC receiver comparison.
WIFI_BPS = 11_000_000

#: Per-frame framing cost (length prefix + sequence number) when a
#: payload is shipped as a batch of chunks over one connection.
FRAME_OVERHEAD_BYTES = 8

#: Compression codecs this implementation can negotiate, best first.
SUPPORTED_COMPRESSIONS: Tuple[str, ...] = ("zlib",)


def chunk_text(text: str, frame_bytes: int) -> List[bytes]:
    """Split UTF-8 encoded ``text`` into frames of at most ``frame_bytes``."""
    if frame_bytes <= 0:
        raise ValueError("frame size must be positive")
    data = text.encode("utf-8")
    return [data[i : i + frame_bytes] for i in range(0, len(data), frame_bytes)]


def negotiate_compression(
    ours: Sequence[str], theirs: Sequence[str] | None
) -> Optional[str]:
    """Pick the first codec both ends support (``None`` = ship plain).

    ``theirs`` is what the store advertises (``supported_compressions``);
    stores predating the negotiation advertise nothing and get plain text,
    so the protocol stays backward compatible.
    """
    if not theirs:
        return None
    theirs_set = set(theirs)
    for name in ours:
        if name in theirs_set:
            return name
    return None


def compress_body(data: bytes, compression: Optional[str]) -> bytes:
    """Encode raw payload bytes for the wire under ``compression``."""
    if compression is None:
        return data
    if compression == "zlib":
        return zlib.compress(data, level=6)
    raise TransportError(
        f"unknown compression codec {compression!r} "
        f"(this transport supports {sorted(SUPPORTED_COMPRESSIONS)})"
    )


def decode_body(data: bytes, compression: Optional[str]) -> bytes:
    """Invert :func:`compress_body`, returning raw payload bytes."""
    if compression is None:
        return data
    if compression == "zlib":
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise TransportError(f"corrupt zlib payload: {exc}") from exc
    raise TransportError(
        f"unknown compression codec {compression!r} "
        f"(this transport supports {sorted(SUPPORTED_COMPRESSIONS)})"
    )


def compress_payload(text: str, compression: Optional[str]) -> bytes:
    """Encode ``text`` for the wire under the negotiated codec."""
    return compress_body(text.encode("utf-8"), compression)


def decompress_payload(data: bytes, compression: Optional[str]) -> str:
    """Invert :func:`compress_payload`."""
    return decode_body(data, compression).decode("utf-8")


class Link(Protocol):
    """Anything that can carry bytes and report/charge the cost."""

    def transfer(self, nbytes: int) -> float:
        """Carry ``nbytes``; charge and return the elapsed seconds."""
        ...

    @property
    def is_up(self) -> bool: ...


@dataclass
class LinkStats:
    transfers: int = 0
    frames: int = 0
    bytes_carried: int = 0
    seconds_charged: float = 0.0
    #: Seconds charged inside channel windows whose operation ultimately
    #: failed (a ship interrupted mid-payload).  The radio was busy, but
    #: the time bought nothing durable — pressure's link-saturation input
    #: (:func:`repro.policy.pressure.links_busy_seconds`) excludes it so
    #: retried ships do not double-count into permanent saturation.
    seconds_failed: float = 0.0


class LoopbackLink:
    """Free, always-up link (same-process tests).

    Keeps the same :class:`LinkStats` / ``on_transfer`` surface as
    :class:`SimulatedLink` so per-link observability works in loopback
    tests too.  The historical bare ``bytes_carried`` counter survives
    as a property alias of ``stats.bytes_carried``.
    """

    def __init__(self) -> None:
        self.stats = LinkStats()
        #: Observability hook: called as ``(link, nbytes, elapsed_s)``
        #: after every transfer (``repro.obs`` installs it).
        self.on_transfer: Optional[
            Callable[["LoopbackLink", int, float], None]
        ] = None

    @property
    def bytes_carried(self) -> int:
        """Deprecated alias of ``stats.bytes_carried``."""
        return self.stats.bytes_carried

    def transfer(self, nbytes: int) -> float:
        self.stats.transfers += 1
        self.stats.frames += 1
        self.stats.bytes_carried += nbytes
        if self.on_transfer is not None:
            self.on_transfer(self, nbytes, 0.0)
        return 0.0

    def transfer_batch(self, sizes: Iterable[int]) -> float:
        frame_sizes = list(sizes)
        if not frame_sizes:
            return 0.0
        carried = sum(frame_sizes)
        self.stats.transfers += 1
        self.stats.frames += len(frame_sizes)
        self.stats.bytes_carried += carried
        if self.on_transfer is not None:
            self.on_transfer(self, carried, 0.0)
        return 0.0

    @property
    def is_up(self) -> bool:
        return True


class SimulatedLink:
    """A point-to-point wireless link with bandwidth + latency cost."""

    def __init__(
        self,
        bandwidth_bps: float,
        latency_s: float = 0.05,
        clock: Optional[Clock] = None,
        name: str = "link",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.clock: Clock = clock if clock is not None else SimulatedClock()
        self.name = name
        self._up = True
        self._down_until: Optional[float] = None
        # brownout: the link stays *up* but every transfer costs more —
        # distinct from fail/fail_for, which make it unreachable
        self._latency_factor = 1.0
        self._bandwidth_factor = 1.0
        self.stats = LinkStats()
        #: Observability hook: called as ``(link, nbytes, elapsed_s)``
        #: after every successful transfer (``repro.obs`` installs it).
        self.on_transfer: Optional[
            Callable[["SimulatedLink", int, float], None]
        ] = None

    def brownout(
        self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0
    ) -> None:
        """Degrade the link without taking it down.

        ``latency_factor`` multiplies the per-connection latency;
        ``bandwidth_factor`` scales the usable bandwidth (0.5 = half
        speed).  Models congestion, interference, or a saturated access
        point: requests still succeed, they just crawl.
        """
        if latency_factor <= 0 or bandwidth_factor <= 0:
            raise ValueError("brownout factors must be positive")
        self._latency_factor = float(latency_factor)
        self._bandwidth_factor = float(bandwidth_factor)

    def clear_brownout(self) -> None:
        self._latency_factor = 1.0
        self._bandwidth_factor = 1.0

    @property
    def in_brownout(self) -> bool:
        return self._latency_factor != 1.0 or self._bandwidth_factor != 1.0

    def transfer_time(self, nbytes: int) -> float:
        """Cost model only — no state change."""
        return self.latency_s * self._latency_factor + (nbytes * 8) / (
            self.bandwidth_bps * self._bandwidth_factor
        )

    def transfer(self, nbytes: int) -> float:
        if not self.is_up:
            raise TransportError(f"link {self.name!r} is down")
        elapsed = self.transfer_time(nbytes)
        self.clock.advance(elapsed)
        self.stats.transfers += 1
        self.stats.frames += 1
        self.stats.bytes_carried += nbytes
        self.stats.seconds_charged += elapsed
        if self.on_transfer is not None:
            self.on_transfer(self, nbytes, elapsed)
        return elapsed

    def batch_transfer_time(self, sizes: Sequence[int]) -> float:
        """Cost of shipping ``sizes`` as frames over one connection.

        Latency is paid **once** for the whole batch (the radio round
        trip that dominates per-message cost on Bluetooth-class links);
        each frame adds :data:`FRAME_OVERHEAD_BYTES` of framing on top
        of its payload.  An empty batch is free: no connection is opened,
        so no latency is paid.
        """
        if not sizes:
            return 0.0
        total = sum(sizes) + FRAME_OVERHEAD_BYTES * len(sizes)
        return self.latency_s * self._latency_factor + (total * 8) / (
            self.bandwidth_bps * self._bandwidth_factor
        )

    def transfer_batch(self, sizes: Iterable[int]) -> float:
        """Carry a batch of frames; charge and return the elapsed seconds.

        Compared to one :meth:`transfer` per frame this saves
        ``(n - 1) * latency`` — the point of batching a streamed payload
        instead of opening a connection per chunk.
        """
        if not self.is_up:
            raise TransportError(f"link {self.name!r} is down")
        frame_sizes = list(sizes)
        if not frame_sizes:
            # nothing to ship: no connection, no latency, no stats
            return 0.0
        elapsed = self.batch_transfer_time(frame_sizes)
        self.clock.advance(elapsed)
        carried = sum(frame_sizes) + FRAME_OVERHEAD_BYTES * len(frame_sizes)
        self.stats.transfers += 1
        self.stats.frames += len(frame_sizes)
        self.stats.bytes_carried += carried
        self.stats.seconds_charged += elapsed
        if self.on_transfer is not None:
            self.on_transfer(self, carried, elapsed)
        return elapsed

    @property
    def is_up(self) -> bool:
        if (
            not self._up
            and self._down_until is not None
            and self.clock.now() >= self._down_until
        ):
            # the scheduled outage elapsed: the peer is back in range
            self._up = True
            self._down_until = None
        return self._up

    def fail(self) -> None:
        """The peer left range / the radio dropped."""
        self._up = False
        self._down_until = None

    def fail_for(self, seconds: float) -> None:
        """Take the link down until the clock reaches now + ``seconds``.

        The outage heals itself as simulated time passes — the device
        "comes back into the room" without anyone calling
        :meth:`restore`.  Used by fault schedules and chaos tests.
        """
        if seconds < 0:
            raise ValueError("outage duration must be non-negative")
        self._up = False
        self._down_until = self.clock.now() + seconds

    def restore(self) -> None:
        self._up = True
        self._down_until = None


def bluetooth_link(
    clock: Optional[Clock] = None, latency_s: float = 0.05, name: str = "bluetooth"
) -> SimulatedLink:
    """The paper's 700 Kbps Bluetooth-class link."""
    return SimulatedLink(BLUETOOTH_BPS, latency_s=latency_s, clock=clock, name=name)


def wifi_link(
    clock: Optional[Clock] = None, latency_s: float = 0.01, name: str = "wifi"
) -> SimulatedLink:
    """An 11 Mbps 802.11b-class link (desktop receivers)."""
    return SimulatedLink(WIFI_BPS, latency_s=latency_s, clock=clock, name=name)
