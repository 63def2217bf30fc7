"""Protocol-conforming flaky wrappers around stores and links.

Both wrappers delegate to an inner implementation and consult a shared
:class:`~repro.faults.plan.FaultInjector` before (and sometimes after)
every operation.  They raise the same exception types the real devices
raise — :class:`~repro.errors.TransportError` for anything reachability-
shaped — so the swap pipeline cannot tell injected faults from real
ones.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import StoreFullError, TransportError
from repro.faults.plan import FaultInjector, mangle_payload


class FlakyLink:
    """A :class:`~repro.comm.transport.Link` that fails on schedule."""

    def __init__(self, inner: Any, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    def transfer(self, nbytes: int) -> float:
        injector = self._injector
        if injector.in_down_window():
            injector.stats.window_denials += 1
            raise TransportError("injected: link in down window")
        spike = injector.charge_latency()
        if injector.roll(injector.plan.link_failure_rate):
            injector.stats.link_faults += 1
            raise TransportError("injected: transient link failure")
        return spike + self._inner.transfer(nbytes)

    def transfer_batch(self, sizes: Any) -> float:
        # defined explicitly (not via __getattr__) so batched transfers
        # face the same injected faults as single ones
        injector = self._injector
        if injector.in_down_window():
            injector.stats.window_denials += 1
            raise TransportError("injected: link in down window")
        spike = injector.charge_latency()
        if injector.roll(injector.plan.link_failure_rate):
            injector.stats.link_faults += 1
            raise TransportError("injected: transient link failure")
        return spike + self._inner.transfer_batch(sizes)

    @property
    def is_up(self) -> bool:
        if self._injector.in_down_window():
            return False
        return self._inner.is_up

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class FlakyStore:
    """A :class:`~repro.core.interfaces.SwapStore` that fails on schedule.

    Fault kinds (all drawn from the shared injector's seeded stream):

    * down windows — every operation raises ``TransportError``;
    * transient operation failures (``store``/``fetch``/``drop``/
      ``has_room``), each with its own rate;
    * mid-payload interruption — a *truncated* document lands on the
      inner store, then the transfer errors (exercises the digest check
      and the write-ahead journal);
    * corrupted responses — ``fetch`` returns mangled text, ``contains``
      lies, digest probes answer with garbage;
    * at-rest corruption — ``store`` acknowledges success but the landed
      copy silently rots (only digest sampling or the next swap-in sees
      it);
    * latency spikes — extra seconds charged to the simulated clock;
    * death — :meth:`kill` makes every operation raise until
      :meth:`revive` (the churn schedule's crash model); killing with
      ``lose_data=True`` also wipes the inner store.
    """

    def __init__(self, inner: Any, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector
        self._dead = False
        self._partitioned = False
        #: ``(latency_factor, bandwidth_factor, capacity_factor)`` while
        #: browned out, ``None`` otherwise.
        self._brownout: Optional[tuple] = None

    # -- SwapStore protocol ------------------------------------------------

    @property
    def device_id(self) -> str:
        return self._inner.device_id

    def store(self, key: str, xml_text: str) -> None:
        injector = self._injector
        self._gate()
        self._squeeze_gate(len(xml_text.encode("utf-8")))
        injector.charge_latency()
        if injector.roll(injector.plan.interruption_rate):
            injector.stats.interruptions += 1
            # half the payload lands before the peer walks out of range
            self._inner.store(key, xml_text[: max(1, len(xml_text) // 2)])
            raise TransportError(
                f"injected: transfer to {self.device_id} interrupted mid-payload"
            )
        if injector.roll(injector.plan.store_failure_rate):
            injector.stats.store_faults += 1
            raise TransportError(f"injected: store to {self.device_id} failed")
        if injector.roll(injector.plan.at_rest_corruption_rate):
            # the store acknowledges, but the landed copy is already bad
            injector.stats.at_rest_corruptions += 1
            self._inner.store(key, mangle_payload(xml_text))
            return
        self._inner.store(key, xml_text)

    def fetch(self, key: str) -> str:
        injector = self._injector
        self._gate()
        injector.charge_latency()
        if injector.roll(injector.plan.fetch_failure_rate):
            injector.stats.fetch_faults += 1
            raise TransportError(f"injected: fetch from {self.device_id} failed")
        text = self._inner.fetch(key)
        if injector.roll(injector.plan.corruption_rate):
            return injector.corrupt(text)
        return text

    def drop(self, key: str) -> None:
        injector = self._injector
        self._gate()
        if injector.roll(injector.plan.drop_failure_rate):
            injector.stats.drop_faults += 1
            raise TransportError(f"injected: drop on {self.device_id} failed")
        self._inner.drop(key)

    def has_room(self, nbytes: int) -> bool:
        injector = self._injector
        self._gate()
        if injector.roll(injector.plan.probe_failure_rate):
            injector.stats.probe_faults += 1
            raise TransportError(f"injected: {self.device_id} probe failed")
        if self._brownout is not None and self._brownout[2] < 1.0:
            try:
                self._squeeze_gate(nbytes)
            except StoreFullError:
                return False
        return self._inner.has_room(nbytes)

    def _deliver_stream(self, key: str, frame_list: Any, compression: Any) -> None:
        # a streaming-capable inner store takes the batch as-is; a plain
        # store (InMemoryStore et al.) gets the reassembled document so
        # wrapping never widens the inner store's protocol
        stream = getattr(self._inner, "store_stream", None)
        if stream is not None:
            stream(key, frame_list, compression)
            return
        from repro.comm.transport import decompress_payload

        data = b"".join(frame_list)
        try:
            text = decompress_payload(data, compression)
        except TransportError:
            # rotted/truncated frames: land the damage as visibly-broken
            # text so digest sampling and swap-in verification catch it
            text = data.decode("utf-8", errors="replace")
        self._inner.store(key, text)

    def store_stream(
        self,
        key: str,
        frames: Any,
        compression: Any = None,
    ) -> None:
        # same fault surface as store(): down window, mid-payload
        # interruption (a truncated batch lands), transient failure
        injector = self._injector
        self._gate()
        injector.charge_latency()
        frame_list = [bytes(frame) for frame in frames]
        self._squeeze_gate(sum(len(frame) for frame in frame_list))
        if injector.roll(injector.plan.interruption_rate):
            injector.stats.interruptions += 1
            truncated = frame_list[: max(1, len(frame_list) // 2)]
            try:
                self._deliver_stream(key, truncated, compression)
            except Exception:
                pass  # the partial batch may itself be undecodable
            raise TransportError(
                f"injected: transfer to {self.device_id} interrupted mid-batch"
            )
        if injector.roll(injector.plan.store_failure_rate):
            injector.stats.store_faults += 1
            raise TransportError(f"injected: store to {self.device_id} failed")
        if injector.roll(injector.plan.at_rest_corruption_rate) and frame_list:
            injector.stats.at_rest_corruptions += 1
            frame_list = list(frame_list)
            frame_list[-1] = frame_list[-1][: max(0, len(frame_list[-1]) - 4)] + b"\x00rot"
        self._deliver_stream(key, frame_list, compression)

    def store_delta(
        self,
        key: str,
        base_epoch: int,
        frames: Any,
        *,
        base_key: str,
        compression: Any = None,
    ) -> None:
        # defined explicitly (not via __getattr__) so delta ships face
        # the same gates as full ones: down window, death, mid-batch
        # interruption, transient failure, at-rest rot
        if getattr(self._inner, "store_delta", None) is None:
            raise TransportError(
                f"{self.device_id}: store has no delta support"
            )
        injector = self._injector
        self._gate()
        injector.charge_latency()
        frame_list = [bytes(frame) for frame in frames]
        self._squeeze_gate(sum(len(frame) for frame in frame_list))
        if injector.roll(injector.plan.interruption_rate):
            injector.stats.interruptions += 1
            truncated = frame_list[: max(1, len(frame_list) // 2)]
            try:
                self._inner.store_delta(
                    key,
                    base_epoch,
                    truncated,
                    base_key=base_key,
                    compression=compression,
                )
            except Exception:
                pass  # the partial batch may itself be undecodable
            raise TransportError(
                f"injected: delta to {self.device_id} interrupted mid-batch"
            )
        if injector.roll(injector.plan.store_failure_rate):
            injector.stats.store_faults += 1
            raise TransportError(f"injected: store to {self.device_id} failed")
        if injector.roll(injector.plan.at_rest_corruption_rate) and frame_list:
            injector.stats.at_rest_corruptions += 1
            frame_list = list(frame_list)
            frame_list[-1] = frame_list[-1][: max(0, len(frame_list[-1]) - 4)] + b"\x00rot"
        self._inner.store_delta(
            key,
            base_epoch,
            frame_list,
            base_key=base_key,
            compression=compression,
        )

    def contains(self, key: str) -> bool:
        injector = self._injector
        self._gate()
        if injector.roll(injector.plan.probe_failure_rate):
            injector.stats.probe_faults += 1
            raise TransportError(f"injected: {self.device_id} probe failed")
        present = self._inner.contains(key)
        if injector.roll(injector.plan.corruption_rate):
            # a corrupted control response: the probe answer is a lie
            injector.stats.corruptions += 1
            return not present
        return present

    def digest(self, key: str) -> str:
        injector = self._injector
        self._gate()
        if injector.roll(injector.plan.probe_failure_rate):
            injector.stats.probe_faults += 1
            raise TransportError(f"injected: {self.device_id} probe failed")
        value = self._inner.digest(key)
        if injector.roll(injector.plan.corruption_rate):
            injector.stats.corruptions += 1
            return "corrupt:" + value[:8]
        return value

    # -- extras ------------------------------------------------------------

    def keys(self) -> List[str]:
        injector = self._injector
        self._gate()
        if injector.roll(injector.plan.probe_failure_rate):
            injector.stats.probe_faults += 1
            raise TransportError(
                f"injected: {self.device_id} inventory scan failed"
            )
        return self._inner.keys()

    # -- churn lifecycle ---------------------------------------------------

    @property
    def is_dead(self) -> bool:
        return self._dead

    def kill(self, lose_data: bool = False) -> None:
        """Crash the store: every operation raises until :meth:`revive`.

        ``lose_data=True`` models losing the device itself (flash wiped,
        owner gone for good) rather than a reboot: the inner store's
        inventory is cleared, so a later revive comes back *empty*.
        """
        self._dead = True
        if lose_data:
            dropper = getattr(self._inner, "drop", None)
            lister = getattr(self._inner, "keys", None)
            if dropper is not None and lister is not None:
                for key in list(lister()):
                    dropper(key)

    def revive(self) -> None:
        self._dead = False

    # -- partition ---------------------------------------------------------

    @property
    def is_partitioned(self) -> bool:
        return self._partitioned

    def partition(self) -> None:
        """Cut the store off the network: every operation raises until
        :meth:`heal`.

        Distinct from :meth:`kill` — the device is fine and its data
        intact; the *path* to it is gone (cell network split, gateway
        down).  Healing restores reachability with the inventory exactly
        as it was, so suspect replicas re-verify rather than re-ship.
        """
        self._partitioned = True

    def heal(self) -> None:
        self._partitioned = False

    # -- brownout ----------------------------------------------------------

    def set_brownout(
        self,
        latency_factor: float = 1.0,
        bandwidth_factor: float = 1.0,
        capacity_factor: float = 1.0,
    ) -> None:
        """Degrade the store without killing it.

        Distinct from :meth:`kill`/:meth:`revive` — a browned-out store
        still answers, it just crawls (``latency_factor`` /
        ``bandwidth_factor`` are pushed onto the inner simulated link)
        and may refuse new payloads early (``capacity_factor`` scales
        the capacity it admits writes against; 0.25 = only a quarter of
        the device is usable — flash nearly full, host throttling).
        Reads of existing keys are never refused by the squeeze.
        """
        if latency_factor <= 0 or bandwidth_factor <= 0:
            raise ValueError("brownout factors must be positive")
        if not 0 < capacity_factor <= 1:
            raise ValueError("capacity factor must be in (0, 1]")
        self._brownout = (latency_factor, bandwidth_factor, capacity_factor)
        link = self._simulated_link()
        if link is not None:
            link.brownout(latency_factor, bandwidth_factor)

    def clear_brownout(self) -> None:
        self._brownout = None
        link = self._simulated_link()
        if link is not None:
            link.clear_brownout()

    @property
    def in_brownout(self) -> bool:
        return self._brownout is not None

    def _simulated_link(self) -> Optional[Any]:
        """The innermost link with a ``brownout`` method, if any."""
        link = getattr(self._inner, "_link", None)
        while link is not None and not hasattr(link, "brownout"):
            link = getattr(link, "_inner", None)
        return link

    def _squeeze_gate(self, nbytes: int) -> None:
        """Refuse a write that would exceed the squeezed capacity."""
        if self._brownout is None:
            return
        capacity_factor = self._brownout[2]
        if capacity_factor >= 1.0:
            return
        capacity = getattr(self._inner, "capacity", None)
        used = getattr(self._inner, "used", None)
        if capacity is None or used is None:
            return
        if used + nbytes > capacity * capacity_factor:
            raise StoreFullError(
                f"{self.device_id}: brownout capacity squeeze "
                f"({nbytes} B over {int(capacity * capacity_factor)} B usable)"
            )

    def corrupt_at_rest(self, key: Optional[str] = None) -> Optional[str]:
        """Silently rot one landed payload on the inner store.

        Bypasses the fault gates on purpose — bitrot is not an I/O
        event.  Returns the mangled key (the lowest one when ``key`` is
        not given), or ``None`` if the store is empty.
        """
        candidates = sorted(self._inner.keys())
        if not candidates:
            return None
        target = key if key is not None else candidates[0]
        text = self._inner.fetch(target)
        self._inner.store(target, mangle_payload(text))
        self._injector.stats.at_rest_corruptions += 1
        return target

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _gate(self) -> None:
        if self._dead:
            self._injector.stats.dead_denials += 1
            raise TransportError(f"injected: {self.device_id} is dead")
        if self._partitioned:
            self._injector.stats.dead_denials += 1
            raise TransportError(
                f"injected: {self.device_id} unreachable (partitioned)"
            )
        if self._injector.in_down_window():
            self._injector.stats.window_denials += 1
            raise TransportError(
                f"injected: {self.device_id} unreachable (down window)"
            )
