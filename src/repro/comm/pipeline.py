"""Pipelined multi-channel transfer scheduling on the simulated clock.

Serial swap-out charges every link operation to the one global
:class:`~repro.clock.SimulatedClock`, so shipping one payload to k
replica stores costs the *sum* of k link charges, and encoding cluster
i+1 cannot begin (in simulated time) until cluster i's transfer
finished.  Real radios do not work that way: independent links carry
frames concurrently, and the CPU encodes while the radio transmits.

:class:`TransferScheduler` models N independent channels without
touching any link logic.  Running a link operation "on a channel" swaps
the underlying :class:`~repro.comm.transport.SimulatedLink`'s clock for
a private shadow clock seeded at the moment that channel (and that
physical link) becomes free; the operation executes unchanged — stats,
``on_transfer`` hooks and fault injection all still fire — but its time
lands on the shadow.  The global clock does not move, so the caller can
keep encoding/shipping at the same simulated instant.  :meth:`drain`
advances the global clock past every in-flight transfer — the
synchronization point before anything *reads* from the stores.

Two operations on the *same* physical link never overlap: per-link busy
times serialize them even across different channels, so the model never
pretends one radio can transmit two payloads at once.

Every ``channel`` context yields a :class:`ChannelSlot` describing the
window the operation occupied ([start_s, end_s] on the simulated
timeline, plus a failure flag).  Callers that do not care simply ignore
the yield; the async swap scheduler (:mod:`repro.core.sched`) reads it
to place op completions on its clock-ordered queue.

A transfer that *fails* mid-flight (the body raises out of the channel
context) still blocks its channel and physical link until the moment of
failure — the radio really was busy — but the window is accounted as
``failed_s``/``failed_transfers`` rather than useful ``serial_s``, and
the seconds it charged to the link are mirrored into
``LinkStats.seconds_failed`` so the pressure classifier's
link-saturation input can exclude them (see
:func:`repro.policy.pressure.links_busy_seconds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.clock import SimulatedClock
from repro.comm.transport import SimulatedLink


@dataclass
class PipelineStats:
    """What pipelining did, in simulated seconds."""

    #: link operations run on a channel (successful or failed)
    transfers: int = 0
    #: :meth:`TransferScheduler.drain` calls that had in-flight work
    barriers: int = 0
    #: total channel occupancy of *successful* operations — what a
    #: serial schedule would have charged to the global clock
    serial_s: float = 0.0
    #: what the drains actually advanced the global clock by
    pipelined_s: float = 0.0
    #: channel operations whose body raised (interrupted ships)
    failed_transfers: int = 0
    #: channel occupancy of those failed operations — busy radio time
    #: that bought nothing durable
    failed_s: float = 0.0
    #: bookings whose unelapsed tail was reclaimed mid-flight (a demand
    #: transfer preempted a speculative one on the same radio)
    cancelled_transfers: int = 0
    #: simulated seconds those cancellations gave back to their links
    cancelled_s: float = 0.0

    @property
    def saved_s(self) -> float:
        """Simulated seconds the overlap removed from the critical path."""
        return max(0.0, self.serial_s - self.pipelined_s)


@dataclass(slots=True)
class ChannelSlot:
    """The simulated-time window one channel operation occupied."""

    start_s: float = 0.0
    end_s: float = 0.0
    #: True when the operation raised out of the channel context.
    failed: bool = False
    #: which channel carried the window (None when the operation ran
    #: inline, outside the scheduler) — needed to cancel its remainder
    channel_index: Optional[int] = None

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)


class TransferScheduler:
    """Schedule link operations onto N concurrent channels.

    ``clock`` is the global simulated clock; ``channels`` bounds how
    many transfers may be in flight at once (a replica fan-out wider
    than the channel count queues on the earliest-free channel).
    """

    def __init__(self, clock: SimulatedClock, channels: int = 2) -> None:
        if channels < 1:
            raise ValueError("scheduler needs at least one channel")
        self.clock = clock
        self.channels = channels
        self.stats = PipelineStats()
        self._channel_free: List[float] = [clock.now()] * channels
        self._link_free: Dict[int, float] = {}

    @staticmethod
    def _underlying(link: Any) -> Optional[SimulatedLink]:
        """Unwrap fault-injection wrappers down to the clock-owning link."""
        seen = 0
        while link is not None and not isinstance(link, SimulatedLink):
            link = getattr(link, "_inner", None)
            seen += 1
            if seen > 8:  # defensive: cyclic wrapper chain
                return None
        return link if isinstance(link, SimulatedLink) else None

    def link_free_at(self, link: Any) -> float:
        """When ``link``'s physical radio is next idle (simulated seconds).

        Unknown/unschedulable links read as free immediately.
        """
        target = self._underlying(link)
        if target is None:
            return self.clock.now()
        return max(self.clock.now(), self._link_free.get(id(target), 0.0))

    def idle_channel_at(self, when: float) -> bool:
        """True when some channel is free at simulated time ``when``."""
        return any(free <= when for free in self._channel_free)

    def next_channel_free(self) -> float:
        """Earliest simulated time any channel is idle (= now when one
        already is) — the admission point for backpressure pacing."""
        return max(self.clock.now(), min(self._channel_free))

    def channel(self, link: Any, not_before: float = 0.0) -> "_Booking":
        """Run the enclosed link operations concurrently on a free channel.

        The operations execute immediately (results and failures are
        synchronous as ever); only their *time* is scheduled onto the
        channel instead of the global clock.  Links the scheduler cannot
        model (loopback, no link at all) simply run inline.  The context
        yields a :class:`ChannelSlot` carrying the operation's scheduled
        window; ``not_before`` delays the window start (sequencing
        failover attempts of one logical op across different links).
        """
        return _Booking(self, link, not_before)

    def cancel_remainder(self, link: Any, slot: ChannelSlot, at: float) -> float:
        """Abort the unelapsed tail of a booked window at time ``at``.

        A radio can stop transmitting: when a demand transfer needs a
        link still booked by a speculative one, the speculation's
        remaining window is given back.  The head of the window (radio
        time already spent before ``at``) stays burnt — bytes cannot be
        unsent — and is reclassified like an interrupted ship so
        saturation readings exclude it.  Returns the seconds refunded;
        0.0 when the transfer already finished or later traffic stacked
        behind it (the window can no longer be reclaimed).
        """
        target = self._underlying(link)
        if target is None or slot.channel_index is None:
            return 0.0
        cut = max(at, slot.start_s)
        refund = slot.end_s - cut
        if refund <= 0.0:
            return 0.0
        if self._link_free.get(id(target)) != slot.end_s:
            return 0.0  # a later booking stacked on the radio: too late
        if self._channel_free[slot.channel_index] != slot.end_s:
            return 0.0  # the channel was rebooked past this window
        self._link_free[id(target)] = cut
        self._channel_free[slot.channel_index] = cut
        window = slot.end_s - slot.start_s
        self.stats.cancelled_transfers += 1
        self.stats.cancelled_s += refund
        self.stats.serial_s -= window
        self.stats.failed_s += cut - slot.start_s
        target.stats.seconds_failed += window
        return refund

    def in_flight(self) -> bool:
        """True when some scheduled transfer ends after the global now."""
        now = self.clock.now()
        return any(free > now for free in self._channel_free)

    def drain(self) -> float:
        """Advance the global clock past every in-flight transfer.

        Returns the seconds waited.  Call before reading from any store
        (swap-in, scrub) or measuring elapsed swap cost — simulated
        reality must catch up with the scheduled writes first.
        """
        now = self.clock.now()
        horizon = max(self._channel_free + [now])
        waited = horizon - now
        if waited > 0:
            self.clock.advance(waited)
            self.stats.barriers += 1
            self.stats.pipelined_s += waited
        self._link_free.clear()
        return waited


class _Booking:
    """One :meth:`TransferScheduler.channel` window as a context manager.

    Entering picks the earliest-free channel (lowest index on ties),
    starts the window at the latest of now, ``not_before``, the
    channel's and the physical link's free times, and points the link at
    a shadow clock; exiting restores the link's clock and books the
    window, as failed waste when the body raised.  Unmodelable links
    (loopback, none, or one already on a shadow clock — a nested
    channel) run inline on the global clock.
    """

    __slots__ = (
        "_owner", "_link", "_not_before", "_slot", "_target", "_shadow",
        "_charged",
    )

    def __init__(
        self, owner: TransferScheduler, link: Any, not_before: float
    ) -> None:
        self._owner = owner
        self._link = link
        self._not_before = not_before

    def __enter__(self) -> ChannelSlot:
        owner = self._owner
        clock = owner.clock
        target = owner._underlying(self._link)
        if target is None or target.clock is not clock:
            self._target = None
            self._slot = slot = ChannelSlot(clock.now())
            return slot
        free = owner._channel_free
        index = free.index(min(free))
        start = max(
            clock.now(),
            self._not_before,
            free[index],
            owner._link_free.get(id(target), 0.0),
        )
        self._target = target
        self._slot = slot = ChannelSlot(start, 0.0, False, index)
        self._charged = target.stats.seconds_charged
        target.clock = self._shadow = SimulatedClock(start)
        return slot

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        owner = self._owner
        slot = self._slot
        failed = exc_type is not None
        target = self._target
        if target is None:
            slot.end_s = owner.clock.now()
            slot.failed = failed
            return
        target.clock = owner.clock
        end = self._shadow.now()
        slot.end_s = end
        slot.failed = failed
        stats = owner.stats
        stats.transfers += 1
        owner._channel_free[slot.channel_index] = end
        owner._link_free[id(target)] = end
        if failed:
            # the radio was busy until the failure, but the window is
            # waste, not useful serial work: account it apart and mirror
            # the charged seconds so saturation readings can exclude them
            stats.failed_transfers += 1
            stats.failed_s += end - slot.start_s
            target.stats.seconds_failed += (
                target.stats.seconds_charged - self._charged
            )
        else:
            stats.serial_s += end - slot.start_s
