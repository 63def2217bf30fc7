"""The degrade ladder: controlled escalation under pressure.

The prior subsystems each answer one failure mode — retries for flaky
links, replication for departing stores, deltas for expensive ships,
the compressed pool for an empty neighborhood.  What was missing is the
*order* in which they give way when heap pressure and a sick
neighborhood coincide.  This module adds it: a
:class:`DegradeLadder` attached to the
:class:`~repro.core.manager.SwappingManager` reads an explicit
:class:`~repro.policy.pressure.PressureSignal` before every swap-out
and routes the operation down one of four rungs —

==================  ========================================================
rung                behavior
==================  ========================================================
``NORMAL``          the full pipeline: clean no-ops, delta ships, remote
                    full ships — exactly as without the ladder
``COMPRESS_LOCAL``  swap-outs compress into the local
                    :class:`~repro.baselines.compression.CompressedPoolStore`
                    first (CPU-only, zero link traffic); remote shipping is
                    the fallback, and delta encoding is skipped (the chain
                    would point at stores we are trying not to talk to)
``DROP_CLEAN``      verified-clean clusters are evicted on the strength of
                    the placement ledger alone — no ``contains`` probes, no
                    re-ship, zero bytes and zero latency on the link
``EMERGENCY``       when the victim loop still cannot make room, resident
                    clusters are OOM-killed lowest-priority-first
                    (foreground clusters are never killed)
==================  ========================================================

Escalation is immediate — the signal's level *is* the target rung.
De-escalation is hysteretic and fully reversible: one rung down per
:data:`HOLD_S` of simulated time spent below the current rung, until the
ladder is back at ``NORMAL`` and the pipeline behaves exactly as if it
had never been installed (pool-hibernated clusters are re-promoted to
real stores by the existing scrubber).

The ladder also owns the responsiveness SLO bookkeeping: fault stalls
(simulated seconds an access waited for a swap-in) and allocation
stalls, with p95s exported through ``repro.obs`` as
``slo.fault_stall.*``.
"""

from __future__ import annotations

import enum
from typing import Any, List, Optional, Tuple

from repro.events import DegradeRungChangedEvent, PressureChangedEvent
from repro.policy.pressure import (
    PressureLevel,
    PressureSignal,
    classify,
    links_busy_seconds,
    store_health_of,
)

#: Simulated seconds the signal must stay below the current rung
#: before the ladder steps down one rung (hysteresis).
HOLD_S = 5.0
#: Minimum simulated seconds between link-saturation samples (the
#: reading is a rate and needs a window to be meaningful).
SATURATION_WINDOW_S = 1.0
#: Stall samples retained per tracker (oldest dropped beyond this).
STALL_SAMPLES = 4096


class DegradeRung(enum.IntEnum):
    """Rung indices deliberately mirror :class:`PressureLevel` values."""

    NORMAL = 0
    COMPRESS_LOCAL = 1
    DROP_CLEAN = 2
    EMERGENCY = 3


class StallTracker:
    """Bounded reservoir of (seconds, priority) stall samples."""

    def __init__(self, cap: int = STALL_SAMPLES) -> None:
        self._cap = max(1, cap)
        self._samples: List[Tuple[float, int]] = []
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float, priority: int = 1) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        self._samples.append((seconds, priority))
        if len(self._samples) > self._cap:
            del self._samples[: len(self._samples) - self._cap]

    def samples(self, *, min_priority: Optional[int] = None) -> List[float]:
        return [
            seconds
            for seconds, priority in self._samples
            if min_priority is None or priority >= min_priority
        ]

    def p95(self, *, min_priority: Optional[int] = None) -> float:
        values = sorted(self.samples(min_priority=min_priority))
        if not values:
            return 0.0
        index = max(0, -(-len(values) * 95 // 100) - 1)  # ceil(0.95n) - 1
        return values[index]

    def mean(self) -> float:
        return self.total_s / self.count if self.count else 0.0


class DegradeLadder:
    """Pressure-tiered degradation state for one swapping manager."""

    def __init__(self, manager: Any) -> None:
        self._manager = manager
        self.rung = DegradeRung.NORMAL
        #: The most recent :class:`PressureSignal` (None before the
        #: first assessment).
        self.signal: Optional[PressureSignal] = None
        #: ``(sim_time, from_rung, to_rung)`` per transition.
        self.transitions: List[Tuple[float, int, int]] = []
        #: Fault stalls: simulated seconds an access spent waiting for a
        #: swap-in.  The headline SLO metric.
        self.fault_stalls = StallTracker()
        #: Allocation stalls: simulated seconds ``ensure_room`` spent
        #: making space (victim ships included).
        self.alloc_stalls = StallTracker()
        self._below_since: Optional[float] = None
        self._busy_at_sample = 0.0
        self._sample_time: Optional[float] = None
        self._saturation = 0.0
        self._fallback: Optional[Any] = None

    # -- plumbing ----------------------------------------------------------

    @property
    def _space(self) -> Any:
        return self._manager._space

    def has_fallback(self) -> bool:
        """True when a compressed pool already exists (without creating
        one as a side effect — :meth:`fallback_store` instantiates)."""
        resilience = self._manager.resilience
        if resilience is not None:
            return resilience._fallback is not None
        return self._fallback is not None

    def fallback_store(self) -> Any:
        """The compressed pool the COMPRESS_LOCAL rung hibernates into.

        Shared with the resilience coordinator when one is attached, so
        degrade-to-local and the ladder fill (and the scrubber drains)
        one pool, not two.
        """
        resilience = self._manager.resilience
        if resilience is not None:
            return resilience.fallback_store()
        if self._fallback is None:
            from repro.baselines.compression import CompressedPoolStore

            self._fallback = CompressedPoolStore(self._space)
        return self._fallback

    # -- pressure ----------------------------------------------------------

    def assess(self) -> PressureSignal:
        """Take one pressure reading (no rung change; see :meth:`update`).

        Heap headroom is *effective* headroom: free bytes plus the
        footprint of clean, unpinned resident clusters — the analog of
        file-backed page cache, evictable for a metadata no-op at worst.
        A heap kept full by a swapping workload is normal; pressure is
        when the *dirty* residue leaves nothing cheap to reclaim.
        """
        manager = self._manager
        space = self._space
        heap = space.heap
        reclaimable = 0
        for cluster in space._resident.values():
            if not cluster.pins and not cluster.dirty and cluster.oids:
                reclaimable += sum(
                    heap.size_of(oid)
                    for oid in cluster.oids
                    if heap.holds(oid)
                )
        headroom = (
            min(1.0, (heap.capacity - heap.used + reclaimable) / heap.capacity)
            if heap.capacity > 0
            else 0.0
        )
        placement = (
            manager.resilience.placement
            if manager.resilience is not None
            else None
        )
        health = store_health_of(manager._stores, placement)
        topology = getattr(manager, "topology", None)
        if topology is not None:
            # a dark cell is store-health pressure even when the per-store
            # weights look fine (detached stores are no longer in _stores)
            health = min(health, topology.live_cell_fraction())
        now = space.clock.now()
        busy = links_busy_seconds(manager._stores)
        if self._sample_time is None:
            self._sample_time = now
            self._busy_at_sample = busy
        elif now - self._sample_time >= SATURATION_WINDOW_S:
            elapsed = now - self._sample_time
            self._saturation = min(
                1.0, max(0.0, (busy - self._busy_at_sample) / elapsed)
            )
            self._sample_time = now
            self._busy_at_sample = busy
        return classify(headroom, health, self._saturation)

    def update(self) -> DegradeRung:
        """Re-assess pressure and move the rung; returns the new rung.

        Escalation is immediate (the signal's level is the target
        rung); de-escalation steps down one rung per :data:`HOLD_S` of
        simulated time spent below the current rung.
        """
        signal = self.assess()
        previous = self.signal
        self.signal = signal
        space = self._space
        now = space.clock.now()
        if previous is None or signal.level != previous.level:
            space.bus.emit(
                PressureChangedEvent(
                    space=space.name,
                    level=int(signal.level),
                    previous_level=int(previous.level)
                    if previous is not None
                    else int(PressureLevel.NOMINAL),
                    heap_headroom=signal.heap_headroom,
                    store_health=signal.store_health,
                    link_saturation=signal.link_saturation,
                )
            )
        target = DegradeRung(int(signal.level))
        if target > self.rung:
            self._transition(target, now, "pressure rose")
            self._below_since = None
        elif target < self.rung:
            if self._below_since is None:
                self._below_since = now
            elif now - self._below_since >= HOLD_S:
                self._transition(
                    DegradeRung(int(self.rung) - 1), now, "pressure subsided"
                )
                # one rung per hold period: restart the timer
                self._below_since = now
        else:
            self._below_since = None
        return self.rung

    def force_emergency(self, reason: str) -> None:
        """Jump straight to the EMERGENCY rung, whatever the signal says.

        Called by ``ensure_room`` when the victim loop failed to make
        room — the moment a real OOM killer fires.  The signal may still
        read below CRITICAL (its reclaimable estimate can name clusters
        that turned out to be unevictable with every store full); failed
        reclaim is ground truth.  De-escalation happens normally once
        the signal stays below EMERGENCY for :data:`HOLD_S`.
        """
        if self.rung < DegradeRung.EMERGENCY:
            self._transition(
                DegradeRung.EMERGENCY, self._space.clock.now(), reason
            )
            self._below_since = None

    def _transition(self, to: DegradeRung, now: float, reason: str) -> None:
        previous = self.rung
        self.rung = to
        stats = self._manager.stats
        if to > previous:
            stats.ladder_escalations += 1
        else:
            stats.ladder_deescalations += 1
        self.transitions.append((now, int(previous), int(to)))
        space = self._space
        space.bus.emit(
            DegradeRungChangedEvent(
                space=space.name,
                rung=int(to),
                previous_rung=int(previous),
                level=int(self.signal.level) if self.signal is not None else 0,
                reason=reason,
            )
        )

    # -- SLO bookkeeping ---------------------------------------------------

    def record_fault_stall(self, seconds: float, priority: int = 1) -> None:
        self.fault_stalls.record(seconds, priority)

    def record_alloc_stall(self, seconds: float) -> None:
        self.alloc_stalls.record(seconds)
