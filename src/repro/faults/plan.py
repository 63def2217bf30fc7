"""The fault schedule: a seeded plan and its deterministic decision engine.

A :class:`FaultPlan` is pure data — rates, magnitudes and link-down
windows.  A :class:`FaultInjector` owns the PRNG seeded from the plan
and answers "does this operation fail, and how?".  Decisions are drawn
in operation order, so a single-threaded run over the same workload
replays identically; injected latency is charged to the injector's
:class:`~repro.clock.Clock`, never to wall time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.clock import Clock, SimulatedClock


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of how the neighborhood misbehaves.

    Rates are per-operation probabilities in ``[0, 1]``; window tuples
    are ``(start_s, end_s)`` intervals of *simulated* time during which
    every wrapped link/store is unreachable (a device out of range).
    """

    seed: int = 0
    #: Transient failure probability of ``store()`` (payload never lands).
    store_failure_rate: float = 0.0
    #: Transient failure probability of ``fetch()``.
    fetch_failure_rate: float = 0.0
    #: Transient failure probability of ``drop()``.
    drop_failure_rate: float = 0.0
    #: Transient failure probability of ``has_room()`` admission probes.
    probe_failure_rate: float = 0.0
    #: Probability that a ``fetch()`` returns a corrupted payload
    #: (caught downstream by the digest check).
    corruption_rate: float = 0.0
    #: Probability that a ``store()`` lands a payload that then silently
    #: rots *at rest*: the store acknowledges success, the copy is bad.
    #: Only the scrubber's digest sampling (or the next swap-in) sees it.
    at_rest_corruption_rate: float = 0.0
    #: Probability that a ``store()`` is interrupted mid-payload: a
    #: truncated document lands on the device, then the link errors.
    interruption_rate: float = 0.0
    #: Probability that an operation suffers a latency spike of
    #: ``latency_spike_s`` (charged to the simulated clock).
    latency_spike_rate: float = 0.0
    latency_spike_s: float = 0.25
    #: Transient failure probability of raw ``Link.transfer`` calls.
    link_failure_rate: float = 0.0
    #: Simulated-time windows during which everything is unreachable.
    down_windows: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "store_failure_rate",
            "fetch_failure_rate",
            "drop_failure_rate",
            "probe_failure_rate",
            "corruption_rate",
            "at_rest_corruption_rate",
            "interruption_rate",
            "latency_spike_rate",
            "link_failure_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        for window in self.down_windows:
            if len(window) != 2 or window[0] > window[1]:
                raise ValueError(f"malformed down window {window!r}")

    @classmethod
    def empty(cls, seed: int = 0) -> "FaultPlan":
        """A plan that injects nothing (happy-path control runs)."""
        return cls(seed=seed)

    @property
    def is_empty(self) -> bool:
        return (
            self.store_failure_rate == 0.0
            and self.fetch_failure_rate == 0.0
            and self.drop_failure_rate == 0.0
            and self.probe_failure_rate == 0.0
            and self.corruption_rate == 0.0
            and self.at_rest_corruption_rate == 0.0
            and self.interruption_rate == 0.0
            and self.latency_spike_rate == 0.0
            and self.link_failure_rate == 0.0
            and not self.down_windows
        )


@dataclass
class FaultStats:
    """What the injector actually did (one plan may serve many wrappers)."""

    decisions: int = 0
    store_faults: int = 0
    fetch_faults: int = 0
    drop_faults: int = 0
    probe_faults: int = 0
    corruptions: int = 0
    at_rest_corruptions: int = 0
    interruptions: int = 0
    latency_spikes: int = 0
    link_faults: int = 0
    window_denials: int = 0
    dead_denials: int = 0
    spike_seconds: float = 0.0

    @property
    def total_faults(self) -> int:
        return (
            self.store_faults
            + self.fetch_faults
            + self.drop_faults
            + self.probe_faults
            + self.corruptions
            + self.at_rest_corruptions
            + self.interruptions
            + self.link_faults
            + self.window_denials
        )


class FaultInjector:
    """Deterministic decision stream for one :class:`FaultPlan`.

    Share one injector across every wrapper in a scenario so the whole
    run draws from a single seeded stream: replaying the scenario with
    the same plan reproduces the same faults at the same operations.
    """

    def __init__(self, plan: FaultPlan, clock: Optional[Clock] = None) -> None:
        self.plan = plan
        self.clock: Clock = clock if clock is not None else SimulatedClock()
        self._rng = random.Random(plan.seed)
        self.stats = FaultStats()

    # -- decisions ---------------------------------------------------------

    def roll(self, rate: float) -> bool:
        """One Bernoulli draw.  Zero-rate draws skip the PRNG so adding
        a fault kind never perturbs the decision stream of plans that do
        not use it."""
        if rate <= 0.0:
            return False
        self.stats.decisions += 1
        return self._rng.random() < rate

    def in_down_window(self) -> bool:
        now = self.clock.now()
        for start, end in self.plan.down_windows:
            if start <= now < end:
                return True
        return False

    def charge_latency(self) -> float:
        """Maybe inject a latency spike; returns the seconds charged."""
        if self.roll(self.plan.latency_spike_rate):
            self.stats.latency_spikes += 1
            self.stats.spike_seconds += self.plan.latency_spike_s
            self.clock.advance(self.plan.latency_spike_s)
            return self.plan.latency_spike_s
        return 0.0

    def corrupt(self, text: str) -> str:
        """Deterministically mangle a payload (digest check will catch it)."""
        self.stats.corruptions += 1
        return mangle_payload(text)


def mangle_payload(text: str) -> str:
    """The canonical bitrot: still text, never the original digest."""
    if len(text) > 8:
        return text[:-8] + "<!--rot-->"
    return text + "<!--rot-->"
