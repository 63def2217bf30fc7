"""The resilience coordinator: glue between policy objects and the manager.

One :class:`Resilience` instance per :class:`~repro.core.manager.
SwappingManager` owns the retry policy (and its deterministic jitter
PRNG), the per-device :class:`~repro.resilience.health.HealthRegistry`,
the :class:`~repro.resilience.journal.SwapJournal`, and the lazily
created local fallback pool.  The manager stays in charge of the swap
protocol; this class answers "run this store operation robustly" and
"may I talk to this device right now", emitting resilience events and
bumping :class:`~repro.core.manager.ManagerStats` counters as it goes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple, Type

from repro.errors import RetryExhaustedError, TransportError
from repro.events import (
    CircuitClosedEvent,
    CircuitOpenEvent,
    ClusterUnderReplicatedEvent,
    JournalTruncatedEvent,
    SwapRetryEvent,
)
from repro.resilience.health import HealthRegistry
from repro.resilience.journal import SwapJournal
from repro.resilience.placement import PlacementMap, health_rank
from repro.resilience.retry import RetryPolicy, retry_after_failure
from repro.resilience.scrub import Scrubber


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs for the resilient swap pipeline."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Consecutive failures that open a store's circuit breaker.
    failure_threshold: int = 3
    #: Simulated seconds an open circuit keeps a store out of selection.
    cooldown_s: float = 30.0
    #: When every store is unreachable, hibernate the cluster into the
    #: local compressed pool instead of raising.
    degrade_to_local: bool = True
    #: Heap share the local fallback pool may occupy.
    fallback_pool_fraction: float = 0.5
    #: Completed journal entries retained for inspection.
    journal_history: int = 256
    #: Seed for the deterministic retry-jitter PRNG.
    seed: int = 0
    #: How many distinct stores should hold each swapped cluster.  The
    #: effective target is ``max(manager.replication_factor, this)``.
    replication_factor: int = 1
    #: Simulated seconds between background scrub passes.
    scrub_interval_s: float = 30.0
    #: Placement records integrity-sampled per scrub pass.
    scrub_sample: int = 4
    #: A record verified this recently is skipped by the sampler; clean
    #: fast-path swap-outs refresh it so unmodified clusters are not
    #: re-fetched by scrub.
    reverify_interval_s: float = 600.0


class Resilience:
    """Retry/health/journal/degrade state for one swapping manager."""

    def __init__(self, config: ResilienceConfig, manager: Any) -> None:
        self.config = config
        self._manager = manager
        self._rng = random.Random(config.seed)
        self.health = HealthRegistry(
            failure_threshold=config.failure_threshold,
            cooldown_s=config.cooldown_s,
        )
        self.journal = SwapJournal(
            history=config.journal_history,
            on_truncate=self._on_journal_truncated,
        )
        self.placement = PlacementMap()
        self.scrubber = Scrubber(manager, self)
        self._fallback: Optional[Any] = None

    # -- plumbing ----------------------------------------------------------

    @property
    def _space(self) -> Any:
        return self._manager._space

    @property
    def clock(self) -> Any:
        return self._space.clock

    # -- circuit breaker ---------------------------------------------------

    def admits(self, device_id: str) -> bool:
        """May device selection consider this store right now?"""
        return self.health.of(device_id).admits(self.clock.now())

    def record_success(self, device_id: str) -> None:
        if self.health.of(device_id).record_success():
            self._manager.stats.circuit_closes += 1
            self._space.bus.emit(
                CircuitClosedEvent(space=self._space.name, device_id=device_id)
            )

    def record_failure(self, device_id: str) -> None:
        record = self.health.of(device_id)
        if record.record_failure(self.clock.now()):
            self._manager.stats.circuit_opens += 1
            self._space.bus.emit(
                CircuitOpenEvent(
                    space=self._space.name,
                    device_id=device_id,
                    consecutive_failures=record.consecutive_failures,
                    cooldown_s=record.cooldown_s,
                )
            )
            # a tripped circuit is store-death-until-proven-otherwise:
            # its replicas stop counting until the scrubber re-verifies
            self.mark_device_suspect(device_id, reason="circuit open")

    # -- placement hooks ---------------------------------------------------

    def mark_device_suspect(self, device_id: str, *, reason: str) -> List[int]:
        affected = self.placement.mark_device_suspect(device_id)
        rf = self._manager.target_replicas()
        for sid in affected:
            record = self.placement.get(sid)
            if record is not None and record.live_count < rf:
                self._space.bus.emit(
                    ClusterUnderReplicatedEvent(
                        space=self._space.name,
                        sid=sid,
                        live_replicas=record.live_count,
                        target_replicas=rf,
                        reason=f"{device_id}: {reason}",
                    )
                )
        return affected

    def rank_replicas(self, holders: List[Any]) -> List[Any]:
        """Order replica holders fastest-admitted-first for swap-in.

        Admitted stores come before circuit-open ones; within each tier
        the healthiest (fewest consecutive failures, best history) and
        lowest-latency link wins.
        """
        now = self.clock.now()
        of = self.health.of
        ranked = []
        for index, holder in enumerate(holders):
            record = of(holder.device_id)
            link = getattr(holder, "link", None)
            latency = getattr(link, "latency_s", 0.0) if link is not None else 0.0
            # health_rank is the shared failure-rate key, matching
            # plan_placement: a net-success score would rank busy stores
            # above quiet healthy ones and scramble the stable holder
            # order the bindings establish; the index keeps ties stable
            ranked.append((
                0 if record.admits(now) else 1,
                *health_rank(record),
                latency,
                index,
                holder,
            ))
        ranked.sort()
        return [entry[-1] for entry in ranked]

    def _on_journal_truncated(self, dropped: int) -> None:
        self._manager.stats.journal_truncated += dropped
        self._space.bus.emit(
            JournalTruncatedEvent(
                space=self._space.name,
                dropped=dropped,
                history=self.config.journal_history,
            )
        )

    # -- retried execution -------------------------------------------------

    def run(
        self,
        operation: Callable[[], Any],
        *,
        sid: int,
        device_id: str,
        op_name: str,
        retry_on: Tuple[Type[BaseException], ...] = (TransportError,),
    ) -> Any:
        """Run one store operation under the retry policy.

        Health bookkeeping: success closes/clears the device's record;
        exhausting retries (reachability failures only) counts one
        failure toward its circuit breaker.
        """
        started = self.clock.now()
        try:
            result = operation()
        except retry_on as exc:
            return self._retry(
                operation, exc, started, sid, device_id, op_name, retry_on
            )
        # the common case: one attempt, no retry machinery
        self._observe_attempts(1)
        self.record_success(device_id)
        return result

    def _retry(
        self,
        operation: Callable[[], Any],
        error: BaseException,
        started: float,
        sid: int,
        device_id: str,
        op_name: str,
        retry_on: Tuple[Type[BaseException], ...],
    ) -> Any:
        """:meth:`run` after a failed first attempt: backoff, events and
        spans per retry, health bookkeeping at the end."""
        space = self._space
        attempts = 1

        def on_retry(attempt: int, delay: float, error: BaseException) -> None:
            nonlocal attempts
            attempts = attempt + 1
            self._manager.stats.retries += 1
            obs = getattr(self._manager, "obs", None)
            if obs is not None:
                # the retry loop advances the clock by exactly ``delay``
                # right after this callback, so the backoff span's window
                # is known now: [now, now + delay]
                now = self.clock.now()
                obs.tracer.record_span(
                    "retry.backoff",
                    start_s=now,
                    end_s=now + delay,
                    attempt=attempt,
                    delay_s=delay,
                    device=device_id,
                    operation=op_name,
                    cause=str(error),
                )
            space.bus.emit(
                SwapRetryEvent(
                    space=space.name,
                    sid=sid,
                    device_id=device_id,
                    operation=op_name,
                    attempt=attempt,
                    delay_s=delay,
                    error=str(error),
                )
            )

        try:
            result = retry_after_failure(
                operation,
                error,
                started,
                policy=self.config.retry,
                clock=self.clock,
                rng=self._rng,
                retry_on=retry_on,
                on_retry=on_retry,
                describe=f"{op_name} on {device_id}",
            )
        except RetryExhaustedError as exc:
            self._observe_attempts(attempts)
            if isinstance(exc.__cause__, TransportError):
                self.record_failure(device_id)
            raise
        self._observe_attempts(attempts)
        self.record_success(device_id)
        return result

    def _observe_attempts(self, attempts: int) -> None:
        obs = getattr(self._manager, "obs", None)
        if obs is not None:
            obs.observe_attempts(attempts)

    # -- graceful degradation ----------------------------------------------

    def fallback_store(self) -> Any:
        """The local compressed pool used when no store is reachable."""
        if self._fallback is None:
            from repro.baselines.compression import CompressedPoolStore

            self._fallback = CompressedPoolStore(
                self._space, pool_fraction=self.config.fallback_pool_fraction
            )
        return self._fallback
