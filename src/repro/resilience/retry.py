"""Retry with exponential backoff, deterministic jitter and a deadline.

All waiting is charged to a :class:`~repro.clock.Clock` — with the
default :class:`~repro.clock.SimulatedClock` a retried swap costs
simulated seconds, not wall time, so chaos experiments stay fast and
replayable.  Jitter comes from a caller-owned seeded PRNG, which keeps
two runs of the same scenario bit-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type

from repro.clock import Clock
from repro.errors import RetryExhaustedError, TransportError


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: ``base * multiplier**(attempt-1)``, capped.

    ``jitter`` spreads each delay uniformly over ``±jitter`` of its
    nominal value; ``deadline_s`` bounds the *total* simulated time a
    single retried operation may consume (attempt time included, since
    transfers charge the same clock).
    """

    max_attempts: int = 4
    base_delay_s: float = 0.1
    multiplier: float = 2.0
    max_delay_s: float = 5.0
    jitter: float = 0.1
    deadline_s: Optional[float] = 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    def delay_for(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        delay = min(
            self.max_delay_s, self.base_delay_s * self.multiplier ** (attempt - 1)
        )
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


#: Called before each backoff sleep: (attempt, delay_s, error).
RetryObserver = Callable[[int, float, BaseException], None]


def run_with_retry(
    operation: Callable[[], Any],
    *,
    policy: RetryPolicy,
    clock: Clock,
    rng: Optional[random.Random] = None,
    retry_on: Tuple[Type[BaseException], ...] = (TransportError,),
    on_retry: Optional[RetryObserver] = None,
    describe: str = "operation",
) -> Any:
    """Run ``operation`` under ``policy``; backoff charged to ``clock``.

    Only exceptions in ``retry_on`` are retried — anything else (e.g. a
    permanent :class:`~repro.errors.StoreFullError`) propagates at once.
    Raises :class:`~repro.errors.RetryExhaustedError` (last failure
    chained) when attempts or the deadline run out.
    """
    started = clock.now()
    try:
        return operation()
    except retry_on as exc:
        return retry_after_failure(
            operation,
            exc,
            started,
            policy=policy,
            clock=clock,
            rng=rng,
            retry_on=retry_on,
            on_retry=on_retry,
            describe=describe,
        )


def retry_after_failure(
    operation: Callable[[], Any],
    error: BaseException,
    started: float,
    *,
    policy: RetryPolicy,
    clock: Clock,
    rng: Optional[random.Random] = None,
    retry_on: Tuple[Type[BaseException], ...] = (TransportError,),
    on_retry: Optional[RetryObserver] = None,
    describe: str = "operation",
) -> Any:
    """:func:`run_with_retry` from its first failure on: ``error`` is
    what attempt 1 (begun at ``started``) raised.  Callers that make the
    first attempt themselves pay for the retry machinery only when it
    fails."""
    attempt = 1
    exc = error
    while True:
        if attempt >= policy.max_attempts:
            raise RetryExhaustedError(
                f"{describe}: {attempt} attempt(s) exhausted; last: {exc}"
            ) from exc
        delay = policy.delay_for(attempt, rng)
        if (
            policy.deadline_s is not None
            and clock.now() + delay - started > policy.deadline_s
        ):
            raise RetryExhaustedError(
                f"{describe}: deadline of {policy.deadline_s}s would be "
                f"exceeded after attempt {attempt}; last: {exc}"
            ) from exc
        if on_retry is not None:
            on_retry(attempt, delay, exc)
        clock.advance(delay)
        attempt += 1
        try:
            return operation()
        except retry_on as next_error:
            exc = next_error
