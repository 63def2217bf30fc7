"""Synchronous event bus wiring the OBIWAN modules together.

The paper's architecture is event-driven: the context-management module
raises memory/connectivity events, the replication module announces cluster
materialization, and the :class:`~repro.core.manager.SwappingManager` "by
policy definition, is registered as a listener of all events regarding
replication of clusters of objects" (Section 4).  The policy engine
mediates between events and actions.

Events are frozen dataclasses.  Each event class declares a dotted
``topic`` used by declarative policies (e.g. ``memory.high``); code can
subscribe either by event class (subclass-aware) or by topic string.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Type

Handler = Callable[["Event"], None]

#: Supplies (trace_id, span_id) for events emitted inside an open span
#: (installed by ``repro.obs``; ``None`` while observability is off).
TraceProvider = Callable[[], "Optional[Tuple[str, str]]"]


@dataclass(frozen=True)
class Event:
    """Base class for all bus events.

    ``trace_id`` / ``span_id`` correlate an event to the traced
    operation that emitted it (see :mod:`repro.obs`).  They are stamped
    by the bus at emit time, default to ``None`` while tracing is off,
    and are excluded from equality so stamped and unstamped copies of
    the same event still compare equal.
    """

    topic = "event"

    trace_id: Optional[str] = field(default=None, kw_only=True, compare=False)
    span_id: Optional[str] = field(default=None, kw_only=True, compare=False)

    def describe(self) -> str:
        pairs = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )
        return f"{type(self).__name__}({pairs})"

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; invert with :func:`event_from_dict`."""
        data: Dict[str, Any] = {
            "event": type(self).__name__,
            "topic": type(self).topic,
        }
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            data[f.name] = value
        return data


# ---------------------------------------------------------------------------
# Memory / context events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryHighEvent(Event):
    """Heap usage crossed the high watermark (upwards)."""

    topic = "memory.high"
    space: str
    used: int
    capacity: int
    ratio: float
    need_bytes: int = 0


@dataclass(frozen=True)
class MemoryLowEvent(Event):
    """Heap usage fell back below the low watermark."""

    topic = "memory.low"
    space: str
    used: int
    capacity: int
    ratio: float


@dataclass(frozen=True)
class AllocationFailedEvent(Event):
    """An allocation could not be satisfied; policy gets one chance to free."""

    topic = "memory.exhausted"
    space: str
    need_bytes: int
    used: int
    capacity: int


@dataclass(frozen=True)
class DeviceJoinedEvent(Event):
    """A nearby device entered radio range."""

    topic = "context.device_joined"
    device_id: str


@dataclass(frozen=True)
class DeviceLeftEvent(Event):
    """A nearby device left radio range."""

    topic = "context.device_left"
    device_id: str


# ---------------------------------------------------------------------------
# Replication events (the SwappingManager listens to these)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterReplicatedEvent(Event):
    """An object cluster finished materializing on the device."""

    topic = "replication.cluster"
    space: str
    cid: int
    sid: int
    object_count: int


@dataclass(frozen=True)
class ObjectFaultEvent(Event):
    """A replication proxy was invoked and triggered a cluster fetch."""

    topic = "replication.fault"
    space: str
    cid: int


# ---------------------------------------------------------------------------
# Swapping events (emitted by the SwappingManager; §4: "It also triggers
# specific events regarding object-swapping")
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwapOutEvent(Event):
    topic = "swap.out"
    space: str
    sid: int
    device_id: str
    key: str
    object_count: int
    bytes_freed: int
    xml_bytes: int


@dataclass(frozen=True)
class SwapFastPathEvent(Event):
    """A cluster took the swap fast path instead of a full encode.

    ``tier`` is ``"noop"`` (a retained store copy was verified with a
    key probe; nothing shipped), ``"reship"`` (the cached canonical
    payload was shipped without re-encoding), or ``"delta"`` (only the
    dirty objects travelled, as a ``<swap-delta>`` document applied
    server-side to the retained base payload).
    """

    topic = "swap.fastpath"
    space: str
    sid: int
    tier: str
    key: str


@dataclass(frozen=True)
class SwapInEvent(Event):
    topic = "swap.in"
    space: str
    sid: int
    device_id: str
    key: str
    object_count: int
    bytes_restored: int


@dataclass(frozen=True)
class SwapDroppedEvent(Event):
    """GC found a swapped cluster unreachable; the store was told to drop."""

    topic = "swap.dropped"
    space: str
    sid: int
    device_id: str
    key: str


@dataclass(frozen=True)
class SwapClusterMergedEvent(Event):
    """Two swap-clusters were merged; the boundary between them is gone."""

    topic = "swap.merged"
    space: str
    absorber_sid: int
    absorbed_sid: int
    object_count: int


@dataclass(frozen=True)
class SwapClusterSplitEvent(Event):
    """A swap-cluster was split; a new boundary was mediated."""

    topic = "swap.split"
    space: str
    source_sid: int
    new_sid: int
    object_count: int


@dataclass(frozen=True)
class BoundaryCrossedEvent(Event):
    """A swap-cluster boundary was crossed (sampled; stats live on clusters)."""

    topic = "swap.boundary"
    space: str
    source_sid: int
    target_sid: int


# ---------------------------------------------------------------------------
# Resilience events (retry / failover / circuit breaker / degradation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwapRetryEvent(Event):
    """A swap-store operation failed transiently and will be retried."""

    topic = "resilience.retry"
    space: str
    sid: int
    device_id: str
    operation: str
    attempt: int
    delay_s: float
    error: str


@dataclass(frozen=True)
class SwapFailoverEvent(Event):
    """A device was given up on; the operation moved to another one."""

    topic = "resilience.failover"
    space: str
    sid: int
    operation: str
    from_device: str
    to_device: str


@dataclass(frozen=True)
class CircuitOpenEvent(Event):
    """A store's failure streak crossed the threshold; it is evicted
    from device selection until the cool-down elapses."""

    topic = "resilience.circuit_open"
    space: str
    device_id: str
    consecutive_failures: int
    cooldown_s: float


@dataclass(frozen=True)
class CircuitClosedEvent(Event):
    """A previously-evicted store proved healthy and was re-admitted."""

    topic = "resilience.circuit_closed"
    space: str
    device_id: str


@dataclass(frozen=True)
class SwapDegradedEvent(Event):
    """Every nearby store was unreachable; the cluster was hibernated
    into the local compressed pool instead of being lost."""

    topic = "resilience.degraded"
    space: str
    sid: int
    fallback_device_id: str
    reason: str


# ---------------------------------------------------------------------------
# Durability events (replication / placement / scrub)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicaCorruptEvent(Event):
    """A replica failed its end-to-end digest check and was quarantined.

    ``source`` names who caught it: ``"swap-in"`` (a fetch on the hot
    path) or ``"scrub"`` (a background digest probe)."""

    topic = "resilience.replica_corrupt"
    space: str
    sid: int
    device_id: str
    key: str
    source: str


@dataclass(frozen=True)
class ReplicaRepairedEvent(Event):
    """The scrubber shipped a fresh copy of an under-replicated cluster."""

    topic = "resilience.replica_repaired"
    space: str
    sid: int
    device_id: str
    key: str
    xml_bytes: int


@dataclass(frozen=True)
class ClusterUnderReplicatedEvent(Event):
    """A swapped cluster has fewer live replicas than the target factor."""

    topic = "resilience.under_replicated"
    space: str
    sid: int
    live_replicas: int
    target_replicas: int
    reason: str


@dataclass(frozen=True)
class StoreDetachedEvent(Event):
    """A store left the neighborhood (planned departure or detected death)."""

    topic = "resilience.store_detached"
    space: str
    device_id: str
    dead: bool
    affected_clusters: int


@dataclass(frozen=True)
class StoreRejoinedEvent(Event):
    """A previously-departed store was re-attached to the manager."""

    topic = "resilience.store_rejoined"
    space: str
    device_id: str


@dataclass(frozen=True)
class ScrubCompletedEvent(Event):
    """One background scrub pass finished (see ``ScrubReport``)."""

    topic = "resilience.scrub"
    space: str
    verified: int
    reactivated: int
    repaired_replicas: int
    repaired_bytes: int
    quarantined: int
    orphans_dropped: int
    repromotions: int
    under_replicated: int


@dataclass(frozen=True)
class JournalTruncatedEvent(Event):
    """The bounded journal history overflowed; completed entries were
    discarded and are no longer available to placement recovery."""

    topic = "resilience.journal.truncated"
    space: str
    dropped: int
    history: int


# ---------------------------------------------------------------------------
# Degrade-ladder events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PressureChangedEvent(Event):
    """The pressure signal crossed into a different level (see
    :mod:`repro.policy.pressure`)."""

    topic = "policy.pressure"
    space: str
    level: int
    previous_level: int
    heap_headroom: float
    store_health: float
    link_saturation: float


@dataclass(frozen=True)
class DegradeRungChangedEvent(Event):
    """The degrade ladder moved to a different rung (escalation is
    immediate; de-escalation steps down one rung per hold period)."""

    topic = "policy.ladder.rung"
    space: str
    rung: int
    previous_rung: int
    level: int
    reason: str


@dataclass(frozen=True)
class ClusterOomKilledEvent(Event):
    """The emergency rung reclaimed a resident cluster outright — its
    objects are gone, not swapped; stale proxies raise on access."""

    topic = "policy.ladder.oom_kill"
    space: str
    sid: int
    priority: int
    object_count: int
    bytes_freed: int


# ---------------------------------------------------------------------------
# GC events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GcCompletedEvent(Event):
    topic = "gc.completed"
    space: str
    collected_objects: int
    collected_clusters: int
    bytes_freed: int


@dataclass(frozen=True)
class ClusterCollectedEvent(Event):
    """A whole swap-cluster was reclaimed by the local collector.

    Carries the replication cluster ids it contained so the replication
    layer can release its server-side registrations (DGC-lite).
    """

    topic = "gc.cluster_collected"
    space: str
    sid: int
    cids: tuple


# ---------------------------------------------------------------------------
# Topology events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardReparentedEvent(Event):
    """A shard's primary was re-pointed at the healthiest in-sync replica
    (the old primary died, browned out, or was detached)."""

    topic = "topology.shard.reparented"
    space: str
    shard_id: int
    from_device: str
    to_device: str
    reason: str
    latency_s: float


@dataclass(frozen=True)
class CellDownEvent(Event):
    """Every store in one cell (placement group) became unreachable at
    once; its replication records are dark until it heals."""

    topic = "topology.cell.down"
    space: str
    cell: str
    stores: tuple
    shards_affected: int
    reason: str


@dataclass(frozen=True)
class CellRecoveredEvent(Event):
    """A previously-down cell came back; its replication records are
    readable again and reconciled against the surviving cells."""

    topic = "topology.cell.recovered"
    space: str
    cell: str
    stores: tuple


# ---------------------------------------------------------------------------
# The bus
# ---------------------------------------------------------------------------


class EventBus:
    """Synchronous publish/subscribe hub.

    Handlers run inline in ``emit`` in subscription order.  A handler
    raising does not prevent other handlers from running; errors are
    collected and re-raised wrapped after dispatch completes, so tests see
    failures but the system state stays consistent.
    """

    def __init__(self, history: int = 256) -> None:
        self._by_type: Dict[Type[Event], List[Handler]] = {}
        self._by_topic: Dict[str, List[Handler]] = {}
        self._any: List[Handler] = []
        self._history: Deque[Event] = deque(maxlen=history)
        self._dropped = 0
        self._trace_provider: Optional[TraceProvider] = None

    def set_trace_provider(self, provider: Optional[TraceProvider]) -> None:
        """Install (or clear) the source of trace context.  While set,
        every emitted event that does not already carry a ``trace_id``
        is stamped with the provider's current (trace_id, span_id)."""
        self._trace_provider = provider

    # -- subscription ------------------------------------------------------

    def subscribe(self, event_type: Type[Event], handler: Handler) -> Callable[[], None]:
        """Register ``handler`` for ``event_type`` and its subclasses.

        Returns an unsubscribe callable.
        """
        self._by_type.setdefault(event_type, []).append(handler)
        return lambda: self._by_type.get(event_type, []).remove(handler)

    def subscribe_topic(self, topic: str, handler: Handler) -> Callable[[], None]:
        """Register ``handler`` for events whose ``topic`` matches.

        A trailing ``*`` matches a topic prefix: ``"swap.*"`` receives
        ``swap.out``, ``swap.in`` and ``swap.dropped``.
        """
        self._by_topic.setdefault(topic, []).append(handler)
        return lambda: self._by_topic.get(topic, []).remove(handler)

    def subscribe_all(self, handler: Handler) -> Callable[[], None]:
        self._any.append(handler)
        return lambda: self._any.remove(handler)

    # -- dispatch ----------------------------------------------------------

    def emit(self, event: Event) -> None:
        if self._trace_provider is not None and event.trace_id is None:
            context = self._trace_provider()
            if context is not None:
                event = replace(
                    event, trace_id=context[0], span_id=context[1]
                )
        if (
            self._history.maxlen is not None
            and len(self._history) == self._history.maxlen
        ):
            self._dropped += 1
        self._history.append(event)
        errors: List[Tuple[Handler, BaseException]] = []
        for handler in self._handlers_for(event):
            try:
                handler(event)
            except Exception as exc:  # noqa: BLE001 - isolate handlers
                errors.append((handler, exc))
        if errors:
            handler, exc = errors[0]
            raise RuntimeError(
                f"{len(errors)} event handler(s) failed for {event.describe()}; "
                f"first: {handler!r}"
            ) from exc

    def _handlers_for(self, event: Event) -> List[Handler]:
        handlers: List[Handler] = []
        for event_type, registered in self._by_type.items():
            if isinstance(event, event_type):
                handlers.extend(registered)
        topic = type(event).topic
        for pattern, registered in self._by_topic.items():
            if _topic_matches(pattern, topic):
                handlers.extend(registered)
        handlers.extend(self._any)
        return handlers

    # -- introspection ------------------------------------------------------

    @property
    def history(self) -> List[Event]:
        return list(self._history)

    @property
    def dropped_count(self) -> int:
        """Events silently evicted from the bounded history deque.

        A long chaos run that introspects ``history`` afterwards can
        compare this before/after to detect that what it is reading is
        a suffix, not the whole story."""
        return self._dropped

    def drain(self) -> List[Event]:
        """Consume-and-clear the history: returns the buffered events
        and empties the deque, so high-volume runs can read in batches
        without unbounded growth or silent eviction.  ``dropped_count``
        is cumulative and not reset."""
        drained = list(self._history)
        self._history.clear()
        return drained

    def last(self, event_type: Type[Event]) -> Event | None:
        for event in reversed(self._history):
            if isinstance(event, event_type):
                return event
        return None

    def count(self, event_type: Type[Event]) -> int:
        return sum(1 for event in self._history if isinstance(event, event_type))


def _topic_matches(pattern: str, topic: str) -> bool:
    if pattern.endswith("*"):
        return topic.startswith(pattern[:-1])
    return pattern == topic


def topic_of(event: Event | Type[Event]) -> str:
    """Return the dotted topic of an event instance or class."""
    cls = event if isinstance(event, type) else type(event)
    return cls.topic


def event_types() -> Dict[str, Type[Event]]:
    """Every concrete :class:`Event` subclass, keyed by class name
    (computed live so late-defined subclasses are included)."""
    found: Dict[str, Type[Event]] = {}

    def visit(cls: Type[Event]) -> None:
        for subclass in cls.__subclasses__():
            found[subclass.__name__] = subclass
            visit(subclass)

    visit(Event)
    return found


def event_from_dict(data: Dict[str, Any]) -> Event:
    """Rebuild an event from :meth:`Event.to_dict` output.

    Raises :class:`ValueError` for unknown event classes or a topic
    that does not match the class (corrupt / stale payloads)."""
    try:
        name = data["event"]
    except KeyError:
        raise ValueError("event dict has no 'event' class name") from None
    cls = event_types().get(name)
    if cls is None:
        raise ValueError(f"unknown event class {name!r}")
    if data.get("topic") != cls.topic:
        raise ValueError(
            f"topic {data.get('topic')!r} does not match "
            f"{name}.topic {cls.topic!r}"
        )
    kwargs: Dict[str, Any] = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if isinstance(value, list):
            value = tuple(value)  # frozen events carry tuples, not lists
        kwargs[f.name] = value
    return cls(**kwargs)


__all__ = [
    "Event",
    "EventBus",
    "Handler",
    "TraceProvider",
    "topic_of",
    "event_types",
    "event_from_dict",
    "MemoryHighEvent",
    "MemoryLowEvent",
    "AllocationFailedEvent",
    "DeviceJoinedEvent",
    "DeviceLeftEvent",
    "ClusterReplicatedEvent",
    "ObjectFaultEvent",
    "SwapOutEvent",
    "SwapFastPathEvent",
    "SwapInEvent",
    "SwapDroppedEvent",
    "SwapClusterMergedEvent",
    "SwapClusterSplitEvent",
    "BoundaryCrossedEvent",
    "SwapRetryEvent",
    "SwapFailoverEvent",
    "CircuitOpenEvent",
    "CircuitClosedEvent",
    "SwapDegradedEvent",
    "ReplicaCorruptEvent",
    "ReplicaRepairedEvent",
    "ClusterUnderReplicatedEvent",
    "StoreDetachedEvent",
    "StoreRejoinedEvent",
    "ScrubCompletedEvent",
    "JournalTruncatedEvent",
    "GcCompletedEvent",
    "ClusterCollectedEvent",
    "ShardReparentedEvent",
    "CellDownEvent",
    "CellRecoveredEvent",
]
