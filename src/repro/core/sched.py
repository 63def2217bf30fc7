"""Event-driven asynchronous swap scheduling on the simulated clock.

The paper's swap protocol is strictly synchronous: a proxy fault stalls
the application until the cluster's bytes round-trip the link, and a
victim write-back stalls the fault that triggered it.  Now that deltas
and compression shrank payloads ~100x, *latency* — not bytes — dominates
fault cost.  This module hides it:

* every swap I/O becomes a resumable :class:`SwapOp` (FETCH, SHIP,
  DELTA_SHIP, RELOAD_VERIFY) whose transfer time lands on a
  :class:`~repro.comm.pipeline.TransferScheduler` channel instead of the
  global clock, and whose completion is retired from a clock-ordered
  :class:`CompletionQueue` with deterministic ``(time, seq)`` ordering;
* a :class:`Prefetcher` learns likely-next clusters from the proxy
  reference graph (the outbound proxies the faulting cluster's
  replacement-object holds) and from fault-succession history, and
  issues speculative fetches on idle channels *while the demand fetch
  is still in flight* — by the time the application touches the next
  cluster, its payload is usually already local and the residual stall
  is ~0;
* victim write-back (:meth:`SwappingManager.ensure_room` inside a
  fault) rides the same channel pool, overlapping with in-flight
  fetches; the drain-before-fetch invariant survives *per physical
  link*: the scheduler's per-link busy windows serialize a fetch behind
  any ship still in flight to the same store.

The degrade ladder always wins: at or above the configured pressure
rung, no new speculative fetches are issued and buffered speculative
payloads are shed (:meth:`AsyncSwapScheduler.shed_speculative`).

A manager without a scheduler runs the paper's blocking protocol inline
on the global clock.  With one, even ``channels=1, prefetch=False``
schedules every fetch, write-back and stale-copy drop on its one
transfer channel.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.comm.pipeline import TransferScheduler
from repro.core.swap_cluster import SwapClusterState
from repro.errors import TransportError, UnknownKeyError
from repro.ids import Sid
from repro.wire.canonical import verify_payload

_SWAPPED = SwapClusterState.SWAPPED


class SwapOpKind(enum.Enum):
    """What a scheduled swap operation moves."""

    FETCH = "fetch"
    SHIP = "ship"
    DELTA_SHIP = "delta-ship"
    RELOAD_VERIFY = "reload-verify"
    #: post-reload stale-copy drop (a 64-byte control message per
    #: replica) — deferred onto a channel so it never stalls the fault
    INVALIDATE = "invalidate"


class SwapOpState(enum.Enum):
    """Lifecycle of a :class:`SwapOp` (PENDING → IN_FLIGHT → DONE)."""

    PENDING = "pending"
    IN_FLIGHT = "in-flight"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass(slots=True)
class SwapOp:
    """One resumable swap operation on the simulated timeline.

    Ops are issued at ``issued_s`` (global clock), occupy transfer
    channels for ``busy_s`` simulated seconds, and complete at
    ``complete_s`` — possibly *after* the global now, in which case they
    sit IN_FLIGHT on the completion queue until the clock passes them.
    Retry/failover state is per-op (``attempts``/``failovers``), not a
    property of the blocking call stack.
    """

    seq: int
    kind: SwapOpKind
    sid: Sid
    key: str = ""
    speculative: bool = False
    state: SwapOpState = SwapOpState.PENDING
    device_id: str = ""
    issued_s: float = 0.0
    start_s: float = 0.0
    complete_s: float = 0.0
    #: total channel occupancy across every attempt (what a serial
    #: schedule would have stalled for)
    busy_s: float = 0.0
    attempts: int = 0
    failovers: int = 0
    #: speculative fetches buffer their verified payload until consumed
    payload: Optional[str] = None
    error: Optional[str] = None


class CompletionQueue:
    """Clock-ordered op completions with stable ``(time, seq)`` ordering.

    Two ops completing at the same simulated instant retire in issue
    order — the tie-break that keeps seeded runs byte-identical across
    platforms (heap order on bare floats would depend on push order
    *and* comparison quirks; the explicit ``seq`` removes both).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, SwapOp]] = []

    def push(self, op: SwapOp) -> None:
        heapq.heappush(self._heap, (op.complete_s, op.seq, op))

    def pop_due(self, now: float) -> List[SwapOp]:
        """Remove and return every op completing at or before ``now``."""
        due: List[SwapOp] = []
        while self._heap and self._heap[0][0] <= now:
            due.append(heapq.heappop(self._heap)[2])
        return due

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


@dataclass(frozen=True)
class AsyncSchedConfig:
    """Tuning for :class:`AsyncSwapScheduler`."""

    #: transfer channels shared by demand fetches, speculative fetches
    #: and victim write-back
    channels: int = 4
    #: learn touch patterns and issue speculative fetches
    prefetch: bool = True
    #: how many likely-next clusters to keep warm per fault
    prefetch_depth: int = 3
    #: cap on buffered speculative payloads
    max_speculative: int = 8
    #: degrade-ladder rung at or above which prefetch stops and buffered
    #: speculative payloads are shed (1 = COMPRESS_LOCAL: the moment the
    #: ladder starts defending memory, speculation yields)
    prefetch_pressure_limit: int = 1

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError("async scheduler needs at least one channel")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be positive")


@dataclass
class SchedStats:
    """What asynchronous scheduling did (simulated seconds throughout)."""

    ops_issued: int = 0
    demand_fetches: int = 0
    #: simulated seconds faults actually stalled on demand fetches
    demand_stall_s: float = 0.0
    #: simulated seconds faults stalled waiting for an in-flight
    #: speculative fetch to land (usually ~0)
    hit_stall_s: float = 0.0
    #: stall seconds the overlap removed vs a serial schedule
    stall_saved_s: float = 0.0
    prefetch_issued: int = 0
    prefetch_hits: int = 0
    #: speculative payloads fetched but never consumed (invalidated by a
    #: re-swap-out / drop, or stale-keyed at consume time)
    prefetch_waste: int = 0
    #: speculative payloads shed under pressure (the ladder won)
    prefetch_cancelled: int = 0
    #: in-flight speculative transfers aborted mid-window because a
    #: demand fetch needed the radio (their remaining link time was
    #: given back — demand always preempts speculation)
    prefetch_preempted: int = 0
    #: speculative payloads demoted to make room for fresher predictions
    #: (buffered longest without being touched)
    prefetch_demoted: int = 0
    #: speculative fetch attempts that failed in flight (no retries —
    #: speculation is not worth a backoff loop)
    prefetch_failed: int = 0
    writebacks: int = 0
    #: stale-copy invalidations taken off the fault path and onto
    #: transfer channels (each was a serial control round-trip before)
    stale_drops: int = 0
    #: simulated seconds faults waited for a free channel (flow control:
    #: the price of keeping the deferred-I/O backlog bounded)
    backpressure_stall_s: float = 0.0
    reloads: int = 0
    max_queue_depth: int = 0

    @property
    def waste_ratio(self) -> float:
        """Fraction of issued speculative fetches that bought nothing."""
        if not self.prefetch_issued:
            return 0.0
        return 1.0 - self.prefetch_hits / self.prefetch_issued

    @property
    def hit_ratio(self) -> float:
        if not self.prefetch_issued:
            return 0.0
        return self.prefetch_hits / self.prefetch_issued


class Prefetcher:
    """Predict likely-next swapped clusters from touch patterns.

    Two signals, both deterministic:

    * **reference edges** — a swapped cluster's replacement-object holds
      its outbound swap-cluster-proxies, which name exactly the clusters
      a traversal can reach next (ranked by crossing recency, most
      recently crossed first);
    * **succession history** — which cluster actually faulted after
      which (a per-edge counter table; a collected cluster's row and
      column are forgotten), dominant once the workload has looped once.

    ``predict`` breadth-first-expands the union of both signals so a
    deep ``prefetch_depth`` keeps a whole pointer-chase pipeline warm.
    """

    def __init__(self, space: Any) -> None:
        self._space = space
        self._successors: Dict[Sid, Dict[Sid, int]] = {}
        self._last_fault: Optional[Sid] = None

    def record_fault(self, sid: Sid) -> None:
        """Note that ``sid`` faulted (after whatever faulted last)."""
        last = self._last_fault
        if last is not None and last != sid:
            counts = self._successors.setdefault(last, {})
            counts[sid] = counts.get(sid, 0) + 1
        self._last_fault = sid

    def forget(self, sid: Sid) -> None:
        """Drop every count involving ``sid`` (the cluster was collected:
        it can never fault again)."""
        self._successors.pop(sid, None)
        for counts in self._successors.values():
            counts.pop(sid, None)
        if self._last_fault == sid:
            self._last_fault = None

    def predict(self, sid: Sid, limit: int) -> List[Sid]:
        """Up to ``limit`` swapped clusters likely to fault next."""
        out: List[Sid] = []
        seen = {sid}
        frontier = [sid]
        while frontier and len(out) < limit:
            next_frontier: List[Sid] = []
            for source in frontier:
                for candidate in self._neighbors(source):
                    if candidate in seen:
                        continue
                    seen.add(candidate)
                    out.append(candidate)
                    next_frontier.append(candidate)
                    if len(out) >= limit:
                        return out
            frontier = next_frontier
        return out

    def _neighbors(self, source: Sid) -> List[Sid]:
        """Swapped successors of ``source``: history first (by observed
        count), then unobserved reference-edge targets (by crossing
        recency); ties break on sid for determinism.

        ``source`` is always swapped (the faulting cluster, or a swapped
        prediction), so its reference edges are exactly the outbound
        proxies its replacement-object holds (paper §3): reading them
        costs O(out-degree), not a scan of every live proxy.
        """
        clusters = self._space._clusters
        ranked: List[Sid] = []
        history = self._successors.get(source)
        if history:
            rows = (
                sorted(history.items(), key=_by_count)
                if len(history) > 1
                else history.items()
            )
            for sid, _count in rows:
                cluster = clusters.get(sid)
                if (
                    cluster is not None
                    and cluster.state is _SWAPPED
                    and cluster.location is not None
                ):
                    ranked.append(sid)
        else:
            history = {}
        edges: List[Tuple[int, Sid]] = []
        seen = set()
        for proxy in clusters[source].replacement._outbound:
            if proxy._obi_source_sid != source:
                continue
            target = proxy._obi_target_sid
            if target in seen:
                continue
            seen.add(target)
            if target in history:
                continue
            cluster = clusters.get(target)
            if (
                cluster is not None
                and cluster.state is _SWAPPED
                and cluster.location is not None
            ):
                edges.append((-cluster.last_crossing_tick, target))
        edges.sort()
        ranked.extend(sid for _tick, sid in edges)
        return ranked


def _by_count(item: Tuple[Sid, int]) -> Tuple[int, Sid]:
    """History rank: most observed successions first, then sid."""
    return -item[1], item[0]


class AsyncSwapScheduler:
    """Turn the manager's blocking fault path into scheduled ops.

    Owned by a :class:`~repro.core.manager.SwappingManager`
    (``manager.sched``, via ``enable_async_scheduler()``).  The manager
    routes demand fetches through :meth:`acquire`, victim/mirror ships
    through :meth:`ship_channel`, and reload completion through
    :meth:`note_reload`; everything else (journal, placement,
    resilience retries, degrade routing) runs unchanged around the
    scheduled windows.
    """

    def __init__(self, manager: Any, config: AsyncSchedConfig) -> None:
        self.manager = manager
        self.config = config
        self.stats = SchedStats()
        self.queue = CompletionQueue()
        clock = manager._space.clock
        self.transfers = TransferScheduler(clock, config.channels)
        self.prefetcher = Prefetcher(manager._space)
        #: sid -> in-flight/buffered speculative FETCH op
        self._speculative: Dict[Sid, SwapOp] = {}
        #: sid -> (link, ChannelSlot) of the speculative booking, kept
        #: until consumed/shed so a demand fetch can preempt its window
        self._spec_slots: Dict[Sid, Tuple[Any, Any]] = {}
        self._seq = 0

    # -- basics ------------------------------------------------------------

    @property
    def clock(self) -> Any:
        return self.transfers.clock

    def _new_op(
        self,
        kind: SwapOpKind,
        sid: Sid,
        key: str = "",
        device_id: str = "",
        speculative: bool = False,
    ) -> SwapOp:
        self._seq += 1
        self.stats.ops_issued += 1
        return SwapOp(
            self._seq, kind, sid, key, speculative, SwapOpState.PENDING,
            device_id, self.transfers.clock.now(),
        )

    def _enqueue(self, op: SwapOp) -> None:
        op.state = SwapOpState.IN_FLIGHT
        heap = self.queue._heap
        heapq.heappush(heap, (op.complete_s, op.seq, op))
        stats = self.stats
        if len(heap) > stats.max_queue_depth:
            stats.max_queue_depth = len(heap)

    def retire_due(self) -> List[SwapOp]:
        """Retire every op whose completion time the clock has passed."""
        heap = self.queue._heap
        now = self.transfers.clock.now()
        if not heap or heap[0][0] > now:
            return []
        done = self.queue.pop_due(now)
        for op in done:
            if op.state is SwapOpState.IN_FLIGHT:
                op.state = SwapOpState.DONE
        return done

    def in_flight_fetches(self) -> int:
        """Speculative fetches issued but not yet consumed or shed."""
        return len(self._speculative)

    def overlap_ratio(self) -> float:
        """How much of the channel-seconds never stalled the app: 0 =
        fully serial, → 1 = fully hidden behind other work."""
        busy = self.transfers.stats.serial_s + self.transfers.stats.failed_s
        if busy <= 0.0:
            return 0.0
        stalled = (
            self.stats.demand_stall_s
            + self.stats.hit_stall_s
            + self.stats.backpressure_stall_s
        )
        return max(0.0, min(1.0, 1.0 - stalled / busy))

    def drain(self) -> float:
        """Barrier: advance the clock past every in-flight op and retire
        the queue.  Benchmarks call this before final accounting."""
        waited = self.transfers.drain()
        self.retire_due()
        return waited

    def close(self) -> None:
        """Retire the scheduler: drain every in-flight window, and count
        buffered speculation as waste, since nothing can consume it."""
        self.drain()
        for sid in list(self._speculative):
            self.invalidate(sid, "closed")

    # -- demand fetch ------------------------------------------------------

    def acquire(
        self,
        sid: Sid,
        location: Any,
        holders: List[Any],
        root_span: Any,
    ) -> Tuple[
        Optional[str], str, int, List[str], Optional[Exception], List[Any]
    ]:
        """Resolve a faulting cluster's payload as scheduled FETCH ops.

        Returns ``(xml_text, source_device_id, attempt_index,
        fetch_errors, corrupt, corrupt_holders)`` with exactly the
        semantics of the legacy holder loop (corrupt copies quarantined,
        transport errors collected for the failure message).  The global
        clock advances only by the *residual* stall: demand transfer
        time not hidden behind already-elapsed time, or ~0 when a
        speculative fetch already landed the payload.
        """
        manager = self.manager
        clock = self.clock
        now = clock.now()
        self.prefetcher.record_fault(sid)

        hit = self._consume_speculative(sid, location)
        if hit is not None:
            self._issue_prefetches(sid, horizon=hit.complete_s)
            stall = max(0.0, hit.complete_s - clock.now())
            if stall > 0.0:
                clock.advance(stall)
            self.stats.prefetch_hits += 1
            self.stats.hit_stall_s += stall
            self.stats.stall_saved_s += max(0.0, hit.busy_s - stall)
            root_span.set_tag("sched", "prefetch-hit")
            self._apply_backpressure()
            self.retire_due()
            return hit.payload, hit.device_id, 0, [], None, []

        op = self._new_op(SwapOpKind.FETCH, sid, key=location.key)
        fetch_errors: List[str] = []
        corrupt: Optional[Exception] = None
        corrupt_holders: List[Any] = []
        not_before = now
        text: Optional[str] = None
        source = ""
        used_index = 0
        complete = now
        if len(holders) > 1:
            # a demand miss should dodge radios clogged by in-flight
            # ships/speculation: try the replica whose link frees first
            # (stable on the original order, so seeded runs stay
            # deterministic and failover accounting keeps meaning)
            holders = [
                holder for _key, _idx, holder in sorted(
                    (
                        self.transfers.link_free_at(
                            getattr(holder, "_link", None)
                        ),
                        index,
                        holder,
                    )
                    for index, holder in enumerate(holders)
                )
            ]
        for attempt_index, holder in enumerate(holders):
            link = getattr(holder, "_link", None)
            # demand always wins the radio: abort any speculative
            # transfer still occupying this holder's link so the real
            # fetch starts as early as physics allows
            self._preempt_speculation(link)
            with self.transfers.channel(link, not_before=not_before) as slot:
                candidate, error, corrupt_exc = manager._fetch_one(
                    holder, location, sid
                )
            op.attempts += 1
            op.busy_s += slot.duration_s
            not_before = max(not_before, slot.end_s)
            complete = slot.end_s
            if candidate is None:
                op.failovers += 1
                fetch_errors.append(error)
                if corrupt_exc is not None:
                    corrupt = corrupt_exc
                    corrupt_holders.append(holder)
                continue
            text = candidate
            source = holder.device_id
            used_index = attempt_index
            op.device_id = source
            break
        op.start_s = now
        op.complete_s = complete
        if text is None:
            op.state = SwapOpState.FAILED
            op.error = "; ".join(fetch_errors) or "no holders"
            # the failed attempts really elapsed: simulated reality must
            # reflect them before the caller raises
            stall = max(0.0, complete - clock.now())
            if stall > 0.0:
                clock.advance(stall)
            self.retire_due()
            return None, "", 0, fetch_errors, corrupt, corrupt_holders
        # speculate on the *next* clusters while this fetch is still in
        # flight — issued at fault time, they overlap with the demand
        # transfer on other channels/links
        self._issue_prefetches(sid, horizon=complete)
        root_span.set_tag("sched", "demand")
        stall = max(0.0, complete - clock.now())
        if stall > 0.0:
            clock.advance(stall)
        self.stats.demand_fetches += 1
        self.stats.demand_stall_s += stall
        self.stats.stall_saved_s += max(0.0, op.busy_s - stall)
        self._enqueue(op)
        self._apply_backpressure()
        self.retire_due()
        return text, source, used_index, fetch_errors, corrupt, corrupt_holders

    def _apply_backpressure(self) -> float:
        """Hold the fault until a transfer channel is idle (flow control).

        Bounds how much deferred I/O the app can have outstanding.
        Without it the app races ahead during prefetch-hit streaks while
        every fault enqueues deferred ships/drops, and the accumulated
        link debt lands, in one lump, on whichever fault finally misses
        — a fat stall tail (and unbounded payload buffering).  The
        pacing wait is charged to the fault that incurred it; no-op when
        a channel is already free.
        """
        pace = self.transfers.next_channel_free() - self.clock.now()
        if pace <= 0.0:
            return 0.0
        self.clock.advance(pace)
        self.stats.backpressure_stall_s += pace
        return pace

    # -- speculation -------------------------------------------------------

    def _preempt_speculation(self, link: Any) -> None:
        """Cancel in-flight speculative transfers clogging ``link``.

        Completed speculation (payload already landed) is never touched;
        only windows whose tail the scheduler can still reclaim are
        aborted — the payload is lost mid-transfer, the radio frees at
        the cut, and the op retires CANCELLED/"preempted".
        """
        if link is None:
            return
        now = self.clock.now()
        for sid in list(self._spec_slots):
            spec_link, slot = self._spec_slots[sid]
            if slot.end_s <= now:
                continue  # landed: the buffered payload is good
            underlying = self.transfers._underlying
            if underlying(spec_link) is not underlying(link):
                continue
            if self.transfers.cancel_remainder(spec_link, slot, now) <= 0.0:
                continue
            self._spec_slots.pop(sid, None)
            op = self._speculative.pop(sid, None)
            if op is not None:
                op.state = SwapOpState.CANCELLED
                op.error = "preempted"
                op.payload = None
                op.complete_s = now
            self.stats.prefetch_preempted += 1

    def _consume_speculative(
        self, sid: Sid, location: Any
    ) -> Optional[SwapOp]:
        op = self._speculative.pop(sid, None)
        self._spec_slots.pop(sid, None)
        if op is None:
            return None
        if op.payload is None or op.key != location.key:
            # failed in flight, or the cluster re-swapped under a new
            # epoch since the speculation was issued: useless buffer
            op.state = SwapOpState.CANCELLED
            self.stats.prefetch_waste += 1
            return None
        op.state = SwapOpState.DONE
        return op

    def _issue_prefetches(
        self, sid: Sid, horizon: Optional[float] = None
    ) -> None:
        """Speculate on likely-next clusters after a fault on ``sid``.

        ``horizon`` is the demand op's completion time: a channel counts
        as idle if it frees up anywhere inside the stall window the app
        is already paying for (with zero-cost compute, *every* channel
        is briefly booked at the fault instant — gating on the bare
        ``now`` would starve speculation entirely).
        """
        if not self.config.prefetch:
            return
        manager = self.manager
        ladder = manager.ladder
        if (
            ladder is not None
            and int(ladder.rung) >= self.config.prefetch_pressure_limit
        ):
            # the degrade ladder always wins: no new speculation, and
            # whatever is buffered goes back to the allocator
            self.shed_speculative("pressure")
            return
        space = manager._space
        when = self.clock.now() if horizon is None else horizon
        for target in self.prefetcher.predict(
            sid, self.config.prefetch_depth
        ):
            if target in self._speculative or target in manager._loading:
                continue
            cluster = space._clusters.get(target)
            if (
                cluster is None
                or not cluster.is_swapped
                or cluster.location is None
            ):
                continue
            holders = manager._bindings.get(target) or []
            if not holders:
                continue
            if not self.transfers.idle_channel_at(when):
                break  # speculation only rides idle channels
            self._prefetch_one(cluster, holders, when)

    def _prefetch_one(
        self, cluster: Any, holders: List[Any], when: float
    ) -> None:
        manager = self.manager
        location = cluster.location
        if manager.resilience is not None and len(holders) > 1:
            holders = manager.resilience.rank_replicas(holders)
        # least-loaded link first among the ranked replicas (the first
        # ranked on ties), so the speculative transfer lands on an idle
        # radio when one exists
        link_free_at = self.transfers.link_free_at
        holder = holders[0]
        link = getattr(holder, "_link", None)
        free_at = link_free_at(link)
        for other in holders[1:]:
            other_link = getattr(other, "_link", None)
            other_free = link_free_at(other_link)
            if other_free < free_at:
                holder, link, free_at = other, other_link, other_free
        if free_at > when:
            # even the least-loaded replica's radio is booked past the
            # stall window: queuing speculation behind that backlog
            # would delay the next demand fetch or ship on the link —
            # the exact tail inflation this scheduler exists to remove
            return
        if len(self._speculative) >= self.config.max_speculative:
            # the buffer is full of older speculation: demote the stalest
            # entry rather than starve fresh predictions (a pinned-full
            # buffer of far-future targets would stop all prefetching for
            # the likely-next clusters).  Only here, once this fetch is
            # sure to be booked: a prediction that never issues must not
            # cost a good payload.
            oldest = min(
                self._speculative, key=lambda s: self._speculative[s].seq
            )
            demoted = self._speculative.pop(oldest)
            demoted.state = SwapOpState.CANCELLED
            demoted.error = "demoted"
            demoted.payload = None
            self._cancel_slot(oldest)
            self.stats.prefetch_demoted += 1
        op = self._new_op(
            SwapOpKind.FETCH, cluster.sid, location.key, holder.device_id, True
        )
        self.stats.prefetch_issued += 1
        text: Optional[str] = None
        with manager._obs_span(
            "sched.prefetch", sid=cluster.sid, device=holder.device_id
        ):
            # start no earlier than the stall window's end: the window
            # itself belongs to demand traffic, and a speculative
            # transfer pushed past it delays the link by at most one
            # payload before the radio is contended again
            with self.transfers.channel(link, when) as slot:
                try:
                    candidate = holder.fetch(location.key)
                except (TransportError, UnknownKeyError) as exc:
                    op.error = str(exc)
                else:
                    if verify_payload(candidate, location.digest):
                        text = candidate
                    else:
                        op.error = "digest mismatch"
        op.attempts = 1
        op.start_s = slot.start_s
        op.complete_s = slot.end_s
        op.busy_s = slot.duration_s
        if text is None:
            # speculation gets no retry loop: a miss costs nothing but
            # the channel window it burned
            op.state = SwapOpState.FAILED
            self.stats.prefetch_failed += 1
            return
        op.payload = text
        self._speculative[cluster.sid] = op
        self._spec_slots[cluster.sid] = (link, slot)
        self._enqueue(op)

    def _cancel_slot(self, sid: Sid) -> None:
        """Give an abandoned speculative booking's remaining link time
        back to the scheduler (no-op when it already completed)."""
        entry = self._spec_slots.pop(sid, None)
        if entry is None:
            return
        link, slot = entry
        if slot.end_s > self.clock.now():
            self.transfers.cancel_remainder(link, slot, self.clock.now())

    def invalidate(self, sid: Sid, reason: str = "invalidated") -> None:
        """Drop a buffered speculative payload (the cluster re-swapped,
        was dropped, or its epoch moved): it can never be consumed."""
        op = self._speculative.pop(sid, None)
        if op is not None:
            op.state = SwapOpState.CANCELLED
            op.error = reason
            self._cancel_slot(sid)
            self.stats.prefetch_waste += 1

    def shed_speculative(self, reason: str = "pressure") -> int:
        """Cancel every buffered speculative payload; returns the count.

        Called when pressure rises — speculative buffers are the first
        thing the degrade ladder reclaims, and any still-transmitting
        window is aborted so the radios free up too.
        """
        shed = len(self._speculative)
        for sid, op in list(self._speculative.items()):
            op.state = SwapOpState.CANCELLED
            op.error = reason
            op.payload = None
            self._cancel_slot(sid)
        self._speculative.clear()
        self.stats.prefetch_cancelled += shed
        return shed

    def on_cluster_collected(self, sid: Sid) -> None:
        """Collector hook: a dropped cluster leaves the prediction tables."""
        self.prefetcher.forget(sid)

    def on_pressure(self, rung: int) -> None:
        """Ladder hook: at/above the configured rung, speculation yields."""
        if rung >= self.config.prefetch_pressure_limit:
            self.shed_speculative("pressure")

    # -- write-back --------------------------------------------------------

    def ship_channel(self, holder: Any, kind: str = "ship") -> "_ShipWindow":
        """A scheduled window for one victim/mirror ship.

        A ship that raises is marked FAILED and re-raised unchanged —
        the caller's failover logic is none the wiser.
        """
        return _ShipWindow(self, holder, kind)

    def defer_drops(
        self, sid: Sid, keys: List[str], holders: List[Any]
    ) -> None:
        """Schedule post-reload stale-copy drops as INVALIDATE ops.

        After a successful reload the remote copies are dead weight
        (epochs prevent reuse) — but the blocking path pays one control
        round-trip per replica *on the fault*, which on slow radios
        dwarfs the fetch itself.  Here each drop rides a transfer
        channel: per-link busy windows still serialize it against any
        in-flight fetch from the same store, the faulting thread never
        waits.
        """
        channel = self.transfers.channel
        links = [getattr(holder, "_link", None) for holder in holders]
        for key in keys:
            for holder, link in zip(holders, links):
                op = self._new_op(
                    SwapOpKind.INVALIDATE, sid, key, holder.device_id
                )
                op.attempts = 1
                with channel(link) as slot:
                    try:
                        holder.drop(key)
                    except (TransportError, UnknownKeyError) as exc:
                        op.error = str(exc)
                op.start_s = slot.start_s
                op.complete_s = slot.end_s
                op.busy_s = slot.duration_s
                if op.error is not None:
                    # unreachable device: the copy is orphaned, by design
                    op.state = SwapOpState.FAILED
                    continue
                self.stats.stale_drops += 1
                self._enqueue(op)
        self.retire_due()

    # -- reload ------------------------------------------------------------

    def note_reload(self, sid: Sid) -> None:
        """Record the RELOAD-VERIFY stage (decode + install + proxy
        patch) as an instant op.  Pure CPU: zero simulated cost, so it
        completes at the current instant and would retire in the same
        call — it is counted (issued, reloads, queue depth) without
        building or queueing an op."""
        self._seq += 1
        stats = self.stats
        stats.ops_issued += 1
        stats.reloads += 1
        # the queue depth the op would have reached for that instant
        stats.max_queue_depth = max(stats.max_queue_depth, len(self.queue) + 1)
        self.retire_due()


class _ShipWindow:
    """:meth:`AsyncSwapScheduler.ship_channel` as a context manager: a
    SHIP/DELTA-SHIP op booked on a transfer channel for the body."""

    __slots__ = ("_sched", "_holder", "_kind", "_op", "_booking", "_slot")

    def __init__(self, sched: AsyncSwapScheduler, holder: Any, kind: str) -> None:
        self._sched = sched
        self._holder = holder
        self._kind = kind

    def __enter__(self) -> None:
        sched = self._sched
        holder = self._holder
        self._op = sched._new_op(
            SwapOpKind.DELTA_SHIP if self._kind == "delta" else SwapOpKind.SHIP,
            -1,
            "",
            holder.device_id,
        )
        self._booking = booking = sched.transfers.channel(
            getattr(holder, "_link", None)
        )
        self._slot = booking.__enter__()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._booking.__exit__(exc_type, exc, tb)
        slot = self._slot
        op = self._op
        op.start_s = slot.start_s
        op.complete_s = slot.end_s
        op.busy_s = slot.duration_s
        if exc_type is not None:
            op.state = SwapOpState.FAILED
            return
        sched = self._sched
        sched.stats.writebacks += 1
        sched._enqueue(op)
        sched.retire_due()
