"""Deterministic op completion ordering: CompletionQueue and the bus.

The async scheduler retires completions from a clock-ordered heap keyed
``(complete_s, seq)``.  The explicit sequence number is what keeps
seeded runs byte-identical: two ops landing at the same simulated
instant must retire in issue order no matter how they were pushed, and
the event stream a workload emits must not depend on heap internals.
"""

from __future__ import annotations

from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.sched import CompletionQueue, SwapOp, SwapOpKind, SwapOpState
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from tests.helpers import build_chain, chain_values


def _op(seq: int, complete_s: float) -> SwapOp:
    return SwapOp(
        seq=seq, kind=SwapOpKind.FETCH, sid=seq, complete_s=complete_s
    )


# -- CompletionQueue ordering ----------------------------------------------


def test_retires_by_completion_time_then_sequence():
    queue = CompletionQueue()
    queue.push(_op(3, 2.0))
    queue.push(_op(1, 1.0))
    queue.push(_op(2, 2.0))
    order = [(op.complete_s, op.seq) for op in queue.pop_due(5.0)]
    assert order == [(1.0, 1), (2.0, 2), (2.0, 3)]


def test_equal_time_ops_retire_in_issue_order_regardless_of_push_order():
    # same instant, pushed backwards, forwards, and shuffled: the seq
    # tie-break must win every time
    for push_order in ([5, 4, 3, 2, 1], [1, 2, 3, 4, 5], [3, 1, 5, 2, 4]):
        queue = CompletionQueue()
        for seq in push_order:
            queue.push(_op(seq, 7.5))
        assert [op.seq for op in queue.pop_due(7.5)] == [1, 2, 3, 4, 5]


def test_pop_due_respects_the_now_boundary():
    queue = CompletionQueue()
    queue.push(_op(1, 1.0))
    queue.push(_op(2, 2.0))
    queue.push(_op(3, 3.0))
    assert queue.peek_time() == 1.0
    assert [op.seq for op in queue.pop_due(2.0)] == [1, 2]  # <= now, not <
    assert len(queue) == 1
    assert queue.peek_time() == 3.0
    assert queue.pop_due(2.5) == []
    assert [op.seq for op in queue.pop_due(3.0)] == [3]
    assert queue.peek_time() is None


def test_retire_due_promotes_in_flight_ops_and_spares_terminal_ones():
    from repro.core.sched import AsyncSchedConfig, AsyncSwapScheduler

    clock = SimulatedClock()
    space = Space("retire", heap_capacity=1 << 20, clock=clock)
    sched = AsyncSwapScheduler(space.manager, AsyncSchedConfig(channels=2))
    in_flight = _op(1, 0.0)
    in_flight.state = SwapOpState.IN_FLIGHT
    failed = _op(2, 0.0)
    failed.state = SwapOpState.FAILED
    sched.queue.push(in_flight)
    sched.queue.push(failed)
    done = sched.retire_due()
    assert done == [in_flight, failed]
    assert in_flight.state is SwapOpState.DONE
    # a FAILED op keeps its terminal state through retirement
    assert failed.state is SwapOpState.FAILED


def test_reload_counts_as_an_instant_op_on_the_queue():
    from repro.core.sched import AsyncSchedConfig, AsyncSwapScheduler

    clock = SimulatedClock()
    space = Space("reload", heap_capacity=1 << 20, clock=clock)
    sched = AsyncSwapScheduler(space.manager, AsyncSchedConfig(channels=2))
    later = _op(1, 5.0)
    later.state = SwapOpState.IN_FLIGHT
    sched.queue.push(later)
    sched._seq = 1
    sched.note_reload(7)
    # issued, counted, and for its instant the queue held it beside the
    # op still in flight; then it retired at once
    assert (sched.stats.ops_issued, sched.stats.reloads) == (1, 1)
    assert sched.stats.max_queue_depth == 2
    assert sched._seq == 2
    assert sched.queue.pop_due(float("inf")) == [later]


# -- whole-workload determinism --------------------------------------------


def _walk_async(seed_stores: int = 3):
    """One seeded pointer walk under the async scheduler; returns the
    event-stream signature, final clock, and chain values."""
    clock = SimulatedClock()
    space = Space("det", heap_capacity=1 << 20, clock=clock)
    for index in range(seed_stores):
        link = bluetooth_link(clock, name=f"bt-{index}")
        space.manager.add_store(
            XmlStoreDevice(f"p-{index}", capacity=1 << 20, link=link)
        )
    events = []
    space.bus.subscribe_all(
        lambda event: events.append((type(event).__name__, event.describe()))
    )
    handle = space.ingest(build_chain(30), cluster_size=5, root_name="h")
    for sid, cluster in sorted(space._clusters.items()):
        if cluster.swappable() and cluster.oids:
            space.manager.swap_out(sid)
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    values = chain_values(handle)
    sched.drain()
    return events, clock.now(), values


def test_async_event_stream_is_identical_across_identical_runs():
    """Interleaved async completions must emit a reproducible stream."""
    first_events, first_clock, first_values = _walk_async()
    second_events, second_clock, second_values = _walk_async()
    assert first_values == second_values == list(range(30))
    assert first_clock == second_clock
    assert first_events == second_events
