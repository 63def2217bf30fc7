"""The pipelined transfer scheduler and the link-protocol regressions."""

import pytest

from repro.clock import SimulatedClock
from repro.comm.pipeline import PipelineStats, TransferScheduler
from repro.comm.transport import (
    FRAME_OVERHEAD_BYTES,
    LoopbackLink,
    SimulatedLink,
    bluetooth_link,
)
from repro.faults import FaultInjector, FaultPlan, FlakyLink


def _link(clock, name="l"):
    # 1000 bytes/s, no latency: transfer costs are easy to predict
    return SimulatedLink(8000, latency_s=0.0, clock=clock, name=name)


# -- concurrency model -----------------------------------------------------


def test_independent_links_overlap_on_separate_channels():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=2)
    a, b = _link(clock, "a"), _link(clock, "b")

    with scheduler.channel(a):
        a.transfer(1000)  # 1s of radio time
    with scheduler.channel(b):
        b.transfer(1000)  # overlaps the first on channel 2

    assert clock.now() == 0.0  # global time has not moved yet
    assert scheduler.in_flight()
    waited = scheduler.drain()
    assert waited == pytest.approx(1.0)  # concurrent, not 2.0 serial
    assert clock.now() == pytest.approx(1.0)
    assert scheduler.stats.transfers == 2
    assert scheduler.stats.serial_s == pytest.approx(2.0)
    assert scheduler.stats.pipelined_s == pytest.approx(1.0)
    assert scheduler.stats.saved_s == pytest.approx(1.0)
    assert scheduler.stats.barriers == 1


def test_same_physical_link_never_overlaps_itself():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=4)
    link = _link(clock)

    for _ in range(3):
        with scheduler.channel(link):
            link.transfer(1000)

    # one radio: three transfers serialize even across four channels
    assert scheduler.drain() == pytest.approx(3.0)


def test_fanout_wider_than_channels_queues():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=2)
    links = [_link(clock, f"l{i}") for i in range(4)]

    for link in links:
        with scheduler.channel(link):
            link.transfer(1000)

    # 4 one-second transfers on 2 channels: 2 serialized rounds
    assert scheduler.drain() == pytest.approx(2.0)


def test_transfers_restore_the_global_clock_and_keep_stats():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=2)
    link = _link(clock)
    with scheduler.channel(link):
        link.transfer(500)
    assert link.clock is clock  # shadow clock swapped back
    assert link.stats.transfers == 1  # link accounting untouched
    assert link.stats.bytes_carried == 500


def test_unmodelable_links_run_inline():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=2)
    loopback = LoopbackLink()
    with scheduler.channel(loopback):
        loopback.transfer(100)
    with scheduler.channel(None):
        pass
    assert scheduler.stats.transfers == 0  # nothing was scheduled
    assert not scheduler.in_flight()
    assert scheduler.drain() == 0.0
    assert scheduler.stats.barriers == 0


def test_flaky_wrappers_are_unwrapped_to_the_simulated_link():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=2)
    injector = FaultInjector(FaultPlan.empty(), clock=clock)
    flaky = FlakyLink(_link(clock), injector)
    with scheduler.channel(flaky):
        flaky.transfer(1000)
    assert clock.now() == 0.0
    assert scheduler.drain() == pytest.approx(1.0)


def test_nested_channels_run_the_inner_inline():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=2)
    link = _link(clock)
    with scheduler.channel(link):
        with scheduler.channel(link):  # link already on a shadow clock
            link.transfer(1000)
    assert scheduler.stats.transfers == 1  # scheduled once, not twice
    assert scheduler.drain() == pytest.approx(1.0)


def test_work_started_after_a_drain_schedules_from_the_new_now():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=1)
    link = _link(clock)
    with scheduler.channel(link):
        link.transfer(1000)
    scheduler.drain()
    with scheduler.channel(link):
        link.transfer(1000)
    assert scheduler.drain() == pytest.approx(1.0)
    assert clock.now() == pytest.approx(2.0)


def test_scheduler_rejects_zero_channels():
    with pytest.raises(ValueError):
        TransferScheduler(SimulatedClock(), channels=0)


def test_pipeline_stats_saved_never_negative():
    stats = PipelineStats(serial_s=1.0, pipelined_s=3.0)
    assert stats.saved_s == 0.0


# -- link protocol regressions --------------------------------------------


def test_empty_batch_is_free_on_the_simulated_link():
    clock = SimulatedClock()
    link = bluetooth_link(clock)
    assert link.batch_transfer_time([]) == 0.0
    assert link.transfer_batch([]) == 0.0
    # no connection was opened: no latency charged, no stats recorded
    assert clock.now() == 0.0
    assert link.stats.transfers == 0
    assert link.stats.bytes_carried == 0


def test_nonempty_batch_still_pays_latency_once():
    clock = SimulatedClock()
    link = bluetooth_link(clock)
    elapsed = link.transfer_batch([100, 100])
    assert elapsed == pytest.approx(link.latency_s + (200 + 2 * FRAME_OVERHEAD_BYTES) * 8 / link.bandwidth_bps)


def test_empty_batch_is_a_noop_on_loopback():
    link = LoopbackLink()
    assert link.transfer_batch([]) == 0.0
    assert link.stats.transfers == 0


def test_loopback_link_matches_the_simulated_link_protocol():
    link = LoopbackLink()
    seen = []
    link.on_transfer = lambda l, nbytes, elapsed: seen.append((nbytes, elapsed))
    link.transfer(100)
    link.transfer_batch([50, 50])
    assert link.stats.transfers == 2
    assert link.stats.frames == 3
    assert link.stats.bytes_carried == 200
    assert seen == [(100, 0.0), (100, 0.0)]


# -- mid-flight failure accounting -----------------------------------------


def test_failed_transfer_blocks_the_radio_but_counts_as_waste():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=2)
    link = _link(clock)

    with pytest.raises(RuntimeError):
        with scheduler.channel(link) as slot:
            link.transfer(1000)  # 1s of radio time spent before the crash
            raise RuntimeError("mid-flight failure")

    assert slot.failed
    assert slot.duration_s == pytest.approx(1.0)
    assert scheduler.stats.failed_transfers == 1
    assert scheduler.stats.failed_s == pytest.approx(1.0)
    assert scheduler.stats.serial_s == 0.0  # waste is not useful work
    # the radio really was busy: the next transfer on the same link
    # queues behind the doomed window
    with scheduler.channel(link):
        link.transfer(1000)
    assert scheduler.drain() == pytest.approx(2.0)


def test_failed_seconds_are_mirrored_and_excluded_from_saturation():
    from repro.policy.pressure import links_busy_seconds

    class _Store:
        def __init__(self, link):
            self.link = link

    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=2)
    link = _link(clock)
    store = _Store(link)

    with scheduler.channel(link):
        link.transfer(1000)  # 1s useful
    with pytest.raises(RuntimeError):
        with scheduler.channel(link):
            link.transfer(2000)  # 2s doomed
            raise RuntimeError("interrupted ship")

    assert link.stats.seconds_charged == pytest.approx(3.0)
    assert link.stats.seconds_failed == pytest.approx(2.0)
    # the saturation input sees only the useful second: counting the
    # doomed window and its retry would double-charge the link
    assert links_busy_seconds([store]) == pytest.approx(1.0)


# -- mid-flight cancellation (demand preempting speculation) ---------------


def test_cancel_remainder_refunds_the_unelapsed_tail():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=2)
    link = _link(clock)

    with scheduler.channel(link) as slot:
        link.transfer(4000)  # books [0, 4] on the radio
    refund = scheduler.cancel_remainder(link, slot, at=1.0)

    assert refund == pytest.approx(3.0)
    # the head of the window stays burnt (bytes cannot be unsent), the
    # tail goes back: the radio frees at the cut
    assert scheduler.link_free_at(link) == pytest.approx(1.0)
    assert scheduler.stats.cancelled_transfers == 1
    assert scheduler.stats.cancelled_s == pytest.approx(3.0)
    assert scheduler.stats.serial_s == pytest.approx(0.0)
    assert scheduler.stats.failed_s == pytest.approx(1.0)
    # burnt seconds read as failed on the link, so saturation inputs
    # exclude them like any interrupted ship
    assert link.stats.seconds_failed == pytest.approx(4.0)


def test_cancel_remainder_refuses_completed_windows():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=2)
    link = _link(clock)
    with scheduler.channel(link) as slot:
        link.transfer(1000)
    scheduler.drain()  # the transfer has fully elapsed
    assert scheduler.cancel_remainder(link, slot, at=clock.now()) == 0.0
    assert scheduler.stats.cancelled_transfers == 0


def test_cancel_remainder_refuses_windows_with_traffic_stacked_behind():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=1)
    link = _link(clock)
    with scheduler.channel(link) as first:
        link.transfer(2000)
    with scheduler.channel(link):
        link.transfer(2000)  # stacks behind the first on radio + channel
    # the first window can no longer be reclaimed: a later booking
    # already extends past its end
    assert scheduler.cancel_remainder(link, first, at=0.5) == 0.0
    assert scheduler.drain() == pytest.approx(4.0)


def test_cancel_remainder_ignores_unschedulable_links():
    clock = SimulatedClock()
    scheduler = TransferScheduler(clock, channels=2)
    loopback = LoopbackLink()
    with scheduler.channel(loopback) as slot:
        loopback.transfer(100)
    assert scheduler.cancel_remainder(loopback, slot, at=0.0) == 0.0
