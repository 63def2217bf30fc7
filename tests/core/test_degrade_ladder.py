"""Degrade ladder: rung transitions, per-rung routing, emergency kills."""

import random

import pytest

from repro import Space, managed
from repro.clock import SimulatedClock
from repro.core.degrade import (
    DegradeLadderConfig,
    DegradeRung,
    StallTracker,
)
from repro.core.fastpath import FastPathConfig
from repro.policy.victims import select_lru
from repro.devices import InMemoryStore
from repro.errors import IntegrityError
from repro.policy.pressure import classify
from tests.helpers import build_chain, chain_values, make_space

NOMINAL = classify(0.9, 1.0, 0.0)
ELEVATED = classify(0.25, 1.0, 0.0)
HIGH = classify(0.10, 1.0, 0.0)
CRITICAL = classify(0.01, 1.0, 0.0)


@managed(size=512)
class Payload:
    """Fixed accounted size with an arbitrary-entropy body."""

    def __init__(self, body: str = "") -> None:
        self.body = body
        self.next = None

    def get_body(self) -> str:
        return self.body

    def get_next(self):
        return self.next


def _payload_chain(count, body_chars, rng):
    head = Payload("".join(rng.choice("0123456789abcdef")
                           for _ in range(body_chars)))
    node = head
    for _ in range(count - 1):
        node.next = Payload("".join(rng.choice("0123456789abcdef")
                                    for _ in range(body_chars)))
        node = node.next
    return head


# -- StallTracker ----------------------------------------------------------


def test_stall_tracker_p95_is_the_95th_percentile():
    tracker = StallTracker()
    for value in range(1, 101):
        tracker.record(float(value))
    assert tracker.p95() == 95.0
    assert tracker.max_s == 100.0
    assert tracker.mean() == pytest.approx(50.5)


def test_stall_tracker_empty_and_single_sample():
    tracker = StallTracker()
    assert tracker.p95() == 0.0
    tracker.record(3.0)
    assert tracker.p95() == 3.0


def test_stall_tracker_filters_by_priority():
    tracker = StallTracker()
    tracker.record(10.0, priority=0)
    tracker.record(1.0, priority=2)
    assert tracker.p95(min_priority=2) == 1.0
    assert tracker.p95() == 10.0


def test_stall_tracker_is_bounded():
    tracker = StallTracker(cap=4)
    for value in range(10):
        tracker.record(float(value))
    assert len(tracker.samples()) == 4
    assert tracker.count == 10  # totals keep counting past the cap


# -- rung transitions ------------------------------------------------------


def _ladder_space():
    clock = SimulatedClock()
    space = Space("ladder", heap_capacity=1 << 20, clock=clock)
    space.manager.add_store(InMemoryStore("ladder-store"))
    ladder = space.manager.enable_degrade_ladder(DegradeLadderConfig())
    return space, ladder, clock


def test_escalation_is_immediate():
    space, ladder, clock = _ladder_space()
    ladder.assess = lambda: CRITICAL
    assert ladder.update() is DegradeRung.EMERGENCY
    assert ladder.transitions == [(0.0, 0, 3)]
    assert space.manager.stats.ladder_escalations == 1


def test_deescalation_is_hysteretic_one_rung_per_hold():
    space, ladder, clock = _ladder_space()
    ladder.assess = lambda: CRITICAL
    ladder.update()
    ladder.assess = lambda: NOMINAL

    assert ladder.update() is DegradeRung.EMERGENCY  # starts the timer
    clock.advance(ladder.config.hold_s - 0.1)
    assert ladder.update() is DegradeRung.EMERGENCY  # not held long enough
    clock.advance(0.2)
    assert ladder.update() is DegradeRung.DROP_CLEAN  # one rung, not all
    clock.advance(ladder.config.hold_s)
    assert ladder.update() is DegradeRung.COMPRESS_LOCAL
    clock.advance(ladder.config.hold_s)
    assert ladder.update() is DegradeRung.NORMAL
    clock.advance(ladder.config.hold_s)
    assert ladder.update() is DegradeRung.NORMAL  # fully reversible, stays
    assert space.manager.stats.ladder_deescalations == 3


def test_rising_pressure_restarts_the_hold_timer():
    space, ladder, clock = _ladder_space()
    ladder.assess = lambda: HIGH
    ladder.update()
    ladder.assess = lambda: NOMINAL
    ladder.update()
    clock.advance(ladder.config.hold_s - 0.1)
    ladder.assess = lambda: HIGH  # pressure came back mid-hold
    assert ladder.update() is DegradeRung.DROP_CLEAN
    ladder.assess = lambda: NOMINAL
    clock.advance(0.2)
    # the old timer must not carry over: 0.2s below is not hold_s
    assert ladder.update() is DegradeRung.DROP_CLEAN


def test_force_emergency_overrides_the_signal():
    space, ladder, clock = _ladder_space()
    ladder.assess = lambda: NOMINAL
    ladder.update()
    ladder.force_emergency("victim loop failed")
    assert ladder.rung is DegradeRung.EMERGENCY
    escalations = space.manager.stats.ladder_escalations
    ladder.force_emergency("again")  # already there: no double count
    assert space.manager.stats.ladder_escalations == escalations
    # normal hysteretic recovery still applies
    ladder.update()
    clock.advance(ladder.config.hold_s)
    assert ladder.update() is DegradeRung.DROP_CLEAN


# -- per-rung routing ------------------------------------------------------


def test_drop_clean_rung_skips_contains_probes():
    space = make_space("dropclean")
    space.manager.enable_fastpath(FastPathConfig())
    ladder = space.manager.enable_degrade_ladder(DegradeLadderConfig())
    space.ingest(build_chain(6), cluster_size=6, root_name="t")
    space.swap_out(1)
    space.swap_in(1)  # clean, cached, with a retained holder

    store = space.manager._stores[0]
    probes = []
    original = store.contains
    store.contains = lambda key: probes.append(key) or original(key)

    ladder.assess = lambda: HIGH  # DROP_CLEAN
    space.swap_out(1)
    assert space.manager.stats.ladder_drop_clean == 1
    assert probes == []  # the ledger's word, zero control traffic

    space.swap_in(1)
    ladder.assess = lambda: NOMINAL
    ladder.rung = DegradeRung.NORMAL  # skip the hysteresis hold
    space.swap_out(1)  # back at NORMAL the probe path returns
    assert space.manager.stats.fastpath_noops == 1
    assert len(probes) == 1


def test_compress_local_needs_no_store_and_reverses():
    clock = SimulatedClock()
    space = Space("pool-only", heap_capacity=1 << 20, clock=clock)
    ladder = space.manager.enable_degrade_ladder(DegradeLadderConfig())
    handle = space.ingest(build_chain(8), cluster_size=8, root_name="t")
    ladder.assess = lambda: ELEVATED

    location = space.swap_out(1)
    assert space.manager.stats.ladder_compress_local == 1
    assert location.device_id == ladder.fallback_store().device_id

    space.swap_in(1)  # CPU-only round trip, zero link traffic
    assert chain_values(handle) == list(range(8))
    space.verify_integrity()


def test_compress_local_displaces_the_victim_on_a_full_heap():
    # free heap (64 bytes) is far below any compressed payload: without
    # the zswap-style displacement of the victim's own accounting the
    # pool allocation must fail.  The random-hex bodies keep zlib from
    # shrinking the payload under the free space.
    rng = random.Random(7)
    head = _payload_chain(6, 400, rng)
    space = Space("tight", heap_capacity=6 * 512 + 64)
    space.manager.auto_swap = False
    ladder = space.manager.enable_degrade_ladder(
        DegradeLadderConfig(fallback_pool_fraction=1.0)
    )
    space.ingest(head, cluster_size=6, root_name="t")
    assert space.heap.capacity - space.heap.used == 64
    ladder.assess = lambda: ELEVATED

    location = space.swap_out(1)
    assert space.manager.stats.ladder_compress_local == 1
    assert location.device_id == ladder.fallback_store().device_id
    assert space.heap.used < 6 * 512  # compressed residue, not the victim


# -- emergency rung --------------------------------------------------------


def test_emergency_evict_kills_idle_before_foreground():
    space = Space("oom", heap_capacity=8 << 10)
    space.manager.auto_swap = False
    space.manager.enable_degrade_ladder(DegradeLadderConfig())
    fg = space.ingest(build_chain(6, Payload), cluster_size=6, root_name="fg")
    idle = space.ingest(
        build_chain(6, Payload), cluster_size=6, root_name="idle"
    )
    space.set_priority(fg, 2)
    space.set_priority(idle, 0)

    freed = space.manager._emergency_evict(4 << 10)
    assert freed >= 6 * 512
    assert space.manager.stats.oom_kills == 1
    assert fg.get_body() == 0  # foreground untouched
    with pytest.raises(IntegrityError):
        idle.get_body()  # tombstoned: the app-relaunch signal


def test_emergency_evict_refuses_to_kill_the_last_foreground():
    space = Space("oom-fg", heap_capacity=8 << 10)
    space.manager.auto_swap = False
    space.manager.enable_degrade_ladder(DegradeLadderConfig())
    fg = space.ingest(build_chain(6, Payload), cluster_size=6, root_name="fg")
    space.set_priority(fg, 2)

    assert space.manager._emergency_evict(1 << 20) == 0
    assert space.manager.stats.oom_kills == 0
    assert fg.get_body() == 0  # stays full rather than kill foreground


def test_unprotected_ladder_does_kill_foreground():
    space = Space("oom-unprot", heap_capacity=8 << 10)
    space.manager.auto_swap = False
    space.manager.enable_degrade_ladder(
        DegradeLadderConfig(protect_foreground=False)
    )
    fg = space.ingest(build_chain(6, Payload), cluster_size=6, root_name="fg")
    space.set_priority(fg, 2)

    assert space.manager._emergency_evict(7 << 10) > 0
    with pytest.raises(IntegrityError):
        fg.get_body()


# -- enable/disable --------------------------------------------------------


def test_disable_restores_the_default_victim_selector():
    space = make_space("toggle")
    assert space.manager.victim_selector is select_lru
    space.manager.enable_degrade_ladder(DegradeLadderConfig())
    assert space.manager.victim_selector is not select_lru
    space.manager.disable_degrade_ladder()
    assert space.manager.ladder is None
    assert space.manager.victim_selector is select_lru


def test_enable_without_selector_keeps_the_current_one():
    space = make_space("keep")
    space.manager.enable_degrade_ladder(
        DegradeLadderConfig(install_selector=False)
    )
    assert space.manager.victim_selector is select_lru
