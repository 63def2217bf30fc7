"""Channel booking against the generator reference, in lockstep.

Two identical worlds — a clock, three simulated radios (one behind a
:class:`~repro.faults.FlakyLink` that drops frames, one reachable both
bare and through a second wrapper), a loopback link and no link at all —
run the same random booking sequence.  One books through the library's
``TransferScheduler.channel`` and ``AsyncSwapScheduler.ship_channel``;
the other through the generator reference in ``pipeline_reference``.
Bodies transfer, raise, and open nested channels; ``not_before`` delays
windows, the clock advances, drains barrier, and ``cancel_remainder``
cuts earlier windows at random instants.  After every step the worlds
must agree on every slot, ``_channel_free``, ``_link_free``, the
pipeline and scheduler statistics, the op queue and every link's stats.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace
from typing import Any, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimulatedClock
from repro.comm.transport import LoopbackLink, SimulatedLink
from repro.core.sched import AsyncSchedConfig, AsyncSwapScheduler
from repro.faults import FaultInjector, FaultPlan, FlakyLink
from tests.comm.pipeline_reference import (
    ReferenceTransferScheduler,
    reference_ship_channel,
)


class Boom(Exception):
    """A body failure that is not a transport error."""


class World:
    def __init__(self, reference: bool, channels: int) -> None:
        clock = self.clock = SimulatedClock()
        injector = self.injector = FaultInjector(
            FaultPlan(seed=3, link_failure_rate=0.25), clock=clock
        )
        self.links = [
            SimulatedLink(
                8000 * (index + 1),
                latency_s=0.01 * index,
                clock=clock,
                name=f"l{index}",
            )
            for index in range(3)
        ]
        self.wires: List[Any] = [
            self.links[0],
            FlakyLink(self.links[1], injector),
            self.links[2],
            FlakyLink(FlakyLink(self.links[0], injector), injector),
            LoopbackLink(),
            None,
        ]
        self.holders = [
            SimpleNamespace(device_id=f"h{index}", _link=wire)
            for index, wire in enumerate(self.wires)
        ]
        manager = SimpleNamespace(_space=SimpleNamespace(clock=clock))
        self.sched = AsyncSwapScheduler(
            manager, AsyncSchedConfig(channels=channels, prefetch=False)
        )
        if reference:
            self.sched.transfers = ReferenceTransferScheduler(clock, channels)
        self.reference = reference
        self.transfers = self.sched.transfers
        self.bookings: List[Tuple[Any, Any]] = []

    def body(self, wire: Any, plan: Tuple[int, int, bool, Optional[Tuple]]) -> None:
        sends, nbytes, fail, nested = plan
        for _ in range(sends):
            if wire is not None:
                wire.transfer(nbytes)
        if nested is not None:
            inner_index, inner_plan = nested
            self.book(inner_index, None, inner_plan)
        if fail:
            raise Boom("body failed")

    def book(self, index: int, not_before: Optional[float], plan: Tuple) -> None:
        wire = self.wires[index]
        kwargs = {} if not_before is None else {
            "not_before": self.clock.now() + not_before
        }
        with self.transfers.channel(wire, **kwargs) as slot:
            self.bookings.append((wire, slot))
            self.body(wire, plan)

    def ship(self, index: int, kind: str, plan: Tuple) -> None:
        holder = self.holders[index]
        if self.reference:
            window = reference_ship_channel(self.sched, holder, kind)
        else:
            window = self.sched.ship_channel(holder, kind)
        with window:
            self.body(holder._link, plan)

    def cancel(self, which: int, offset: float) -> float:
        if not self.bookings:
            return -1.0
        wire, slot = self.bookings[which % len(self.bookings)]
        return self.transfers.cancel_remainder(
            wire, slot, self.clock.now() + offset
        )

    def step(self, action: Tuple) -> Any:
        name, *args = action
        try:
            if name == "book":
                self.book(*args)
            elif name == "ship":
                self.ship(*args)
            elif name == "cancel":
                return ("refund", self.cancel(*args))
            elif name == "advance":
                self.clock.advance(args[0])
            else:
                return ("waited", self.sched.drain())
        except Exception as exc:  # noqa: BLE001 - compared across worlds
            return ("raised", type(exc).__name__, str(exc))
        return None

    def state(self) -> dict:
        transfers = self.transfers
        names = {id(link): link.name for link in self.links}
        queue = sorted(
            (when, seq, dataclasses.astuple(op))
            for when, seq, op in self.sched.queue._heap
        )
        return {
            "now": self.clock.now(),
            "clocks_restored": [link.clock is self.clock for link in self.links],
            "channel_free": list(transfers._channel_free),
            "link_free": {
                names[key]: value for key, value in transfers._link_free.items()
            },
            "pipeline": dataclasses.asdict(transfers.stats),
            "sched": dataclasses.asdict(self.sched.stats),
            "queue": queue,
            "links": [dataclasses.asdict(link.stats) for link in self.links],
            "faults": dataclasses.asdict(self.injector.stats),
            "slots": [
                (slot.start_s, slot.end_s, slot.failed, slot.channel_index,
                 slot.duration_s)
                for _wire, slot in self.bookings
            ],
            "probes": [
                transfers.link_free_at(wire) for wire in self.wires
            ] + [
                transfers.idle_channel_at(self.clock.now()),
                transfers.next_channel_free(),
                transfers.in_flight(),
            ],
        }


_wire = st.integers(min_value=0, max_value=5)
_offset = st.floats(min_value=-1.0, max_value=3.0, allow_nan=False)
_leaf = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3000),
    st.booleans(),
    st.none(),
)
_plan = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3000),
    st.booleans(),
    st.none() | st.tuples(_wire, _leaf),
)
_action = st.one_of(
    st.tuples(st.just("book"), _wire, st.none() | _offset, _plan),
    st.tuples(st.just("ship"), _wire, st.sampled_from(["ship", "delta"]), _plan),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50), _offset),
    st.tuples(
        st.just("advance"),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    ),
    st.tuples(st.just("drain")),
)


@settings(max_examples=200, deadline=None)
@given(
    channels=st.integers(min_value=1, max_value=4),
    actions=st.lists(_action, max_size=40),
)
def test_booking_matches_the_generator_reference(channels, actions):
    library, reference = World(False, channels), World(True, channels)
    assert library.state() == reference.state()
    for action in actions:
        assert library.step(action) == reference.step(action), action
        assert library.state() == reference.state(), action
