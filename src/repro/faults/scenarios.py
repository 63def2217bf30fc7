"""Pressure and brownout scenarios: scripted bad days for a swapping space.

A :class:`ScenarioSpec` is pure data — world sizing, a phase script for
the workload driver, a :class:`~repro.faults.churn.ChurnPlan` for the
neighborhood, and the responsiveness SLO the run is scored against
(p95 fault-stall seconds, zero foreground OOM kills).  The library
covers the situations the degrade ladder (:mod:`repro.core.degrade`)
exists for:

* **app-switch storm** — focus hops across tasks faster than the heap
  can hold them; every hop faults the next task's working set in;
* **memory spike** — a foreground allocation burst lands on an already
  tight heap with the store fleet nearly full;
* **flash crowd** — new tasks keep arriving while the existing ones are
  still being served;
* **long idle, then burst** — the space cools down completely, the
  neighborhood browns out meanwhile, then everything is touched at once;
* **store-fleet brownout** — every nearby store stays reachable but
  crawls (latency up, bandwidth down, capacity squeezed) for a long
  window in the middle of a busy period.

The specs are interpreted by :mod:`repro.bench.scenarios`, which runs
each one twice — degrade ladder enabled vs. disabled — and scores both
against the SLO.  Everything here is deterministic: phases are fixed
scripts, churn is a fixed schedule, and the only randomness (payload
content, touch jitter) comes from the harness's seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.faults.churn import ChurnEvent, ChurnPlan

#: Store naming shared between spec builders and the harness.
def device_name(index: int) -> str:
    return f"store-{index}"


#: Touch patterns the workload driver understands.
TOUCH_PATTERNS = ("uniform", "foreground", "sweep")


@dataclass(frozen=True)
class ScenarioPhase:
    """One stretch of scripted workload behavior."""

    name: str
    #: Workload steps in this phase; each step advances the simulated
    #: clock by ``step_s`` and then performs ``touches_per_step``
    #: accesses following ``pattern``.
    steps: int
    step_s: float = 1.0
    touches_per_step: int = 0
    #: ``uniform`` round-robins all tasks; ``foreground`` concentrates
    #: on the foreground task with occasional background touches;
    #: ``sweep`` moves a focus window across tasks (app switching).
    pattern: str = "uniform"
    #: Objects in a transient foreground allocation made at phase start
    #: (0 = none).  The spike is dropped (and the space GC'd) at phase
    #: end when ``release_spike`` holds.
    spike_objects: int = 0
    release_spike: bool = True
    #: New background tasks ingested per step (flash crowd), each with
    #: ``arrival_objects`` objects.
    arrivals_per_step: int = 0
    arrival_objects: int = 0

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.step_s < 0:
            raise ValueError("step_s must be non-negative")
        if self.pattern not in TOUCH_PATTERNS:
            raise ValueError(
                f"unknown touch pattern {self.pattern!r}; "
                f"expected one of {TOUCH_PATTERNS}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete scenario: world sizing + phase script + churn + SLO."""

    name: str
    description: str
    phases: Tuple[ScenarioPhase, ...]
    churn: ChurnPlan = field(default_factory=ChurnPlan)
    #: Independent tasks (one swap-cluster each).  Task 0 is foreground;
    #: the last quarter are idle; the rest background.
    tasks: int = 8
    objects_per_task: int = 32
    #: Payload bytes per object (compressible text; the harness salts it
    #: with seeded noise so zlib sees realistic entropy).
    payload_bytes: int = 256
    heap_capacity: int = 96 << 10
    store_capacity: int = 256 << 10
    store_count: int = 4
    #: Fast-path payload-cache budget; kept below one cluster payload so
    #: the cache cannot mask link costs.
    cache_budget_bytes: int = 4 << 10
    #: The responsiveness SLO: p95 fault-stall seconds the run must stay
    #: within (plus zero foreground OOM kills).
    slo_p95_stall_s: float = 2.0

    def phase_named(self, name: str) -> ScenarioPhase:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(f"scenario {self.name!r} has no phase {name!r}")


def app_switch_storm() -> ScenarioSpec:
    """Focus hops across more tasks than the heap can hold."""
    return ScenarioSpec(
        name="app_switch_storm",
        description=(
            "rapid app switching: the focus sweeps across 8 tasks while "
            "the heap holds only a few working sets at a time"
        ),
        phases=(
            ScenarioPhase("warmup", steps=8, touches_per_step=8,
                          pattern="uniform"),
            ScenarioPhase("storm", steps=48, step_s=0.5, touches_per_step=6,
                          pattern="sweep"),
            ScenarioPhase("settle", steps=8, step_s=2.0, touches_per_step=2,
                          pattern="foreground"),
        ),
        heap_capacity=64 << 10,
        slo_p95_stall_s=2.0,
    )


def memory_spike() -> ScenarioSpec:
    """A foreground allocation burst on a tight heap and a full fleet."""
    return ScenarioSpec(
        name="memory_spike",
        description=(
            "a foreground burst allocates roughly a third of the heap "
            "while the stores are too full to take the victims"
        ),
        phases=(
            ScenarioPhase("warmup", steps=8, touches_per_step=8,
                          pattern="uniform"),
            ScenarioPhase("spike", steps=12, step_s=0.5, touches_per_step=4,
                          pattern="foreground", spike_objects=72),
            ScenarioPhase("recover", steps=10, step_s=2.0, touches_per_step=4,
                          pattern="uniform"),
        ),
        tasks=8,
        objects_per_task=32,
        heap_capacity=64 << 10,
        # the fleet is deliberately tiny: the warmup working set nearly
        # fills it, so spike-time victims have nowhere to go
        store_capacity=24 << 10,
        slo_p95_stall_s=2.0,
    )


def flash_crowd() -> ScenarioSpec:
    """New tasks keep arriving while existing ones are being served."""
    return ScenarioSpec(
        name="flash_crowd",
        description=(
            "a flash crowd: two new background tasks arrive every step "
            "while the original eight stay active"
        ),
        phases=(
            ScenarioPhase("warmup", steps=6, touches_per_step=8,
                          pattern="uniform"),
            ScenarioPhase("crowd", steps=16, step_s=0.5, touches_per_step=6,
                          pattern="uniform", arrivals_per_step=1,
                          arrival_objects=16),
            ScenarioPhase("drain", steps=8, step_s=2.0, touches_per_step=4,
                          pattern="foreground"),
        ),
        heap_capacity=96 << 10,
        slo_p95_stall_s=2.5,
    )


def long_idle_then_burst() -> ScenarioSpec:
    """Everything cools down, the fleet browns out, then a burst hits."""
    events = []
    for index in range(4):
        events.append(
            ChurnEvent(
                at_s=30.0,
                device_id=device_name(index),
                action="brownout",
                latency_factor=20.0,
                bandwidth_factor=0.1,
            )
        )
        events.append(
            ChurnEvent(at_s=150.0, device_id=device_name(index),
                       action="recover")
        )
    return ScenarioSpec(
        name="long_idle_then_burst",
        description=(
            "a long idle stretch during which the fleet browns out, then "
            "every task is touched at once over the degraded links"
        ),
        phases=(
            ScenarioPhase("warmup", steps=8, touches_per_step=8,
                          pattern="uniform"),
            ScenarioPhase("idle", steps=20, step_s=4.0, touches_per_step=0),
            ScenarioPhase("burst", steps=24, step_s=0.5, touches_per_step=8,
                          pattern="uniform"),
        ),
        churn=ChurnPlan(events=tuple(events)),
        heap_capacity=64 << 10,
        slo_p95_stall_s=3.0,
    )


def store_fleet_brownout() -> ScenarioSpec:
    """Every store stays reachable but crawls from early on.

    The brownout never lifts inside the scripted window — stall time is
    charged to the simulated clock, so a time-based recovery would fire
    after a *different* number of workload steps in the slow (baseline)
    run than in the fast (ladder) run, making the two incomparable.
    Rung reversibility is exercised by the other scenarios and by the
    degrade-ladder unit tests.
    """
    events = []
    for index in range(4):
        events.append(
            ChurnEvent(
                at_s=20.0,
                device_id=device_name(index),
                action="brownout",
                latency_factor=30.0,
                bandwidth_factor=0.05,
                capacity_factor=0.8,
            )
        )
    return ScenarioSpec(
        name="store_fleet_brownout",
        description=(
            "the whole fleet browns out mid-run: links 30x slower, "
            "capacity squeezed, while the workload keeps switching tasks"
        ),
        phases=(
            ScenarioPhase("warmup", steps=12, touches_per_step=8,
                          pattern="uniform"),
            ScenarioPhase("brownout", steps=40, step_s=1.5,
                          touches_per_step=4, pattern="sweep"),
        ),
        churn=ChurnPlan(events=tuple(events)),
        heap_capacity=64 << 10,
        slo_p95_stall_s=2.0,
    )


def noisy_neighbor() -> ScenarioSpec:
    """A neighbor's burst squeezes the shared store fleet.

    Mid-run, an unseen neighbor's traffic takes half of every store's
    capacity and most of the shared link bandwidth, while the local
    workload keeps serving its foreground task and absorbing a trickle
    of arrivals.  The squeeze lifts near the end — the neighbor's burst
    drains — and the space must come back without manual help.
    """
    # scripted window: 8s warmup + 18s squeeze + 16s drain = 42s; the
    # burst lands early in the squeeze and lifts mid-drain, so recovery
    # happens on-script rather than being left to the epilogue
    events = []
    for index in range(4):
        events.append(
            ChurnEvent(
                at_s=10.0,
                device_id=device_name(index),
                action="brownout",
                latency_factor=8.0,
                bandwidth_factor=0.25,
                capacity_factor=0.5,
            )
        )
        events.append(
            ChurnEvent(at_s=34.0, device_id=device_name(index),
                       action="recover")
        )
    return ScenarioSpec(
        name="noisy_neighbor",
        description=(
            "a neighbor's burst takes half of every shared store and "
            "most of the link while the local foreground stays active"
        ),
        phases=(
            ScenarioPhase("warmup", steps=8, touches_per_step=8,
                          pattern="uniform"),
            ScenarioPhase("squeeze", steps=36, step_s=0.5,
                          touches_per_step=6, pattern="foreground",
                          arrivals_per_step=1, arrival_objects=8),
            ScenarioPhase("drain", steps=8, step_s=2.0, touches_per_step=4,
                          pattern="uniform"),
        ),
        churn=ChurnPlan(events=tuple(events)),
        heap_capacity=64 << 10,
        slo_p95_stall_s=2.5,
    )


#: Registry the harness and the CLI iterate over, in run order.
SCENARIOS: Dict[str, object] = {
    "app_switch_storm": app_switch_storm,
    "memory_spike": memory_spike,
    "flash_crowd": flash_crowd,
    "long_idle_then_burst": long_idle_then_burst,
    "store_fleet_brownout": store_fleet_brownout,
    "noisy_neighbor": noisy_neighbor,
}
