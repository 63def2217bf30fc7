"""Scenario benchmark: the degrade ladder vs. a ladder-less baseline.

Runs every :data:`repro.faults.scenarios.SCENARIOS` entry twice per seed
— once with :meth:`~repro.core.manager.SwappingManager.
enable_degrade_ladder` and once without — over an otherwise identical
world (same seed, same task graphs, same scripted touch order, same
churn schedule), and scores both runs against the scenario's
responsiveness SLO:

* **p95 fault-stall seconds** — simulated seconds a scripted access
  spent blocked (swap-in, victim shipping, everything the clock charged
  while the touch ran), measured by the harness identically for both
  runs;
* **foreground OOM count** — foreground clusters OOM-killed, foreground
  allocations denied, and touches that hit a killed foreground task.

The run is deterministic end to end: the touch script is precomputed
from (scenario, seed) before either run starts, so the ladder and the
baseline face byte-identical workloads.

``benchmarks/test_scenarios.py`` asserts the SLO floors on the quick
sizing at seeds 1-3; ``score(config, run_cases("scenarios",
cases(config)))`` with ``config = ScenarioBenchConfig()`` is the
full-size run.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.runner import Case, World
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.fastpath import FastPathConfig
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.errors import IntegrityError, ObiError
from repro.faults import ChurnInjector, FaultInjector, FaultPlan, FlakyStore
from repro.faults.scenarios import SCENARIOS, ScenarioSpec, device_name
from repro.resilience import ResilienceConfig
from repro.runtime import readonly
from repro.runtime.obicomp import managed

#: Foreground / background / idle priorities (``repro.policy.priority``
#: values as plain ints, matching ``SwapCluster.priority``).
FOREGROUND, BACKGROUND, IDLE = 2, 1, 0

#: Every Nth scripted touch mutates the task instead of reading it, so
#: runs carry a realistic dirty working set.
MUTATE_EVERY = 3


@managed(size=320)
class ScenarioRecord:
    """One workload object: a payload-carrying chain element."""

    def __init__(self, key: int, payload: str) -> None:
        self.key = key
        self.payload = payload
        self.next: Optional["ScenarioRecord"] = None

    @readonly
    def get_key(self) -> int:
        return self.key

    def bump(self) -> int:
        # a genuine mutation: dirties the cluster through the barrier
        self.payload = self.payload[1:] + self.payload[:1]
        return self.key


def _build_chain(count: int, payload_bytes: int, rng: random.Random) -> Any:
    head = ScenarioRecord(
        0, "".join(rng.choice("abcdefgh") for _ in range(payload_bytes))
    )
    node = head
    for index in range(1, count):
        node.next = ScenarioRecord(
            index,
            "".join(rng.choice("abcdefgh") for _ in range(payload_bytes)),
        )
        node = node.next
    return head


# ---------------------------------------------------------------------------
# Touch script: precomputed so both runs face the identical workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScriptStep:
    """One workload step, fully resolved before any run starts."""

    phase: str
    advance_s: float
    #: ``(task_index, mutate)`` pairs, in order.
    touches: Tuple[Tuple[int, bool], ...] = ()
    spike_objects: int = 0
    release_spike: bool = False
    #: Task indexes ingested this step (flash-crowd arrivals).
    arrivals: Tuple[int, ...] = ()


def script_seed(spec: ScenarioSpec, seed: int) -> int:
    """The per-(scenario, seed) PRNG seed; ``hash()`` is salted per
    process, so derive from a stable digest instead."""
    return seed * 7919 + zlib.crc32(spec.name.encode("utf-8"))


def build_script(spec: ScenarioSpec, seed: int) -> List[ScriptStep]:
    rng = random.Random(script_seed(spec, seed))
    steps: List[ScriptStep] = []
    task_count = spec.tasks
    touch_counter = 0
    rotation = 0
    step_index = 0
    for phase in spec.phases:
        for local in range(phase.steps):
            arrivals: List[int] = []
            for _ in range(phase.arrivals_per_step):
                arrivals.append(task_count)
                task_count += 1
            touches: List[Tuple[int, bool]] = []
            for j in range(phase.touches_per_step):
                if phase.pattern == "uniform":
                    task = rotation % task_count
                    rotation += 1
                elif phase.pattern == "foreground":
                    if j % 4 == 3 and task_count > 1:
                        task = 1 + rotation % (task_count - 1)
                        rotation += 1
                    else:
                        task = 0
                else:  # sweep: the focus hops every step (LRU worst case)
                    task = step_index % task_count
                touch_counter += 1
                mutate = touch_counter % MUTATE_EVERY == 0
                # seeded jitter: occasionally touch a random straggler
                if rng.random() < 0.1:
                    task = rng.randrange(task_count)
                touches.append((task, mutate))
            steps.append(
                ScriptStep(
                    phase=phase.name,
                    advance_s=phase.step_s,
                    touches=tuple(touches),
                    spike_objects=phase.spike_objects if local == 0 else 0,
                    release_spike=(
                        phase.spike_objects > 0
                        and phase.release_spike
                        and local == phase.steps - 1
                    ),
                    arrivals=tuple(arrivals),
                )
            )
            step_index += 1
    return steps


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def _p95(values: List[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = max(0, -(-len(ordered) * 95 // 100) - 1)  # ceil(0.95n) - 1
    return ordered[index]


def _mode(ladder: bool) -> str:
    return "ladder" if ladder else "baseline"


def _world(spec: ScenarioSpec, seed: int, ladder: bool) -> World:
    clock = SimulatedClock()
    space = Space(
        f"{spec.name}-{_mode(ladder)}-{seed}",
        heap_capacity=spec.heap_capacity,
        clock=clock,
    )
    manager = space.manager
    injector = FaultInjector(FaultPlan.empty(seed=seed), clock)
    stores = [
        FlakyStore(
            XmlStoreDevice(
                device_name(index),
                capacity=spec.store_capacity,
                link=bluetooth_link(clock, name=f"bt-{index}"),
            ),
            injector,
        )
        for index in range(spec.store_count)
    ]
    for store in stores:
        manager.add_store(store)
    manager.enable_resilience(
        ResilienceConfig(
            seed=seed,
            degrade_to_local=True,
            scrub_interval_s=10.0**9,  # scrub off: score the ladder alone
            cooldown_s=5.0,
        )
    )
    manager.enable_fastpath(
        FastPathConfig(
            cache_budget_bytes=spec.cache_budget_bytes,
            delta=True,
        )
    )
    if ladder:
        manager.enable_degrade_ladder()
    return World(space, stores)


def run_once(
    world: World, spec: ScenarioSpec, seed: int, script: List[ScriptStep]
) -> Dict[str, Any]:
    """Drive ``script`` on ``world``; returns the scored result dict."""
    space = world.space
    manager, clock, ladder_obj = space.manager, space.clock, space.manager.ladder
    mode = _mode(ladder_obj is not None)
    stores = {store.device_id: store for store in world.stores}
    churn = ChurnInjector(spec.churn, clock)

    def ingest_task(index: int, objects: int, priority: int) -> Any:
        content = random.Random(seed * 1_000_003 + index)
        handle = space.ingest(
            _build_chain(objects, spec.payload_bytes, content),
            cluster_size=objects,
            root_name=f"task-{index}",
        )
        space.set_priority(handle, priority)
        return handle

    def task_priority(index: int) -> int:
        if index == 0:
            return FOREGROUND
        if index < spec.tasks and index >= spec.tasks - spec.tasks // 4:
            return IDLE
        return BACKGROUND

    handles: List[Any] = []
    for index in range(spec.tasks):
        handles.append(
            ingest_task(index, spec.objects_per_task, task_priority(index))
        )

    stalls: List[Tuple[float, int]] = []
    killed_touches = 0
    foreground_killed_touches = 0
    touch_failures = 0
    foreground_touch_failures = 0
    spike_failures = 0
    arrival_failures = 0
    spike_handle: Optional[Any] = None
    spike_name: Optional[str] = None
    spike_count = 0

    for step in script:
        clock.advance(step.advance_s)
        churn.apply(stores)
        if step.spike_objects:
            spike_count += 1
            spike_name = f"spike-{spike_count}"
            started = clock.now()
            try:
                chain = _build_chain(
                    step.spike_objects,
                    spec.payload_bytes,
                    random.Random(seed * 2_000_003 + spike_count),
                )
                spike_handle = space.ingest(
                    chain,
                    cluster_size=step.spike_objects,
                    root_name=spike_name,
                )
                space.set_priority(spike_handle, FOREGROUND)
            except ObiError:
                # the interactive allocation was denied outright — the
                # harshest possible responsiveness failure
                spike_failures += 1
                spike_handle = None
                spike_name = None
            stalls.append((clock.now() - started, FOREGROUND))
        if step.arrivals:
            arrival_objects = spec.phase_named(step.phase).arrival_objects
            for index in step.arrivals:
                try:
                    handles.append(
                        ingest_task(index, arrival_objects, BACKGROUND)
                    )
                except ObiError:
                    handles.append(None)
                    arrival_failures += 1
        for task, mutate in step.touches:
            if task >= len(handles) or handles[task] is None:
                continue  # an arrival that never landed
            priority = task_priority(task) if task < spec.tasks else BACKGROUND
            started = clock.now()
            try:
                if mutate:
                    handles[task].bump()
                else:
                    handles[task].get_key()
            except IntegrityError:
                # the task was OOM-killed: an app relaunch, not a stall
                killed_touches += 1
                if priority == FOREGROUND:
                    foreground_killed_touches += 1
                continue
            except ObiError:
                # the access was denied outright (heap exhausted with no
                # reclaimable victim, every store unreachable, ...): the
                # worst responsiveness failure a touch can suffer
                touch_failures += 1
                if priority == FOREGROUND:
                    foreground_touch_failures += 1
                continue
            stalls.append((clock.now() - started, priority))
        if step.release_spike and spike_handle is not None:
            space.del_root(spike_name)
            spike_handle = None
            spike_name = None
            space.gc()

    stats = manager.stats
    all_stalls = [seconds for seconds, _ in stalls]
    fg_stalls = [s for s, priority in stalls if priority == FOREGROUND]
    foreground_oom = (
        stats.oom_kills_foreground
        + spike_failures
        + foreground_killed_touches
        + foreground_touch_failures
    )
    result: Dict[str, Any] = {
        "mode": mode,
        "seed": seed,
        "sim_duration_s": round(clock.now(), 3),
        "stall_samples": len(all_stalls),
        "p95_stall_s": round(_p95(all_stalls), 4),
        "foreground_p95_stall_s": round(_p95(fg_stalls), 4),
        "max_stall_s": round(max(all_stalls), 4) if all_stalls else 0.0,
        "mean_stall_s": round(
            sum(all_stalls) / len(all_stalls), 4
        ) if all_stalls else 0.0,
        "oom_kills": stats.oom_kills,
        "oom_kills_foreground": stats.oom_kills_foreground,
        "spike_failures": spike_failures,
        "arrival_failures": arrival_failures,
        "killed_touches": killed_touches,
        "foreground_killed_touches": foreground_killed_touches,
        "touch_failures": touch_failures,
        "foreground_touch_failures": foreground_touch_failures,
        "foreground_oom": foreground_oom,
        "slo_met": (
            _p95(all_stalls) <= spec.slo_p95_stall_s
            and foreground_oom == 0
            and touch_failures == 0
        ),
        "counters": {
            "swap.out.count": stats.swap_outs,
            "swap.in.count": stats.swap_ins,
            "policy.ladder.escalations": stats.ladder_escalations,
            "policy.ladder.deescalations": stats.ladder_deescalations,
            "policy.ladder.compress_local": stats.ladder_compress_local,
            "policy.ladder.drop_clean": stats.ladder_drop_clean,
            "policy.oom.kills": stats.oom_kills,
        },
    }
    if ladder_obj is not None:
        result["rung_transitions"] = [
            [round(at, 3), from_rung, to_rung]
            for at, from_rung, to_rung in ladder_obj.transitions
        ]
        result["final_rung"] = int(ladder_obj.rung)
        result["manager_fault_stall_p95_s"] = round(
            ladder_obj.fault_stalls.p95(), 4
        )
    return result


# ---------------------------------------------------------------------------
# The full matrix
# ---------------------------------------------------------------------------


@dataclass
class ScenarioBenchConfig:
    seeds: Tuple[int, ...] = (1, 2, 3)
    scenarios: Tuple[str, ...] = tuple(SCENARIOS)

    @classmethod
    def quick_config(cls, seed: Optional[int] = None) -> "ScenarioBenchConfig":
        """CI sizing: one seed, every scenario."""
        return cls(seeds=(seed if seed is not None else 1,))


def _case_name(scenario: str, mode: str, seed: int) -> str:
    return f"{scenario}:{mode}:seed={seed}"


def case(spec: ScenarioSpec, seed: int, ladder: bool) -> Case:
    """One run of ``spec`` at ``seed``, ladder on or off."""
    return Case(
        _case_name(spec.name, _mode(ladder), seed),
        partial(_world, spec, seed, ladder),
        partial(run_once, spec=spec, seed=seed, script=build_script(spec, seed)),
    )


def cases(config: ScenarioBenchConfig) -> List[Case]:
    """Every scenario at every seed, ladder first, then the baseline."""
    return [
        case(SCENARIOS[name](), seed, ladder)
        for name in config.scenarios
        for seed in config.seeds
        for ladder in (True, False)
    ]


def _worst(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Worst-of-seeds summary (the SLO must hold for every seed)."""
    return {
        "p95_stall_s": max(r["p95_stall_s"] for r in results),
        "foreground_p95_stall_s": max(
            r["foreground_p95_stall_s"] for r in results
        ),
        "max_stall_s": max(r["max_stall_s"] for r in results),
        "foreground_oom": sum(r["foreground_oom"] for r in results),
        "oom_kills": sum(r["oom_kills"] for r in results),
        "slo_met": all(r["slo_met"] for r in results),
    }


def score(
    config: ScenarioBenchConfig, results: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Per scenario: the ladder's and the baseline's worst-of-seeds
    summaries, and whether the ladder met its SLO at every seed while
    the baseline violated it at every seed."""
    report: Dict[str, Dict[str, Any]] = {}
    for name in config.scenarios:
        runs = {
            mode: [results[_case_name(name, mode, seed)] for seed in config.seeds]
            for mode in ("ladder", "baseline")
        }
        report[name] = {
            "ladder": _worst(runs["ladder"]),
            "baseline": _worst(runs["baseline"]),
            "slo": {
                "ladder_met": all(r["slo_met"] for r in runs["ladder"]),
                "baseline_violates": all(
                    not r["slo_met"] for r in runs["baseline"]
                ),
            },
        }
    return report
