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
sizing at seeds 1-3; ``run_scenarios(ScenarioBenchConfig())`` is the
full-size run.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.degrade import DegradeLadderConfig
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


def run_once(
    spec: ScenarioSpec,
    seed: int,
    script: List[ScriptStep],
    *,
    ladder: bool,
    observe: bool = False,
    obs_path: Optional[str] = None,
    obs_append: bool = True,
) -> Dict[str, Any]:
    """Execute one scenario run; returns the scored result dict."""
    clock = SimulatedClock()
    mode = "ladder" if ladder else "baseline"
    space = Space(
        f"{spec.name}-{mode}-{seed}",
        heap_capacity=spec.heap_capacity,
        clock=clock,
    )
    manager = space.manager
    injector = FaultInjector(FaultPlan.empty(seed=seed), clock)
    stores: Dict[str, FlakyStore] = {}
    for index in range(spec.store_count):
        store = FlakyStore(
            XmlStoreDevice(
                device_name(index),
                capacity=spec.store_capacity,
                link=bluetooth_link(clock, name=f"bt-{index}"),
            ),
            injector,
        )
        stores[store.device_id] = store
        manager.add_store(store)
    churn = ChurnInjector(spec.churn, clock)
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
    ladder_obj = None
    if ladder:
        ladder_obj = manager.enable_degrade_ladder(
            DegradeLadderConfig(slo_p95_stall_s=spec.slo_p95_stall_s)
        )
    obs = manager.enable_observability() if observe else None

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
    if obs is not None:
        obs.refresh()
        if obs_path is not None:
            obs.export_jsonl(
                obs_path,
                label=f"scenario:{spec.name}:{mode}:seed={seed}",
                append=obs_append,
            )
    return result


# ---------------------------------------------------------------------------
# The full matrix
# ---------------------------------------------------------------------------


@dataclass
class ScenarioBenchConfig:
    seeds: Tuple[int, ...] = (1, 2, 3)
    scenarios: Tuple[str, ...] = tuple(SCENARIOS)
    quick: bool = False

    @classmethod
    def quick_config(cls, seed: Optional[int] = None) -> "ScenarioBenchConfig":
        """CI sizing: one seed, every scenario."""
        return cls(seeds=(seed if seed is not None else 1,), quick=True)


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


def run_scenarios(
    config: Optional[ScenarioBenchConfig] = None,
    *,
    observe: bool = False,
    obs_path: Optional[str] = None,
) -> Dict[str, Any]:
    config = config if config is not None else ScenarioBenchConfig()
    scenarios: Dict[str, Any] = {}
    first_export = True
    for name in config.scenarios:
        spec: ScenarioSpec = SCENARIOS[name]()
        per_seed: Dict[str, Any] = {}
        ladder_results: List[Dict[str, Any]] = []
        baseline_results: List[Dict[str, Any]] = []
        for seed in config.seeds:
            script = build_script(spec, seed)
            ladder_run = run_once(
                spec, seed, script, ladder=True,
                observe=observe, obs_path=obs_path,
                obs_append=not first_export,
            )
            first_export = False
            baseline_run = run_once(
                spec, seed, script, ladder=False,
                observe=observe, obs_path=obs_path, obs_append=True,
            )
            per_seed[str(seed)] = {
                "ladder": ladder_run,
                "baseline": baseline_run,
            }
            ladder_results.append(ladder_run)
            baseline_results.append(baseline_run)
        scenarios[name] = {
            "description": spec.description,
            "slo_p95_stall_s": spec.slo_p95_stall_s,
            "seeds": per_seed,
            "ladder": _worst(ladder_results),
            "baseline": _worst(baseline_results),
            "slo": {
                "ladder_met": all(r["slo_met"] for r in ladder_results),
                "baseline_violates": all(
                    not r["slo_met"] for r in baseline_results
                ),
            },
        }
    return {
        "benchmark": "scenarios",
        "observed": observe,
        "config": {
            "seeds": list(config.seeds),
            "scenarios": list(config.scenarios),
            "quick": config.quick,
        },
        "scenarios": scenarios,
    }


def format_table(report: Dict[str, Any]) -> str:
    header = (
        f"{'scenario':<24} {'slo s':>6} {'ladder p95':>11} {'base p95':>9} "
        f"{'fg oom L/B':>11} {'ladder':>7} {'base':>9}"
    )
    lines = [header, "-" * len(header)]
    for name, entry in report["scenarios"].items():
        ladder = entry["ladder"]
        base = entry["baseline"]
        lines.append(
            f"{name:<24} {entry['slo_p95_stall_s']:>6.1f} "
            f"{ladder['p95_stall_s']:>11.3f} {base['p95_stall_s']:>9.3f} "
            f"{ladder['foreground_oom']:>5}/{base['foreground_oom']:<5} "
            f"{'met' if entry['slo']['ladder_met'] else 'MISS':>7} "
            f"{'violates' if entry['slo']['baseline_violates'] else 'met':>9}"
        )
    return "\n".join(lines)

