"""Async swap-scheduler benchmark: fetch-bound pointer chase.

Measures what event-driven scheduling (:mod:`repro.core.sched`) buys on
the post-PR-5 bottleneck — fault *latency*, not payload bytes — with a
workload built to be fetch-bound: a ring of blob-carrying nodes walked
through swap-cluster proxies, with seeded forward jumps, over a heap
sized so only a handful of clusters fit at once.  Every few steps the
walk crosses into a swapped cluster: a demand fetch plus (rf = 3) victim
re-ships per fault, against five Bluetooth-class stores.

Two scenarios on byte-identical workloads:

* ``sync``   — the blocking fault path (no scheduler): every fault
  stalls for the victim ships *and* the demand fetch, serially;
* ``async``  — the scheduler with one channel per store and prefetching
  on: victim write-back overlaps in-flight fetches, and the prefetcher
  keeps the next clusters warm, so the residual stall is the slice of
  demand-transfer time nothing else could hide.

Headline: p95 fault-stall reduction (simulated seconds an access was
blocked on a reload), with the prefetch waste ratio and overlap ratio
reported alongside.  Each scenario also reports the real wall-clock time
it took to compute next to its simulated cost.
``benchmarks/test_async_sched.py`` asserts the ≥ 2x floor on the quick
sizing at seeds 1-3; ``run_async_bench(AsyncBenchConfig())`` is the
full-size run.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.runtime.obicomp import managed


def _blob(seed_a: int, seed_b: int, nbytes: int) -> str:
    """Deterministic high-entropy hex content (defeats the codec's zlib
    pass, as real application state would)."""
    chunks: List[str] = []
    length = 0
    counter = 0
    while length < nbytes:
        digest = hashlib.sha256(
            f"{seed_a}:{seed_b}:{counter}".encode("ascii")
        ).hexdigest()
        chunks.append(digest)
        length += len(digest)
        counter += 1
    return "".join(chunks)[:nbytes]


@managed(size=192)
class ChaseNode:
    """A ring element carrying content plus two outbound edges: ``next``
    (the ring) and ``alt`` (a seeded forward jump a few clusters ahead).
    The jumps keep the reference graph honest — prediction cannot just
    memorize one successor per cluster."""

    def __init__(self, index: int, blob: str) -> None:
        self.index = index
        self.blob = blob
        self.next: Optional["ChaseNode"] = None
        self.alt: Optional["ChaseNode"] = None


def build_ring(n: int, blob_bytes: int, seed: int) -> ChaseNode:
    """A closed ring of ``n`` nodes with seeded forward ``alt`` jumps.

    The ring means the chase never needs to re-enter through a raw head
    reference — every step moves proxy-to-proxy, so every cluster
    crossing goes through the fault path.
    """
    rng = random.Random(seed)
    nodes = [ChaseNode(index, _blob(index, seed, blob_bytes)) for index in range(n)]
    for left, right in zip(nodes, nodes[1:]):
        left.next = right
    nodes[-1].next = nodes[0]
    for index, node in enumerate(nodes):
        node.alt = nodes[(index + rng.randrange(5, 25)) % n]
    return nodes[0]


@dataclass
class AsyncBenchConfig:
    objects: int = 400
    cluster_size: int = 5
    #: proxy-crossing steps of the pointer chase
    steps: int = 600
    #: fraction of steps that take the ``alt`` jump instead of ``next``
    jump_fraction: float = 0.15
    #: incompressible payload per node
    blob_bytes: int = 96
    stores: int = 5
    replication_factor: int = 3
    #: async scenario: transfer channels (one per store by default)
    channels: int = 5
    prefetch_depth: int = 4
    #: clusters that fit in the clamped heap during the chase — small
    #: enough that the walk continuously faults *and* evicts
    resident_clusters: int = 4
    seed: int = 1
    store_capacity: int = 32 << 20

    @classmethod
    def quick(cls, seed: int = 1) -> "AsyncBenchConfig":
        """CI smoke-test sizing (a few seconds of wall clock)."""
        return cls(objects=240, cluster_size=4, steps=300, seed=seed)


@dataclass
class ScenarioResult:
    name: str
    steps: int
    faults: int
    swap_outs: int
    fault_stall_mean_s: float
    fault_stall_p50_s: float
    fault_stall_p95_s: float
    fault_stall_total_s: float
    sim_clock_s: float
    #: real time this scenario took to compute (host-dependent; compares
    #: with jitter tolerance only — see repro.bench.report)
    wall_s: float
    bytes_on_link: int
    link_seconds: float
    # -- scheduler counters (zero for the sync scenario) --
    sched_demand_fetches: int = 0
    sched_prefetch_issued: int = 0
    sched_prefetch_hits: int = 0
    sched_prefetch_waste: int = 0
    sched_prefetch_cancelled: int = 0
    sched_prefetch_preempted: int = 0
    sched_writebacks: int = 0
    sched_stale_drops: int = 0
    sched_max_queue_depth: int = 0
    sched_stall_saved_s: float = 0.0
    sched_backpressure_stall_s: float = 0.0
    sched_overlap_ratio: float = 0.0
    prefetch_waste_ratio: float = 0.0
    #: per-phase simulated/wall cost from the profiler (``observe=True`` only)
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)


@dataclass
class AsyncBenchReport:
    config: AsyncBenchConfig
    scenarios: Dict[str, ScenarioResult] = field(default_factory=dict)
    observed: bool = False

    @property
    def p95_stall_reduction(self) -> float:
        """sync / async p95 fault-stall seconds — the headline."""
        sync = self.scenarios["sync"].fault_stall_p95_s
        fast = self.scenarios["async"].fault_stall_p95_s
        return sync / fast if fast > 0 else float("inf")

    @property
    def mean_stall_reduction(self) -> float:
        sync = self.scenarios["sync"].fault_stall_mean_s
        fast = self.scenarios["async"].fault_stall_mean_s
        return sync / fast if fast > 0 else float("inf")

    @property
    def total_stall_reduction(self) -> float:
        sync = self.scenarios["sync"].fault_stall_total_s
        fast = self.scenarios["async"].fault_stall_total_s
        return sync / fast if fast > 0 else float("inf")


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _build_space(config: AsyncBenchConfig) -> Tuple[Space, SimulatedClock, list]:
    """Space + stores + fully swapped-out ring, identical per scenario.

    The prep phase runs entirely on the blocking path (the scheduler, when
    a scenario uses one, is enabled only after), so every scenario
    starts the chase from the same simulated instant and store state.
    Resilience is on so placement spreads replicas across all five
    stores — without the spread every cluster would land on the same
    first-fit three and the fleet's parallelism would be fiction.
    """
    clock = SimulatedClock()
    space = Space("chase", heap_capacity=64 << 20, clock=clock)
    manager = space.manager
    manager.enable_resilience()
    manager.replication_factor = config.replication_factor
    links = []
    for index in range(config.stores):
        link = bluetooth_link(clock, name=f"bt-{index}")
        links.append(link)
        manager.add_store(
            XmlStoreDevice(
                f"peer-{index}", capacity=config.store_capacity, link=link
            )
        )
    space.ingest(
        build_ring(config.objects, config.blob_bytes, config.seed),
        cluster_size=config.cluster_size,
        root_name="head",
    )
    for sid, cluster in sorted(space._clusters.items()):
        if cluster.swappable() and cluster.oids:
            manager.swap_out(sid)
    # clamp the heap so only ~resident_clusters fit during the chase:
    # every few crossings must evict a victim (write-back) AND fetch
    space.heap.capacity = space.heap.used + int(
        config.resident_clusters * config.cluster_size * 192 * 1.5
    )
    return space, clock, links


def _chase_plan(config: AsyncBenchConfig) -> List[bool]:
    """The seeded step plan (True = take the ``alt`` jump), shared by
    every scenario so the access pattern is byte-identical."""
    rng = random.Random(config.seed + 1)
    return [rng.random() < config.jump_fraction for _ in range(config.steps)]


def run_scenario(
    name: str,
    config: AsyncBenchConfig,
    *,
    channels: Optional[int],
    prefetch: bool,
    observe: bool = False,
    obs_path: str | None = None,
    obs_append: bool = True,
) -> ScenarioResult:
    """One chase.  ``channels=None`` means no scheduler (blocking path)."""
    space, clock, links = _build_space(config)
    manager = space.manager
    obs = manager.enable_observability() if observe else None
    sched = None
    if channels is not None:
        sched = manager.enable_async_scheduler(
            channels=channels,
            prefetch=prefetch,
            prefetch_depth=config.prefetch_depth,
        )

    plan = _chase_plan(config)
    node: Any = space.roots()["head"]
    stalls: List[float] = []
    wall_started = time.perf_counter()
    for jump in plan:
        before = clock.now()
        faults_before = manager.stats.swap_ins
        _ = node.index  # the proxy fault, if the cluster is swapped
        if manager.stats.swap_ins > faults_before:
            stalls.append(clock.now() - before)
        node = node.alt if jump else node.next
    if sched is not None:
        sched.drain()
    wall_s = time.perf_counter() - wall_started

    phases: Dict[str, Dict[str, float]] = {}
    if obs is not None:
        obs.refresh()
        phases = obs.profiler.breakdown()
        if obs_path is not None:
            obs.export_jsonl(obs_path, label=f"async:{name}", append=obs_append)

    stats = manager.stats
    result = ScenarioResult(
        name=name,
        steps=config.steps,
        faults=len(stalls),
        swap_outs=stats.swap_outs,
        fault_stall_mean_s=(sum(stalls) / len(stalls)) if stalls else 0.0,
        fault_stall_p50_s=_percentile(stalls, 0.50),
        fault_stall_p95_s=_percentile(stalls, 0.95),
        fault_stall_total_s=sum(stalls),
        sim_clock_s=clock.now(),
        wall_s=wall_s,
        bytes_on_link=sum(link.stats.bytes_carried for link in links),
        link_seconds=sum(link.stats.seconds_charged for link in links),
    )
    if sched is not None:
        sstats = sched.stats
        result.sched_demand_fetches = sstats.demand_fetches
        result.sched_prefetch_issued = sstats.prefetch_issued
        result.sched_prefetch_hits = sstats.prefetch_hits
        result.sched_prefetch_waste = sstats.prefetch_waste
        result.sched_prefetch_cancelled = sstats.prefetch_cancelled
        result.sched_prefetch_preempted = sstats.prefetch_preempted
        result.sched_writebacks = sstats.writebacks
        result.sched_stale_drops = sstats.stale_drops
        result.sched_max_queue_depth = sstats.max_queue_depth
        result.sched_stall_saved_s = sstats.stall_saved_s
        result.sched_backpressure_stall_s = sstats.backpressure_stall_s
        result.sched_overlap_ratio = sched.overlap_ratio()
        result.prefetch_waste_ratio = sstats.waste_ratio
    result.phases = phases
    return result


def run_async_bench(
    config: AsyncBenchConfig | None = None,
    *,
    observe: bool = False,
    obs_path: str | None = None,
) -> AsyncBenchReport:
    """Run both scenarios on byte-identical workloads."""
    config = config if config is not None else AsyncBenchConfig()
    report = AsyncBenchReport(config=config, observed=observe)
    plans = [("sync", None, False), ("async", config.channels, True)]
    for index, (name, channels, prefetch) in enumerate(plans):
        report.scenarios[name] = run_scenario(
            name,
            config,
            channels=channels,
            prefetch=prefetch,
            observe=observe,
            obs_path=obs_path,
            obs_append=index > 0,
        )
    return report


def format_table(report: AsyncBenchReport) -> str:
    from repro.bench.report import format_sim_wall

    header = (
        f"{'scenario':<9} {'faults':>6} {'stall p50 s':>12} "
        f"{'stall p95 s':>12} {'stall sum s':>12} {'hits':>5} "
        f"{'waste':>6} {'overlap':>8}"
    )
    lines = [header, "-" * len(header)]
    for result in report.scenarios.values():
        lines.append(
            f"{result.name:<9} {result.faults:>6} "
            f"{result.fault_stall_p50_s:>12.4f} "
            f"{result.fault_stall_p95_s:>12.4f} "
            f"{result.fault_stall_total_s:>12.2f} "
            f"{result.sched_prefetch_hits:>5} "
            f"{result.prefetch_waste_ratio:>6.2f} "
            f"{result.sched_overlap_ratio:>8.2f}"
        )
    for result in report.scenarios.values():
        lines.append(
            f"{result.name:<9} {format_sim_wall(result.sim_clock_s, result.wall_s)}"
        )
    lines.append(
        f"reductions vs sync: p95 stall {report.p95_stall_reduction:.1f}x, "
        f"mean stall {report.mean_stall_reduction:.1f}x, total stall "
        f"{report.total_stall_reduction:.1f}x"
    )
    return "\n".join(lines)

