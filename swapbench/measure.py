"""One run of one workload: a fixed number of batches.

A *batch* is one fresh set-up of the workload from the seed followed by
its whole op plan.  Batches of one seed are identical work.  A run makes
:func:`batch_count` of them -- a number fixed by the workload and
``seconds`` alone, never by how fast the host or the program happens to
be -- and:

* checks that every simulated and count result (:func:`exact_results`)
  is identical in every batch -- a difference is a nondeterminism error;
* scales every wall time to a reference host speed (below);
* takes each op's wall time as the median over the batches of its
  scaled time -- op ``i`` of every batch does the same work, so the
  median drops interference that hit it in a minority of the batches --
  and derives ops per second and the op wall percentiles from those
  per-op medians; ``setup_s`` is the median of the batches' scaled
  set-up times.

Why scale: this benchmark was built on a shared 2-vCPU KVM guest whose
speed moves between a fast state and one about 1.7x slower, at times
several times a second, at times for an hour, so a whole run can land
in either.  CPU time moves with wall time (the core and its caches are
shared, the vCPU is not descheduled), so no clock of the process hides
it.  While the ops run, a pass of :class:`~reference.ReferenceWork`
(work that runs no library code) is timed whenever
:data:`REFERENCE_EVERY_S` of wall time has passed, and once more after
the last op.  Each op's wall time is multiplied by
:data:`REFERENCE_PASS_S` over the mean of the two passes that bracket
it; set-up is bracketed by a pass right before it and the one right
after it.  Scaled times read as times on a host that runs the reference
pass in 1.15 ms: a slow phase moves the ops and the passes around them
alike, while a change to the library moves only the ops.  The unscaled
figures and the reference time are reported too (``unscaled.*``,
``host.*``).

Why several processes: on that machine the same batches run at a speed
that differs from one process to the next -- by up to 13% between
single-process runs of ``chase_rf3`` at the same scaled host speed --
and the offset holds for the life of the process.  An untraced run
therefore makes its batches in :data:`WORKERS` fresh processes, one
after another, and the per-op medians are taken over the batches of all
of them.  On ``chase_rf3`` this cut the range of ``ops_per_s`` over ten
runs from 12% to 2%.

A traced run alternates untraced and traced batches in one process, so
the tracing overhead is measured against untraced batches of the same
process.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.stats import counter_diff, counter_snapshot

from reference import ReferenceWork
from tracer import Tracer, summarize
from workloads import FIGURE5_TESTS, WORKLOADS, Mismatch, Traverse, figure5, plain_list

STACK_BYTES = 64 << 20
RECURSION_LIMIT = 50_000
MIN_BATCHES = 3
#: wall seconds of one full-size batch, set-up and reference passes
#: included, at the reference host speed: ``seconds`` of measuring make
#: ``seconds / BATCH_S`` batches
BATCH_S = {"traverse": 4.8, "swap_cycle": 3.3, "chase_rf3": 1.85, "mixed_zipf": 1.0}
#: wall time between two reference passes while the ops run
REFERENCE_EVERY_S = 0.02
#: median reference pass on the machine the benchmark was built on, in
#: its fast state
REFERENCE_PASS_S = 1.15e-3
#: a run stops adding batches once it has taken this many times its
#: ``seconds`` (plus :data:`OVERRUN_SLACK_S`), so a host far slower than
#: the reference still ends in time; it then reports fewer batches
OVERRUN_FACTOR = 4
OVERRUN_SLACK_S = 20.0
#: processes an untraced run spreads its batches over (see the module
#: docstring)
WORKERS = 3
#: seconds a worker may run past the run's deadline before it is killed
WORKER_GRACE_S = 30.0


class Nondeterminism(Exception):
    """Two batches of one seed disagreed on a simulated or count result."""


def run_deep(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` on a thread with a big stack and a raised recursion limit.

    Test A1/A2 recurse once per list element plus the frames each proxy
    crossing adds -- deeper than CPython's defaults allow.  The caller
    waits for the thread, so the app stays one closed-loop client.
    """
    outcome: Dict[str, Any] = {}

    def body() -> None:
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(RECURSION_LIMIT)
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # re-raised in the caller below
            outcome["error"] = exc
        finally:
            sys.setrecursionlimit(previous)

    previous_stack = threading.stack_size(STACK_BYTES)
    try:
        thread = threading.Thread(target=body, name="swapbench-app")
        thread.start()
    finally:
        threading.stack_size(previous_stack)
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def batch_count(name: str, seconds: float, scale: float) -> int:
    """Batches in a run of ``seconds``: fixed by its arguments alone, and
    odd, so that each per-op median is one batch's time and stays put
    while fewer than half of the batches are disturbed at that op."""
    return max(MIN_BATCHES, round(seconds / (BATCH_S[name] * scale))) | 1


def reference_time(reference: ReferenceWork) -> float:
    """Seconds taken by one reference pass."""
    started = time.perf_counter()
    reference.run()
    return time.perf_counter() - started


class SimSampler:
    """Simulated seconds of every swap-in (a reload the app waited on) and
    every swap-out, from thin wrappers on the manager's public methods."""

    def __init__(self, workload: Any) -> None:
        self.manager = workload.space.manager
        self.clock = workload.clock
        self.swap_in_s: List[float] = []
        self.swap_out_s: List[float] = []
        for attr, samples in (("swap_in", self.swap_in_s), ("swap_out", self.swap_out_s)):
            setattr(self.manager, attr, self._sampled(getattr(self.manager, attr), samples))

    def _sampled(self, method: Callable[..., Any], samples: List[float]) -> Callable[..., Any]:
        clock = self.clock

        def sampled(*args: Any, **kwargs: Any) -> Any:
            started = clock.now()
            try:
                result = method(*args, **kwargs)
            except Exception:
                samples.append(math.inf)  # a failed reload misses any limit
                raise
            samples.append(clock.now() - started)
            return result

        return sampled

    def uninstall(self) -> None:
        for attr in ("swap_in", "swap_out"):
            delattr(self.manager, attr)


def _link_totals(links: List[Any]) -> List[float]:
    return [
        sum(link.stats.transfers for link in links),
        sum(link.stats.bytes_carried for link in links),
        sum(link.stats.seconds_charged for link in links),
        sum(link.stats.seconds_failed for link in links),
    ]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def exact_results(
    workload: Any,
    sampler: SimSampler,
    counters_before: Dict[str, int],
    links_before: List[float],
    sim_before: float,
    failed: int,
    heap_peak: int,
) -> Dict[str, Any]:
    """Every simulated and count result of one batch's ops.

    These are deterministic for a seed: each batch of a run, and each
    run of a seed, must reproduce them exactly.
    """
    space = workload.space
    manager = space.manager
    ops = workload.ops
    counters = counter_diff(counters_before, manager.stats)
    links = [after - before for after, before in zip(_link_totals(workload.links), links_before)]
    stalls, outs = sampler.swap_in_s, sampler.swap_out_s
    swap_outs = counters.get("swap.out.count", 0)
    swap_ins = counters.get("swap.in.count", 0)
    sched = manager.sched
    return {
        "ops": ops,
        "failed": failed,
        "error_rate": failed / ops,
        "fault_stalls": len(stalls),
        "fault_stall_p50_sim_ms": percentile(stalls, 50) * 1e3,
        "fault_stall_p99_sim_ms": percentile(stalls, 99) * 1e3,
        "swap_outs": len(outs),
        "swap_out_p50_sim_ms": percentile(outs, 50) * 1e3,
        "swap_out_p99_sim_ms": percentile(outs, 99) * 1e3,
        "link_kb_per_op": links[1] / 1024 / ops,
        "stored_bytes_per_user_byte": workload.stored_bytes() / workload.user_bytes,
        "sim_s": workload.clock.now() - sim_before,
        "counters": counters,
        "link.transfers": links[0],
        "link.bytes": links[1],
        "link.sim_ms": links[2] * 1e3,
        "link.failed_sim_ms": links[3] * 1e3,
        "sched.demand_fetches": sched.stats.demand_fetches if sched else 0,
        "sched.prefetch_issued": sched.stats.prefetch_issued if sched else 0,
        "sched.prefetch_hit_ratio": sched.stats.hit_ratio if sched else 0.0,
        "sched.prefetch_waste_ratio": sched.stats.waste_ratio if sched else 0.0,
        "sched.backpressure_stall_sim_ms": (
            sched.stats.backpressure_stall_s * 1e3 if sched else 0.0
        ),
        "sched.overlap_ratio": sched.overlap_ratio() if sched else 0.0,
        "sched.max_queue_depth": sched.stats.max_queue_depth if sched else 0,
        "fastpath.noop_ratio": _ratio(counters.get("fastpath.noop.count", 0), swap_outs),
        "fastpath.cache_hit_ratio": _ratio(
            counters.get("fastpath.swapin.cache_hits", 0), swap_ins
        ),
        "fastpath.delta_ship_ratio": _ratio(
            counters.get("fastpath.delta.ships", 0), swap_outs
        ),
        "fastpath.delta_fallbacks": counters.get("fastpath.delta.fallbacks", 0),
        "fastpath.reships": counters.get("fastpath.reship.count", 0),
        "fastpath.encode_calls": counters.get("fastpath.encode.count", 0),
        "resilience.retries": counters.get("resilience.retry.count", 0),
        "resilience.failovers": counters.get("resilience.failover.count", 0),
        "heap.peak_bytes": heap_peak,
        "heap.evictions": swap_outs,
        "runtime.live_proxies": space.live_proxy_count(),
    }


def run_batch(
    name: str, seed: int, scale: float, tracer: Optional[Tracer], reference: ReferenceWork
) -> Dict[str, Any]:
    """Set up the workload once and run its whole op plan, timing
    reference passes between the ops (see the module docstring)."""
    gc.collect()  # earlier batches' objects are not this set-up's cost
    before_setup = reference_time(reference)
    started = time.perf_counter()
    workload = WORKLOADS[name](seed, scale)
    setup_s = time.perf_counter() - started
    manager = workload.space.manager
    sampler = SimSampler(workload)
    counters_before = counter_snapshot(manager.stats)
    links_before = _link_totals(workload.links)
    sim_before = workload.clock.now()
    walls: List[float] = []
    errors: List[str] = []
    #: (index of the op that follows the pass, pass seconds)
    passes: List[Tuple[int, float]] = []
    heap = workload.space.heap
    heap_peak = heap.used  # largest heap use seen between ops
    op, clock = workload.op, time.perf_counter
    next_pass = clock()
    if tracer is not None:
        tracer.install(workload)
    try:
        for index in range(workload.ops):
            op_started = clock()
            if op_started >= next_pass:
                passes.append((index, reference_time(reference)))
                op_started = clock()
                next_pass = op_started + REFERENCE_EVERY_S
            try:
                if tracer is None:
                    op(index)
                else:
                    tracer.run_op(index, workload.label(index), lambda: op(index))
            except Mismatch as exc:
                exc.attempted = index + 1
                raise
            except Exception as exc:  # a failed op counts as +inf latency
                walls.append(math.inf)
                errors.append(f"op {index}: {exc!r}")
                continue
            walls.append(clock() - op_started)
            heap_peak = max(heap_peak, heap.used)
    finally:
        if tracer is not None:
            tracer.uninstall()
        sampler.uninstall()
    passes.append((len(walls), reference_time(reference)))
    exact = exact_results(
        workload, sampler, counters_before, links_before, sim_before, len(errors), heap_peak
    )
    try:
        workload.verify()
    except Exception as exc:
        mismatch = exc if isinstance(exc, Mismatch) else Mismatch(
            f"{name}: verification failed: {exc!r}"
        )
        mismatch.attempted = workload.ops
        raise mismatch from exc
    return {
        "setup_s": setup_s,
        "scaled_setup_s": setup_s * REFERENCE_PASS_S * 2 / (before_setup + passes[0][1]),
        "walls": walls,
        "scaled": scale_walls(walls, passes),
        "reference_s": [seconds for _index, seconds in passes],
        "exact": exact,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def scale_walls(walls: List[float], passes: List[Tuple[int, float]]) -> List[float]:
    """Each op's wall time times :data:`REFERENCE_PASS_S` over the mean
    of the two reference passes that bracket it."""
    scaled: List[float] = []
    for (first, before), (end, after) in zip(passes, passes[1:]):
        speed = REFERENCE_PASS_S * 2 / (before + after)
        scaled.extend(wall * speed for wall in walls[first:end])
    return scaled


def wall_figures(batches: List[Dict[str, Any]]) -> Dict[str, float]:
    """Wall figures of a run, scaled to the reference host speed, with
    the unscaled ones beside them (see the module docstring)."""
    scaled = _per_op_median(batch["scaled"] for batch in batches)
    unscaled = _per_op_median(batch["walls"] for batch in batches)
    return {
        "setup_s": statistics.median(batch["scaled_setup_s"] for batch in batches),
        "ops_per_s": len(scaled) / sum(scaled),
        "op_wall_p50_ms": percentile(scaled, 50) * 1e3,
        "op_wall_p99_ms": percentile(scaled, 99) * 1e3,
        "unscaled.setup_s": statistics.median(batch["setup_s"] for batch in batches),
        "unscaled.ops_per_s": len(unscaled) / sum(unscaled),
        "unscaled.op_wall_p50_ms": percentile(unscaled, 50) * 1e3,
        "host.reference_pass_ms": statistics.median(
            seconds for batch in batches for seconds in batch["reference_s"]
        ) * 1e3,
    }


def _per_op_median(batches: Iterable[List[float]]) -> List[float]:
    """Wall time of each op: the median over the batches of its time."""
    return [statistics.median(walls) for walls in zip(*batches)]


def proxy_overhead(seed: int) -> float:
    """Figure 5 ratio: proxy-mediated traversal time over raw traversal
    time for A1+A2+B1+B2 (best of five each) on the 1,000-node list."""
    managed = Traverse(seed)
    totals = []
    for head, space in ((managed.handle, managed.space), (plain_list(), None)):
        total = 0.0
        for test in FIGURE5_TESTS:
            best = math.inf
            for _ in range(5):
                started = time.perf_counter()
                figure5(test, head, space)
                best = min(best, time.perf_counter() - started)
            total += best
        totals.append(total)
    return totals[0] / totals[1]


#: span names of the traced layers (``runtime`` is the ops' own self time)
SPAN_NAMES = (
    "runtime",
    "manager.swap_out",
    "manager.swap_in",
    "manager.ensure_room",
    "wire.encode",
    "wire.decode",
    "wire.verify",
    "wire.delta_encode",
    "wire.delta_apply",
    "link.compress",
    "link.transfer",
    "store.ship",
    "store.fetch",
    "store.probe",
    "store.drop",
    "sched.acquire",
    "journal",
    "gc",
    "victims.select",
)
_NO_SPANS = {"calls": 0, "self_sim_s": 0.0, "errors": 0, "bytes": 0, "by_call": {}}


def layer_metrics(summaries: List[Dict[str, Any]], exact: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics of a traced run, by name (BENCHMARK.json picks).

    Counts come from the first traced batch (every batch repeats them);
    self-wall shares are taken over all traced batches together.
    """
    op_wall = sum(summary["op_wall_s"] for summary in summaries)
    metrics: Dict[str, Any] = {
        key: value for key, value in exact.items() if not isinstance(value, dict)
    }
    for name in SPAN_NAMES:
        row = summaries[0]["names"].get(name, _NO_SPANS)
        wall = sum(
            summary["names"][name]["self_wall_s"]
            for summary in summaries
            if name in summary["names"]
        )
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_wall_pct"] = 100.0 * _ratio(wall, op_wall)
        # self sim time is a difference of clock readings: drop float dust
        metrics[f"{name}.sim_ms"] = max(0.0, round(row["self_sim_s"] * 1e3, 6))
        metrics[f"{name}.errors"] = row["errors"]
        metrics[f"{name}.bytes"] = row["bytes"]
    journal = summaries[0]["names"].get("journal", _NO_SPANS)
    metrics["resilience.replicas_written"] = journal["by_call"].get("record_write", 0)
    return metrics


def run_batches(
    name: str, seed: int, scale: float, kinds: List[bool], deadline: float, minimum: int
) -> Dict[str, Any]:
    """Run one batch per entry of ``kinds`` (``True``: traced) in this
    process.  Past ``deadline`` (``time.time()``) it stops once it has
    ``minimum`` batches of each kind; it stops at a failed op or a wrong
    value."""
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    kept: Optional[Tracer] = None  # the least-disturbed traced batch's spans
    problems: List[str] = []
    unfinished = 0  # ops attempted by a batch that stopped on a wrong value
    reference = ReferenceWork()
    try:
        for traced_batch in kinds:
            enough = len(plain) >= minimum and (len(traced) >= minimum or not any(kinds))
            if enough and time.time() >= deadline:
                break
            tracer = Tracer() if traced_batch else None
            batch = run_deep(lambda: run_batch(name, seed, scale, tracer, reference))
            if tracer is None:
                plain.append(batch)
            else:
                batch["summary"] = summarize(tracer.spans)
                batch["calls"] = {
                    key: row["calls"] for key, row in batch["summary"]["names"].items()
                }
                if kept is None or batch["summary"]["op_wall_s"] < min(
                    done["summary"]["op_wall_s"] for done in traced
                ):
                    kept = tracer
                traced.append(batch)
            if batch["errors"]:
                break
    except Mismatch as exc:
        problems.append(f"Mismatch: {exc}")
        unfinished = getattr(exc, "attempted", 0)
    return {
        "plain": plain,
        "traced": traced,
        "kept": kept,
        "problems": problems,
        "unfinished": unfinished,
    }


def run_in_workers(
    name: str, seed: int, scale: float, count: int, deadline: float
) -> List[Dict[str, Any]]:
    """Spread ``count`` untraced batches over :data:`WORKERS` fresh
    interpreters, started one after another; returns each one's
    :func:`run_batches` result.

    Each worker is a plain child interpreter (``python3 measure.py``)
    that this process waits for; it starts no helper processes of its
    own, so none outlives the run.  It is killed if it overruns the
    deadline by :data:`WORKER_GRACE_S` or if this process is stopped.
    """
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    parts: List[Dict[str, Any]] = []
    for worker in range(min(WORKERS, count)):
        kinds = [False] * len(range(worker, count, WORKERS))
        request = json.dumps([name, seed, scale, kinds, deadline])
        completed = subprocess.run(
            [sys.executable, str(here / "measure.py"), request],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            timeout=max(0.0, deadline - time.time()) + WORKER_GRACE_S,
        )
        lines = completed.stdout.splitlines()
        if completed.returncode != 0 or not lines:
            raise RuntimeError(f"{name}: worker {worker + 1} exited with {completed.returncode}")
        parts.append(json.loads(lines[-1]))
        if parts[-1]["problems"] or any(batch["errors"] for batch in parts[-1]["plain"]):
            break
    return parts


def worker_main(request: str) -> None:
    """Run the batches :func:`run_in_workers` asks for and print the
    result as one JSON line."""
    name, seed, scale, kinds, deadline = json.loads(request)
    print(json.dumps(run_batches(name, seed, scale, kinds, deadline, 1)))


def run(
    name: str,
    seed: int,
    seconds: float,
    *,
    scale: float = 1.0,
    trace: bool = False,
) -> Dict[str, Any]:
    """Run :func:`batch_count` batches of one workload; return the run's
    results (see the module docstring for how they are derived).

    Untraced, the batches are spread over :data:`WORKERS` processes.
    Traced, the run makes as many traced batches again, alternating with
    the untraced ones, all in this process.
    """
    count = batch_count(name, seconds, scale)
    deadline = time.time() + OVERRUN_FACTOR * seconds + OVERRUN_SLACK_S
    if trace:
        parts = [run_batches(name, seed, scale, [False, True] * count, deadline, MIN_BATCHES)]
    else:
        parts = run_in_workers(name, seed, scale, count, deadline)
    plain = [batch for part in parts for batch in part["plain"]]
    traced = [batch for part in parts for batch in part["traced"]]
    kept = parts[0]["kept"]
    problems = [problem for part in parts for problem in part["problems"]]
    unfinished = sum(part["unfinished"] for part in parts)
    batches = plain + traced
    if not problems and any(batch["exact"] != batches[0]["exact"] for batch in batches):
        problems.append(f"Nondeterminism: {name}: two batches of seed {seed} disagree")
    if not problems and any(batch["calls"] != traced[0]["calls"] for batch in traced):
        problems.append(f"Nondeterminism: {name}: traced batches made different calls")
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "correct": not problems,
        "problems": problems,
        "batches": len(plain),
        "traced_batches": len(traced),
        "attempted": unfinished + sum(len(batch["walls"]) for batch in batches),
        "failed": sum(len(batch["errors"]) for batch in batches),
        "errors": [error for batch in batches for error in batch["errors"]][:5],
    }
    if problems or not plain:
        return result
    result["exact"] = plain[0]["exact"]
    # the high-water mark when the first batch ended: the interpreter, the
    # library and one workload, before this run's samples pile up
    result["wall"] = {**wall_figures(plain), "peak_rss_mb": plain[0]["peak_rss_mb"]}
    result["samples"] = {
        "op_wall": len(plain[0]["walls"]),
        "fault_stall": plain[0]["exact"]["fault_stalls"],
        "swap_out": plain[0]["exact"]["swap_outs"],
        "reference_passes": sum(len(batch["reference_s"]) for batch in plain),
    }
    if traced:
        traced_ops_per_s = wall_figures(traced)["ops_per_s"]
        result["layers"] = layer_metrics([batch["summary"] for batch in traced], result["exact"])
        result["layers"]["trace.overhead_x"] = result["wall"]["ops_per_s"] / traced_ops_per_s
        result["layers"]["runtime.proxy_overhead_x"] = run_deep(lambda: proxy_overhead(seed))
        result["trace"] = {"tracer": kept, "traced_ops_per_s": traced_ops_per_s}
    return result


if __name__ == "__main__":
    worker_main(sys.argv[1])
