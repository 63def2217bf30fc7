"""Figure 5: performance impact of swapping on graph traversal.

Reproduces the paper's micro-benchmark (Section 5): four traversal tests
over a list of 10000 64-byte objects, each run with swap-clusters of
20, 50 and 100 objects and once without swapping (the lower bound):

* **A1** — recursive execution of a simple method along the list,
  passing an incrementing integer (one proxy invocation per boundary);
* **A2** — the same outer recursion where every step additionally runs
  an *inner recursion* to depth 10 that returns an object reference
  (extra swap-cluster-proxies are created for references crossing a
  boundary and immediately become garbage);
* **B1** — a full ``for``-style iteration through a swap-cluster-0
  variable (a fresh proxy per step: the pathological case);
* **B2** — the same iteration with the ``SwapClusterUtils.assign``
  optimisation (the proxy patches itself; no allocation per step).

Usage::

    python -m repro.bench.figure5 [--objects 10000] [--repeats 3]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.deepcall import run_deep
from repro.bench.workloads import build_list
from repro.core.space import Space
from repro.core.utils import SwapClusterUtils
from repro.devices.store import InMemoryStore

#: The paper's swap-cluster sizes; ``None`` is the NO-SWAP configuration.
CLUSTER_SIZES: Tuple[Optional[int], ...] = (20, 50, 100, None)

TESTS: Tuple[str, ...] = ("A1", "A2", "B1", "B2")

DEFAULT_OBJECTS = 10_000


@dataclass(frozen=True)
class Figure5Config:
    objects: int = DEFAULT_OBJECTS
    repeats: int = 3
    cluster_sizes: Tuple[Optional[int], ...] = CLUSTER_SIZES
    tests: Tuple[str, ...] = TESTS


@dataclass
class Figure5Result:
    """milliseconds[test][cluster_size] — best of ``repeats`` runs."""

    config: Figure5Config
    millis: Dict[str, Dict[Optional[int], float]] = field(default_factory=dict)

    def overhead_pct(self, test: str, cluster_size: int) -> float:
        base = self.millis[test][None]
        if base == 0:
            return 0.0
        return 100.0 * (self.millis[test][cluster_size] - base) / base

    def speedup_b2_over_b1(self, cluster_size: int) -> float:
        b2 = self.millis["B2"][cluster_size]
        return self.millis["B1"][cluster_size] / b2 if b2 else float("inf")


# ---------------------------------------------------------------------------
# Workload construction per configuration
# ---------------------------------------------------------------------------


def make_fixture(objects: int, cluster_size: Optional[int]) -> Tuple[Any, Optional[Space]]:
    """(root handle, space) for one configuration.

    ``cluster_size=None`` is the NO-SWAP lower bound: raw objects, no
    middleware anywhere near the call path.
    """
    head = build_list(objects)
    if cluster_size is None:
        return head, None
    space = Space(
        "figure5",
        heap_capacity=max(64 * objects * 4, 1 << 20),
    )
    space.manager.add_store(InMemoryStore("bench-store"))
    space.manager.auto_swap = False  # timing runs must not swap mid-test
    handle = space.ingest(head, cluster_size=cluster_size, root_name="head")
    return handle, space


# ---------------------------------------------------------------------------
# The four tests (bodies are identical for proxies and raw objects)
# ---------------------------------------------------------------------------


def _recurse_a1(handle: Any, objects: int, space: Optional[Space]) -> None:
    depth = handle.depth(1)
    assert depth == objects, f"A1 walked {depth} of {objects}"


def _recurse_a2(handle: Any, objects: int, space: Optional[Space]) -> None:
    depth = handle.probe(1)
    assert depth == objects, f"A2 walked {depth} of {objects}"


def test_a1(handle: Any, objects: int, space: Optional[Space]) -> None:
    run_deep(lambda: _recurse_a1(handle, objects, space))


def test_a2(handle: Any, objects: int, space: Optional[Space]) -> None:
    run_deep(lambda: _recurse_a2(handle, objects, space))


def test_b1(handle: Any, objects: int, space: Optional[Space]) -> None:
    count = 0
    cursor = handle
    while cursor is not None:
        cursor = cursor.get_next()
        count += 1
    assert count == objects, f"B1 walked {count} of {objects}"


def test_b2(handle: Any, objects: int, space: Optional[Space]) -> None:
    cursor = handle
    if space is not None:
        # a root-variable proxy in assign mode patches itself instead of
        # minting a proxy per step (paper §4); the cursor is this
        # variable's own proxy, distinct from the shared root handle
        cursor = SwapClusterUtils.assign(space.make_cursor(handle))
    count = 0
    while cursor is not None:
        count += 1
        cursor = cursor.get_next()
    assert count == objects, f"B2 walked {count} of {objects}"


_TEST_FNS: Dict[str, Callable[[Any, int, Optional[Space]], None]] = {
    "A1": test_a1,
    "A2": test_a2,
    "B1": test_b1,
    "B2": test_b2,
}

#: The bodies :func:`run_single` times, already on a big-stack thread.
_BODIES: Dict[str, Callable[[Any, int, Optional[Space]], None]] = {
    "A1": _recurse_a1,
    "A2": _recurse_a2,
    "B1": test_b1,
    "B2": test_b2,
}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def run_single(
    test: str,
    cluster_size: Optional[int],
    objects: int = DEFAULT_OBJECTS,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` wall time in milliseconds for one cell.

    Every repeat runs in one big-stack worker thread, and only the test
    body is timed.  Starting a thread with a 512 MiB stack and touching
    its first stack pages is a large share of a small A1 cell.
    """
    import gc

    body = _BODIES[test]
    handle, space = make_fixture(objects, cluster_size)

    def best_of_repeats() -> float:
        # One collection, before the first repeat: the previous cell's
        # space is cyclic garbage.  A round leaves none (its dead proxies
        # go by refcount), and a full collection before every repeat
        # would start each timed walk with the caches evicted by a pass
        # over every object in the process.
        gc.collect()
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            body(handle, objects, space)
            elapsed = (time.perf_counter() - started) * 1000.0
            best = min(best, elapsed)
        return best

    return run_deep(best_of_repeats)


def run_figure5(config: Figure5Config = Figure5Config(), verbose: bool = False) -> Figure5Result:
    result = Figure5Result(config=config)
    for test in config.tests:
        result.millis[test] = {}
        for cluster_size in config.cluster_sizes:
            elapsed = run_single(
                test, cluster_size, objects=config.objects, repeats=config.repeats
            )
            result.millis[test][cluster_size] = elapsed
            if verbose:
                label = cluster_size if cluster_size is not None else "NO-SWAP"
                print(f"  {test} @ {label}: {elapsed:8.2f} ms", flush=True)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=DEFAULT_OBJECTS)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    from repro.bench.report import check_shape, format_figure5_table

    config = Figure5Config(objects=args.objects, repeats=args.repeats)
    print(f"Figure 5 reproduction: {config.objects} x 64-byte objects, "
          f"best of {config.repeats} runs\n")
    result = run_figure5(config, verbose=True)
    print()
    print(format_figure5_table(result))
    print()
    ok, notes = check_shape(result)
    for note in notes:
        print(("PASS " if note[0] else "FAIL ") + note[1])
    print("\nshape " + ("HOLDS" if ok else "DOES NOT HOLD"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
