"""The scheduled fault path, pinned.

The counterpart of ``test_async_equivalence``'s blocking-path pins: with
the async scheduler attached, each seeded workload shape below is
replayed and its whole observable fingerprint — the simulated clock
before and after the final drain, every ``SchedStats`` and
``PipelineStats`` field, every link's ``LinkStats``, per-store operation
counts and a sha256 of the emitted event stream — must equal the
constants pinned here.  Scheduler bookkeeping may get cheaper in host
time; it may not move a simulated second, a count or a tie-break.
Regenerate the pins only for a change that is meant to move them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Any, Dict, List

import pytest

from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.sched import AsyncSchedConfig
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.faults import FaultInjector, FaultPlan, FlakyLink
from repro.resilience import ResilienceConfig
from repro.stats import counter_snapshot
from tests.helpers import build_chain

#: Store operations counted per store (the ones a swap path can call).
_STORE_OPS = (
    "store",
    "store_stream",
    "store_delta",
    "fetch",
    "contains",
    "digest",
    "has_room",
    "drop",
)


def _count_ops(store: Any, counts: Dict[str, int]) -> None:
    """Wrap ``store``'s operations (instance attributes) to count calls."""
    for name in _STORE_OPS:
        method = getattr(store, name, None)
        if method is None:
            continue

        def counted(*args: Any, _name: str = name, _method: Any = method,
                    **kwargs: Any) -> Any:
            counts[_name] = counts.get(_name, 0) + 1
            return _method(*args, **kwargs)

        setattr(store, name, counted)


def _run_shape(
    *,
    nodes: int = 40,
    cluster_size: int = 4,
    stores: int = 3,
    clamp: int = 0,
    replication: int = 0,
    config: AsyncSchedConfig = AsyncSchedConfig(),
    flaky_rate: float = 0.0,
    walks: int = 1,
    random_touches: int = 0,
    shed_every: int = 0,
) -> Dict[str, Any]:
    """One seeded scheduled run; returns its observable fingerprint."""
    clock = SimulatedClock()
    space = Space("pinned", heap_capacity=1 << 20, clock=clock)
    manager = space.manager
    if replication:
        manager.enable_resilience(
            ResilienceConfig(replication_factor=replication)
        )
    injector = FaultInjector(FaultPlan.empty(), clock=clock)
    links: List[Any] = []
    counts: Dict[str, Dict[str, int]] = {}
    for index in range(stores):
        link = bluetooth_link(clock, name=f"bt-{index}")
        links.append(link)
        wire = FlakyLink(link, injector) if flaky_rate and index == 0 else link
        store = XmlStoreDevice(f"p-{index}", capacity=1 << 20, link=wire)
        counts[store.device_id] = {}
        _count_ops(store, counts[store.device_id])
        manager.add_store(store)
    events: List[Any] = []
    space.bus.subscribe_all(
        lambda event: events.append((type(event).__name__, event.describe()))
    )
    handle = space.ingest(
        build_chain(nodes), cluster_size=cluster_size, root_name="h"
    )
    radios = manager.available_stores()
    swappable = [
        sid
        for sid, cluster in sorted(space._clusters.items())
        if cluster.swappable() and cluster.oids
    ]
    for index, sid in enumerate(swappable):
        # replicated shapes place by health and free space; the others
        # spread their clusters over the radios round-robin
        manager.swap_out(sid, None if replication else radios[index % stores])
    if clamp:
        space.heap.capacity = space.heap.used + clamp
    if flaky_rate:
        # faults start with the walk: frames drop at random, and the
        # first radio is out of range for the opening faults
        now = clock.now()
        injector.plan = FaultPlan(
            seed=5,
            link_failure_rate=flaky_rate,
            down_windows=((now, now + 1.5),),
        )
    sched = manager.enable_async_scheduler(config)

    values: List[int] = []
    cursors: List[Any] = []
    step = 0
    for _ in range(walks):
        cursor = handle
        while cursor is not None:
            values.append(cursor.get_value())
            cursors.append(cursor)
            cursor = cursor.get_next()
            step += 1
            if shed_every and step % shed_every == 0:
                sched.on_pressure(1)
    rng = random.Random(11)
    touched = [rng.randrange(len(cursors)) for _ in range(random_touches)]
    for index in touched:
        values.append(cursors[index].get_value())
    expected = list(range(nodes)) * walks
    assert values == expected + [expected[i] for i in touched]
    walked = clock.now()
    sched.drain()
    return {
        "walked": walked,
        "clock": clock.now(),
        "sched": dataclasses.asdict(sched.stats),
        "pipeline": dataclasses.asdict(sched.transfers.stats),
        "links": [dataclasses.asdict(link.stats) for link in links],
        "stores": counts,
        "counters": {
            name: value
            for name, value in counter_snapshot(manager.stats).items()
            if value
        },
        "events": hashlib.sha256(json.dumps(events).encode()).hexdigest(),
    }


SHAPES = {
    # the benchmark's chase in miniature: three replicas on five radios,
    # one channel per radio, deep prediction, an evicting heap, and a
    # second lap that predicts from fault-succession history
    "rf3-chase": {
        "stores": 5,
        "replication": 3,
        "clamp": 800,
        "walks": 2,
        "config": AsyncSchedConfig(channels=5, prefetch=True, prefetch_depth=4),
    },
    "one-channel": {
        "clamp": 400,
        "config": AsyncSchedConfig(channels=1, prefetch=False),
    },
    # two channels for three radios: deferred ships and drops keep both
    # booked at fault instants, so admission paces the app
    "backpressure": {
        "clamp": 400,
        "config": AsyncSchedConfig(channels=2, prefetch=True),
    },
    # one replica's radio drops frames: retries, then demand failover
    "flaky-failover": {
        "replication": 2,
        "flaky_rate": 0.3,
        "clamp": 400,
        "config": AsyncSchedConfig(channels=3, prefetch=True),
    },
    # a one-slot speculative buffer under random touches: demotion, and
    # demand fetches preempting speculation still on the radio
    "full-buffer": {
        "nodes": 60,
        "clamp": 600,
        "random_touches": 40,
        "config": AsyncSchedConfig(
            channels=4, prefetch=True, prefetch_depth=4, max_speculative=1
        ),
    },
    "pressure-shed": {
        "shed_every": 7,
        "config": AsyncSchedConfig(channels=3, prefetch=True, prefetch_depth=3),
    },
}

#: The scheduled path's fingerprint per shape (``counters`` lists the
#: non-zero entries of ``counter_snapshot``).
PINNED: Dict[str, Dict[str, Any]] = {'backpressure': {'walked': 1.5058171428571425,
                  'clock': 1.6129942857142854,
                  'sched': {'ops_issued': 38,
                            'demand_fetches': 4,
                            'demand_stall_s': 0.4061371428571424,
                            'hit_stall_s': 0.0,
                            'stall_saved_s': 0.33851428571428566,
                            'prefetch_issued': 6,
                            'prefetch_hits': 6,
                            'prefetch_waste': 0,
                            'prefetch_cancelled': 0,
                            'prefetch_preempted': 0,
                            'prefetch_demoted': 0,
                            'prefetch_failed': 0,
                            'writebacks': 8,
                            'stale_drops': 10,
                            'backpressure_stall_s': 0.5356342857142858,
                            'reloads': 10,
                            'max_queue_depth': 6},
                  'pipeline': {'transfers': 28,
                               'barriers': 1,
                               'serial_s': 1.52264,
                               'pipelined_s': 0.10717714285714286,
                               'failed_transfers': 0,
                               'failed_s': 0.0,
                               'cancelled_transfers': 0,
                               'cancelled_s': 0.0},
                  'links': [{'transfers': 20,
                             'frames': 20,
                             'bytes_carried': 9211,
                             'seconds_charged': 1.1052685714285717,
                             'seconds_failed': 0.0},
                            {'transfers': 9,
                             'frames': 9,
                             'bytes_carried': 3554,
                             'seconds_charged': 0.49061714285714286,
                             'seconds_failed': 0.0},
                            {'transfers': 9,
                             'frames': 9,
                             'bytes_carried': 3570,
                             'seconds_charged': 0.4908,
                             'seconds_failed': 0.0}],
                  'stores': {'p-0': {'store': 12,
                                     'fetch': 4,
                                     'drop': 4,
                                     'has_room': 8},
                             'p-1': {'store': 3, 'fetch': 3, 'drop': 3},
                             'p-2': {'store': 3, 'fetch': 3, 'drop': 3}},
                  'counters': {'swap.out.count': 18,
                               'swap.in.count': 10,
                               'swap.out.bytes': 10091,
                               'swap.in.bytes': 1600,
                               'replication.cluster.count': 10,
                               'fastpath.encode.count': 18},
                  'events': '525bbeb751e4db338dc30f3e8a6ba29673094d797b15904adc255ec0fb35bd14'},
 'flaky-failover': {'walked': 3.3560649658997885,
                    'clock': 3.5139735373283596,
                    'sched': {'ops_issued': 59,
                              'demand_fetches': 4,
                              'demand_stall_s': 0.389245714285714,
                              'hit_stall_s': 0.056319999999999926,
                              'stall_saved_s': 0.3385142857142853,
                              'prefetch_issued': 9,
                              'prefetch_hits': 6,
                              'prefetch_waste': 0,
                              'prefetch_cancelled': 0,
                              'prefetch_preempted': 0,
                              'prefetch_demoted': 0,
                              'prefetch_failed': 3,
                              'writebacks': 16,
                              'stale_drops': 18,
                              'backpressure_stall_s': 0.3835314285714282,
                              'reloads': 10,
                              'max_queue_depth': 9},
                    'pipeline': {'transfers': 50,
                                 'barriers': 1,
                                 'serial_s': 2.379771428571425,
                                 'pipelined_s': 0.15790857142857107,
                                 'failed_transfers': 0,
                                 'failed_s': 0.0,
                                 'cancelled_transfers': 0,
                                 'cancelled_s': 0.0},
                    'links': [{'transfers': 14,
                               'frames': 14,
                               'bytes_carried': 5363,
                               'seconds_charged': 0.7612914285714284,
                               'seconds_failed': 0.0},
                              {'transfers': 27,
                               'frames': 27,
                               'bytes_carried': 11653,
                               'seconds_charged': 1.4831771428571427,
                               'seconds_failed': 0.0},
                              {'transfers': 23,
                               'frames': 23,
                               'bytes_carried': 9922,
                               'seconds_charged': 1.2633942857142857,
                               'seconds_failed': 0.0}],
                    'stores': {'p-0': {'has_room': 18,
                                       'store': 7,
                                       'fetch': 12,
                                       'drop': 7},
                               'p-1': {'has_room': 18,
                                       'store': 15,
                                       'fetch': 5,
                                       'drop': 7},
                               'p-2': {'has_room': 18,
                                       'store': 14,
                                       'fetch': 3,
                                       'drop': 6}},
                    'counters': {'swap.out.count': 18,
                                 'swap.in.count': 10,
                                 'swap.out.bytes': 10091,
                                 'swap.in.bytes': 1600,
                                 'swap.mirror.writes': 18,
                                 'swap.mirror.failovers': 1,
                                 'replication.cluster.count': 10,
                                 'resilience.retry.count': 6,
                                 'fastpath.encode.count': 18},
                    'events': '93288f747fa593724be4627796a36c2ca13654b0603c749f6e7dc9a1a37fac31'},
 'full-buffer': {'walked': 8.15813714285715,
                 'clock': 8.321634285714293,
                 'sched': {'ops_issued': 244,
                           'demand_fetches': 42,
                           'demand_stall_s': 7.1424571428571495,
                           'hit_stall_s': 0.1693485714285714,
                           'stall_saved_s': 0.11277714285714291,
                           'prefetch_issued': 65,
                           'prefetch_hits': 5,
                           'prefetch_waste': 0,
                           'prefetch_cancelled': 0,
                           'prefetch_preempted': 9,
                           'prefetch_demoted': 50,
                           'prefetch_failed': 0,
                           'writebacks': 43,
                           'stale_drops': 47,
                           'backpressure_stall_s': 0.0,
                           'reloads': 47,
                           'max_queue_depth': 13},
                 'pipeline': {'transfers': 197,
                              'barriers': 1,
                              'serial_s': 8.591760000000006,
                              'pipelined_s': 0.16349714285714256,
                              'failed_transfers': 0,
                              'failed_s': 0.0,
                              'cancelled_transfers': 40,
                              'cancelled_s': 2.2576571428571404},
                 'links': [{'transfers': 149,
                            'frames': 149,
                            'bytes_carried': 65417,
                            'seconds_charged': 8.197622857142866,
                            'seconds_failed': 0.5080342857142852},
                           {'transfers': 32,
                            'frames': 32,
                            'bytes_carried': 15527,
                            'seconds_charged': 1.7774514285714278,
                            'seconds_failed': 0.959542857142856},
                           {'transfers': 31,
                            'frames': 31,
                            'bytes_carried': 14934,
                            'seconds_charged': 1.7206742857142852,
                            'seconds_failed': 0.7900799999999992}],
                 'stores': {'p-0': {'store': 48,
                                    'fetch': 64,
                                    'drop': 37,
                                    'has_room': 43},
                            'p-1': {'store': 5, 'fetch': 22, 'drop': 5},
                            'p-2': {'store': 5, 'fetch': 21, 'drop': 5}},
                 'counters': {'swap.out.count': 58,
                              'swap.in.count': 47,
                              'swap.out.bytes': 32622,
                              'swap.in.bytes': 7520,
                              'replication.cluster.count': 15,
                              'fastpath.encode.count': 58},
                 'events': '5adac9e05a1bf3bd70a353e26cccaca2da0b6c7ec74a43acf12af028c30381ce'},
 'one-channel': {'walked': 1.9795085714285712,
                 'clock': 2.086685714285714,
                 'sched': {'ops_issued': 38,
                           'demand_fetches': 10,
                           'demand_stall_s': 1.415462857142857,
                           'hit_stall_s': 0.0,
                           'stall_saved_s': 0.0,
                           'prefetch_issued': 0,
                           'prefetch_hits': 0,
                           'prefetch_waste': 0,
                           'prefetch_cancelled': 0,
                           'prefetch_preempted': 0,
                           'prefetch_demoted': 0,
                           'prefetch_failed': 0,
                           'writebacks': 8,
                           'stale_drops': 10,
                           'backpressure_stall_s': 0.0,
                           'reloads': 10,
                           'max_queue_depth': 3},
                 'pipeline': {'transfers': 28,
                              'barriers': 1,
                              'serial_s': 1.5226399999999995,
                              'pipelined_s': 0.10717714285714264,
                              'failed_transfers': 0,
                              'failed_s': 0.0,
                              'cancelled_transfers': 0,
                              'cancelled_s': 0.0},
                 'links': [{'transfers': 20,
                            'frames': 20,
                            'bytes_carried': 9211,
                            'seconds_charged': 1.1052685714285717,
                            'seconds_failed': 0.0},
                           {'transfers': 9,
                            'frames': 9,
                            'bytes_carried': 3554,
                            'seconds_charged': 0.49061714285714286,
                            'seconds_failed': 0.0},
                           {'transfers': 9,
                            'frames': 9,
                            'bytes_carried': 3570,
                            'seconds_charged': 0.4908,
                            'seconds_failed': 0.0}],
                 'stores': {'p-0': {'store': 12,
                                    'fetch': 4,
                                    'drop': 4,
                                    'has_room': 8},
                            'p-1': {'store': 3, 'fetch': 3, 'drop': 3},
                            'p-2': {'store': 3, 'fetch': 3, 'drop': 3}},
                 'counters': {'swap.out.count': 18,
                              'swap.in.count': 10,
                              'swap.out.bytes': 10091,
                              'swap.in.bytes': 1600,
                              'replication.cluster.count': 10,
                              'fastpath.encode.count': 18},
                 'events': '525bbeb751e4db338dc30f3e8a6ba29673094d797b15904adc255ec0fb35bd14'},
 'pressure-shed': {'walked': 1.2859999999999998,
                   'clock': 1.3367314285714285,
                   'sched': {'ops_issued': 42,
                             'demand_fetches': 6,
                             'demand_stall_s': 0.4398857142857142,
                             'hit_stall_s': 0.05644571428571421,
                             'stall_saved_s': 0.16921142857142868,
                             'prefetch_issued': 16,
                             'prefetch_hits': 4,
                             'prefetch_waste': 0,
                             'prefetch_cancelled': 12,
                             'prefetch_preempted': 0,
                             'prefetch_demoted': 0,
                             'prefetch_failed': 0,
                             'writebacks': 0,
                             'stale_drops': 10,
                             'backpressure_stall_s': 0.22562285714285713,
                             'reloads': 10,
                             'max_queue_depth': 7},
                   'pipeline': {'transfers': 32,
                                'barriers': 1,
                                'serial_s': 1.6355314285714286,
                                'pipelined_s': 0.05073142857142865,
                                'failed_transfers': 0,
                                'failed_s': 0.11263999999999985,
                                'cancelled_transfers': 2,
                                'cancelled_s': 0.0002514285714285691},
                   'links': [{'transfers': 17,
                              'frames': 17,
                              'bytes_carried': 7522,
                              'seconds_charged': 0.9359657142857144,
                              'seconds_failed': 0.0},
                             {'transfers': 12,
                              'frames': 12,
                              'bytes_carried': 5246,
                              'seconds_charged': 0.6599542857142857,
                              'seconds_failed': 0.05644571428571421},
                             {'transfers': 13,
                              'frames': 13,
                              'bytes_carried': 5823,
                              'seconds_charged': 0.7165485714285714,
                              'seconds_failed': 0.05644571428571421}],
                   'stores': {'p-0': {'store': 4, 'fetch': 9, 'drop': 4},
                              'p-1': {'store': 3, 'fetch': 6, 'drop': 3},
                              'p-2': {'store': 3, 'fetch': 7, 'drop': 3}},
                   'counters': {'swap.out.count': 10,
                                'swap.in.count': 10,
                                'swap.out.bytes': 5604,
                                'swap.in.bytes': 1600,
                                'replication.cluster.count': 10,
                                'fastpath.encode.count': 10},
                   'events': 'c4585af6a22c13897b3e37283e1b6aabd938589954d019bd7b9219d65cbe94d3'},
 'rf3-chase': {'walked': 3.175005714285712,
               'clock': 3.3328799999999976,
               'sched': {'ops_issued': 145,
                         'demand_fetches': 4,
                         'demand_stall_s': 0.3493142857142857,
                         'hit_stall_s': 0.2255314285714285,
                         'stall_saved_s': 0.6770285714285715,
                         'prefetch_issued': 16,
                         'prefetch_hits': 16,
                         'prefetch_waste': 0,
                         'prefetch_cancelled': 0,
                         'prefetch_preempted': 0,
                         'prefetch_demoted': 0,
                         'prefetch_failed': 0,
                         'writebacks': 45,
                         'stale_drops': 60,
                         'backpressure_stall_s': 0.9080228571428557,
                         'reloads': 20,
                         'max_queue_depth': 15},
               'pipeline': {'transfers': 125,
                            'barriers': 1,
                            'serial_s': 6.709942857142838,
                            'pipelined_s': 0.15787428571428563,
                            'failed_transfers': 0,
                            'failed_s': 0.0,
                            'cancelled_transfers': 0,
                            'cancelled_s': 0.0},
               'links': [{'transfers': 31,
                          'frames': 31,
                          'bytes_carried': 11415,
                          'seconds_charged': 1.6804571428571429,
                          'seconds_failed': 0.0},
                         {'transfers': 31,
                          'frames': 31,
                          'bytes_carried': 11420,
                          'seconds_charged': 1.6805142857142858,
                          'seconds_failed': 0.0},
                         {'transfers': 33,
                          'frames': 33,
                          'bytes_carried': 12018,
                          'seconds_charged': 1.7873485714285715,
                          'seconds_failed': 0.0},
                         {'transfers': 31,
                          'frames': 31,
                          'bytes_carried': 11398,
                          'seconds_charged': 1.680262857142857,
                          'seconds_failed': 0.0},
                         {'transfers': 29,
                          'frames': 29,
                          'bytes_carried': 10806,
                          'seconds_charged': 1.573497142857143,
                          'seconds_failed': 0.0}],
               'stores': {'p-0': {'has_room': 25,
                                  'store': 15,
                                  'fetch': 4,
                                  'drop': 12},
                          'p-1': {'has_room': 25,
                                  'store': 15,
                                  'fetch': 4,
                                  'drop': 12},
                          'p-2': {'has_room': 25,
                                  'store': 16,
                                  'fetch': 4,
                                  'drop': 13},
                          'p-3': {'has_room': 25,
                                  'store': 15,
                                  'fetch': 4,
                                  'drop': 12},
                          'p-4': {'has_room': 25,
                                  'store': 14,
                                  'fetch': 4,
                                  'drop': 11}},
               'counters': {'swap.out.count': 25,
                            'swap.in.count': 20,
                            'swap.out.bytes': 14003,
                            'swap.in.bytes': 3200,
                            'swap.mirror.writes': 50,
                            'replication.cluster.count': 10,
                            'fastpath.encode.count': 25},
               'events': '9606a4badfb972c7022427b706f2bf2133c103bb1963a3a71903c85e3bebb7a7'}}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_scheduled_path_matches_pinned_state(shape):
    assert _run_shape(**SHAPES[shape]) == PINNED[shape]
