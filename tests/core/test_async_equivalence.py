"""The blocking fault path, pinned; the async scheduler bends only time.

With no scheduler attached, every swap runs inline on the global clock:
the paper's blocking protocol.  Each seeded workload shape below is
replayed on that path and its whole observable fingerprint — the
simulated clock, every unified counter, cluster epochs, heap occupancy
and a sha256 of the emitted event stream — must equal the constants
pinned here.  Any divergence means a change leaked behaviour into the
blocking path.  Regenerate the pins only for a change that is meant to
move them.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.stats import counter_snapshot
from tests.helpers import build_chain, chain_values


def _run_workload(
    *,
    nodes: int = 30,
    cluster_size: int = 5,
    stores: int = 3,
    clamp: int = 0,
    resilience: bool = False,
    replication: int = 1,
    mutate_seed: int = 0,
):
    """One seeded walk; returns the full observable state fingerprint."""
    clock = SimulatedClock()
    space = Space("equiv", heap_capacity=1 << 20, clock=clock)
    manager = space.manager
    if resilience:
        manager.enable_resilience()
        manager.replication_factor = replication
    for index in range(stores):
        link = bluetooth_link(clock, name=f"bt-{index}")
        manager.add_store(
            XmlStoreDevice(f"p-{index}", capacity=1 << 20, link=link)
        )
    events = []
    space.bus.subscribe_all(
        lambda event: events.append((type(event).__name__, event.describe()))
    )
    handle = space.ingest(
        build_chain(nodes), cluster_size=cluster_size, root_name="h"
    )
    for sid, cluster in sorted(space._clusters.items()):
        if cluster.swappable() and cluster.oids:
            manager.swap_out(sid)
    if clamp:
        space.heap.capacity = space.heap.used + clamp

    values = chain_values(handle)
    if mutate_seed:
        # a second pass that dirties objects and re-walks
        rng = random.Random(mutate_seed)
        cursor = handle
        while cursor is not None:
            if rng.random() < 0.3:
                cursor.set_value(cursor.get_value() + 1000)
            cursor = cursor.get_next()
        values = chain_values(handle)

    return {
        "values": values,
        "clock": clock.now(),
        "counters": counter_snapshot(manager.stats),
        "epochs": [
            cluster.epoch for _sid, cluster in sorted(space._clusters.items())
        ],
        "heap": space.heap.used,
        "events": hashlib.sha256(json.dumps(events).encode()).hexdigest(),
    }


def _expected_values(nodes: int = 30, mutate_seed: int = 0, **_shape):
    values = list(range(nodes))
    if mutate_seed:
        rng = random.Random(mutate_seed)
        values = [
            value + 1000 if rng.random() < 0.3 else value for value in values
        ]
    return values


SHAPES = {
    "plain-walk": {},
    "evicting-walk": {"nodes": 40, "cluster_size": 4, "clamp": 400},
    "replicated": {"resilience": True, "replication": 2},
    "mutating-rewalk": {"mutate_seed": 7},
    "evicting-replicated": {
        "nodes": 40,
        "cluster_size": 4,
        "clamp": 400,
        "resilience": True,
        "replication": 2,
    },
}

_SMALL_COUNTERS = {
    "swap.out.count": 6,
    "swap.in.count": 6,
    "swap.out.bytes": 4072,
    "swap.in.bytes": 1200,
    "replication.cluster.count": 6,
    "fastpath.encode.count": 6,
}
_EVICTING_COUNTERS = {
    "swap.out.count": 18,
    "swap.in.count": 10,
    "swap.out.bytes": 10073,
    "swap.in.bytes": 1600,
    "replication.cluster.count": 10,
    "fastpath.encode.count": 18,
}

#: The blocking path's fingerprint per shape.  ``counters`` lists every
#: non-zero entry of ``counter_snapshot``; all others must be zero.
PINNED = {
    "plain-walk": {
        "clock": 0.9974628571428571,
        "counters": _SMALL_COUNTERS,
        "epochs": [0, 1, 1, 1, 1, 1, 1],
        "heap": 1200,
        "events": "5effa43fc1a35e9e7a6eaf3e00889d789bb10e04c0a16b3c78d2355dcd41eb34",
    },
    "evicting-walk": {
        "clock": 2.086365714285714,
        "counters": _EVICTING_COUNTERS,
        "epochs": [0, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1],
        "heap": 512,
        "events": "bdd297d5703b247eaf647a00212221b07a8922e062d901804222d7f7d3312f23",
    },
    "replicated": {
        "clock": 1.6483885714285718,
        "counters": {**_SMALL_COUNTERS, "swap.mirror.writes": 6},
        "epochs": [0, 1, 1, 1, 1, 1, 1],
        "heap": 1200,
        "events": "e016be3811999985d6fe100b6e1a2216bfc5d4167d58a261463837f5764e799a",
    },
    # the mutations land on resident clusters, so the swap traffic is
    # the plain walk's; only the values differ
    "mutating-rewalk": {
        "clock": 0.9974628571428571,
        "counters": _SMALL_COUNTERS,
        "epochs": [0, 1, 1, 1, 1, 1, 1],
        "heap": 1200,
        "events": "5effa43fc1a35e9e7a6eaf3e00889d789bb10e04c0a16b3c78d2355dcd41eb34",
    },
    "evicting-replicated": {
        "clock": 3.6088000000000005,
        "counters": {**_EVICTING_COUNTERS, "swap.mirror.writes": 18},
        "epochs": [0, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1],
        "heap": 512,
        "events": "f73e4b51912d3b4d8a4215360e27e2ef44db128469fc5a7e4c27ff7a65835ec1",
    },
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_blocking_path_matches_pinned_state(shape):
    run = _run_workload(**SHAPES[shape])
    pinned = PINNED[shape]
    assert run["values"] == _expected_values(**SHAPES[shape])
    assert run["clock"] == pinned["clock"]
    assert {
        name: value for name, value in run["counters"].items() if value
    } == pinned["counters"]
    assert run["epochs"] == pinned["epochs"]
    assert run["heap"] == pinned["heap"]
    assert run["events"] == pinned["events"]


def test_full_async_mode_preserves_results_but_not_the_clock():
    """The async schedule may bend time, never data: same values, same
    epoch structure, strictly no more stalled seconds."""
    legacy = _run_workload()
    clock = SimulatedClock()
    space = Space("equiv", heap_capacity=1 << 20, clock=clock)
    for index in range(3):
        link = bluetooth_link(clock, name=f"bt-{index}")
        space.manager.add_store(
            XmlStoreDevice(f"p-{index}", capacity=1 << 20, link=link)
        )
    handle = space.ingest(build_chain(30), cluster_size=5, root_name="h")
    for sid, cluster in sorted(space._clusters.items()):
        if cluster.swappable() and cluster.oids:
            space.manager.swap_out(sid)
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    values = chain_values(handle)
    sched.drain()
    assert values == legacy["values"]
    assert space.manager.stats.swap_ins == legacy["counters"]["swap.in.count"]
