"""The swap-out paths, pinned.

The swap-out counterpart of ``test_sched_pinned``: each seeded shape
below drives one way a cluster leaves the heap — a full ship at one and
three replicas, a cached re-ship, a metadata-only clean no-op, the
degrade ladder's DROP_CLEAN and COMPRESS_LOCAL rungs, delta ships with
a diverged holder and with a chain compaction, failover past a store
that dies on ship, degrade-to-local when every store refuses, and a
caller-chosen store with mirrors — then swaps clusters back in.  Its
whole observable fingerprint must equal the constants pinned here: the
simulated clock, every non-zero ``counter_snapshot`` entry, cluster
epochs, heap usage, a sha256 of the emitted event stream, the journal
history, the placement records, the fast path's retained copies and
delta chains, and per-store operation counts.  The swap-out code may be
restructured; it may not move a simulated second, a count, a store call
or an event.  Regenerate the pins only for a change that is meant to
move them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Optional

import pytest

from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.fastpath import FastPathConfig
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.errors import ObiError, TransportError
from repro.policy.pressure import classify
from repro.resilience import ResilienceConfig
from repro.stats import counter_snapshot
from tests.helpers import build_chain, chain_values

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

_SHIP_OPS = ("store", "store_stream", "store_delta")

ELEVATED = classify(0.25, 1.0, 0.0)  # COMPRESS_LOCAL
HIGH = classify(0.10, 1.0, 0.0)  # DROP_CLEAN


def _count_ops(store: Any, counts: Dict[str, int], refusing: set) -> None:
    """Wrap ``store``'s operations (instance attributes) to count calls.

    While the store's id is in ``refusing`` it still answers probes, but
    every payload sent to it is lost on the radio.
    """
    for name in _STORE_OPS:
        method = getattr(store, name, None)
        if method is None:
            continue

        def counted(*args: Any, _name: str = name, _method: Any = method,
                    **kwargs: Any) -> Any:
            counts[_name] = counts.get(_name, 0) + 1
            if _name in _SHIP_OPS and store.device_id in refusing:
                raise TransportError(
                    f"{store.device_id}: radio dropped the payload"
                )
            return _method(*args, **kwargs)

        setattr(store, name, counted)


class _Rig:
    """One space over ``stores`` Bluetooth-linked store devices."""

    def __init__(
        self,
        *,
        stores: int = 3,
        nodes: int = 20,
        cluster_size: int = 5,
        resilience: Optional[ResilienceConfig] = None,
        fastpath: Optional[FastPathConfig] = None,
        refusing: tuple = (),
    ) -> None:
        self.clock = SimulatedClock()
        self.space = Space("pinned-out", heap_capacity=1 << 20, clock=self.clock)
        self.manager = self.space.manager
        if resilience is not None:
            self.manager.enable_resilience(resilience)
        if fastpath is not None:
            self.manager.enable_fastpath(fastpath)
        self.stores: List[Any] = []
        self.refusing = {f"s-{index}" for index in refusing}
        self.counts: Dict[str, Dict[str, int]] = {}
        for index in range(stores):
            link = bluetooth_link(self.clock, name=f"bt-{index}")
            store = XmlStoreDevice(f"s-{index}", capacity=1 << 20, link=link)
            self.counts[store.device_id] = {}
            _count_ops(store, self.counts[store.device_id], self.refusing)
            self.manager.add_store(store)
            self.stores.append(store)
        self.events: List[Any] = []
        self.space.bus.subscribe_all(
            lambda event: self.events.append(
                (type(event).__name__, event.describe())
            )
        )
        self.nodes = nodes
        self.handle = self.space.ingest(
            build_chain(nodes), cluster_size=cluster_size, root_name="h"
        )
        self.outcomes: List[str] = []

    def sids(self) -> List[int]:
        return [
            sid
            for sid, cluster in sorted(self.space._clusters.items())
            if not cluster.is_root_cluster and cluster.oids
        ]

    def out(self, sid: int, store: Any = None) -> None:
        """Swap ``sid`` out, recording the error class of a refusal."""
        try:
            location = self.manager.swap_out(sid, store)
        except ObiError as exc:
            self.outcomes.append(type(exc).__name__)
        else:
            self.outcomes.append(f"{location.device_id}@{location.epoch}")

    def cycle(self, sid: int) -> None:
        self.out(sid)
        self.space.swap_in(sid)

    def mutate(self, sid: int, count: int = 1) -> None:
        cluster = self.space._clusters[sid]
        for oid in sorted(cluster.oids)[:count]:
            node = self.space._objects[oid]
            node.value = node.value + 100

    def walk(self) -> List[int]:
        return chain_values(self.handle)

    def fingerprint(self) -> Dict[str, Any]:
        space = self.space
        manager = self.manager
        result: Dict[str, Any] = {
            "clock": self.clock.now(),
            "outcomes": self.outcomes,
            "values": self.walk(),
            "epochs": {
                sid: cluster.epoch
                for sid, cluster in sorted(space._clusters.items())
            },
            "heap_used": space.heap.used,
            "stores": self.counts,
            "counters": {
                name: value
                for name, value in counter_snapshot(manager.stats).items()
                if value
            },
            "events": hashlib.sha256(
                json.dumps(self.events).encode()
            ).hexdigest(),
        }
        resilience = manager.resilience
        if resilience is not None:
            result["journal"] = [
                [entry.sid, entry.key, entry.state.name, list(entry.writes),
                 entry.delta, entry.base_epoch]
                for entry in resilience.journal.history()
            ]
            result["placement"] = {
                sid: {
                    "replicas": {
                        device: state.name
                        for device, state in sorted(record.replicas.items())
                    },
                    "applied": dict(sorted(record.applied_epochs.items())),
                    "verified": record.verified_epoch,
                }
                for sid, record in sorted(resilience.placement.records().items())
            }
        fastpath = manager.fastpath
        if fastpath is not None:
            result["retained"] = {
                sid: [key, [holder.device_id for holder in holders]]
                for sid, (key, holders) in sorted(fastpath.retained.items())
            }
            result["chains"] = {
                sid: list(chain.keys)
                for sid, chain in sorted(fastpath.chains.items())
            }
        return result


# -- shapes ------------------------------------------------------------------


def _full_rf1() -> _Rig:
    rig = _Rig()
    for sid in rig.sids():
        rig.out(sid)
    rig.walk()
    rig.mutate(2)
    rig.out(2)
    rig.out(3)
    return rig


def _full_rf3() -> _Rig:
    rig = _Rig(stores=5, resilience=ResilienceConfig(replication_factor=3))
    for sid in rig.sids():
        rig.out(sid)
    rig.walk()
    rig.mutate(1, count=2)
    rig.out(1)
    return rig


def _reship() -> _Rig:
    # the stores silently lost the copies retained at swap-in, so each
    # clean swap-out's probe misses and it re-ships the cached text
    rig = _Rig(fastpath=FastPathConfig())
    for sid in rig.sids():
        rig.cycle(sid)
    for sid in rig.sids():
        key = rig.space._clusters[sid].clean_key
        for store in rig.stores:
            store._data.pop(key, None)
        rig.out(sid)
    assert rig.manager.stats.fastpath_reships == len(rig.sids())
    return rig


def _clean_noop() -> _Rig:
    rig = _Rig(
        stores=3,
        resilience=ResilienceConfig(replication_factor=2),
        fastpath=FastPathConfig(),
    )
    for sid in rig.sids():
        rig.cycle(sid)
    for sid in rig.sids():
        rig.out(sid)
    assert rig.manager.stats.fastpath_noops == len(rig.sids())
    return rig


def _drop_clean() -> _Rig:
    rig = _Rig(
        resilience=ResilienceConfig(replication_factor=2),
        fastpath=FastPathConfig(),
    )
    ladder = rig.manager.enable_degrade_ladder()
    for sid in rig.sids():
        rig.cycle(sid)
    ladder.assess = lambda: HIGH
    for sid in rig.sids():
        rig.out(sid)
    assert rig.manager.stats.ladder_drop_clean == len(rig.sids())
    return rig


def _compress_local() -> _Rig:
    rig = _Rig(
        resilience=ResilienceConfig(replication_factor=2),
        fastpath=FastPathConfig(delta=True),
    )
    ladder = rig.manager.enable_degrade_ladder()
    rig.cycle(1)
    ladder.assess = lambda: ELEVATED
    rig.mutate(1)
    for sid in rig.sids():
        rig.out(sid)
    rig.walk()
    assert rig.manager.stats.ladder_compress_local == len(rig.sids())
    return rig


def _delta_diverged() -> _Rig:
    rig = _Rig(
        stores=3,
        resilience=ResilienceConfig(replication_factor=3),
        fastpath=FastPathConfig(delta=True),
    )
    for sid in rig.sids():
        rig.cycle(sid)
    # s-1 silently lost sid 2's base payload: its delta is refused
    base_key = rig.space._clusters[2].clean_key
    rig.stores[1]._data.pop(base_key)
    for sid in rig.sids():
        rig.mutate(sid)
        rig.cycle(sid)
    assert rig.manager.stats.fastpath_delta_fallbacks == 1
    return rig


def _delta_compaction() -> _Rig:
    rig = _Rig(
        stores=2,
        resilience=ResilienceConfig(replication_factor=2),
        fastpath=FastPathConfig(delta=True, delta_max_chain=2),
    )
    rig.cycle(2)
    for _ in range(3):
        rig.mutate(2)
        rig.cycle(2)
    rig.mutate(2)
    rig.out(2)
    stats = rig.manager.stats
    assert stats.fastpath_delta_ships == 3
    assert stats.fastpath_delta_compactions == 1
    return rig


def _delta_unreachable() -> _Rig:
    # the only base holder stops taking payloads: the delta path finds
    # no taker and the full path ships to the other store
    rig = _Rig(
        stores=2,
        resilience=ResilienceConfig(),
        fastpath=FastPathConfig(delta=True),
    )
    rig.cycle(1)
    holder = rig.manager.fastpath.retained[1][1][0]
    rig.refusing.add(holder.device_id)
    rig.mutate(1)
    rig.out(1)
    rig.walk()
    assert rig.manager.stats.fastpath_delta_ships == 0
    assert rig.outcomes[-1].startswith("s-1")
    return rig


def _failover() -> _Rig:
    rig = _Rig(stores=3, resilience=ResilienceConfig(), refusing=(0,))
    for sid in rig.sids():
        rig.out(sid)
    rig.walk()
    assert rig.manager.stats.failovers >= 1
    return rig


def _degrade_to_local() -> _Rig:
    rig = _Rig(
        stores=2,
        resilience=ResilienceConfig(replication_factor=2),
        fastpath=FastPathConfig(),
        refusing=(0, 1),
    )
    for sid in rig.sids():
        rig.out(sid)
    rig.walk()
    assert rig.manager.stats.degraded_swaps == len(rig.sids())
    return rig


def _chosen_rf2() -> _Rig:
    rig = _Rig(
        stores=3,
        resilience=ResilienceConfig(replication_factor=2),
        fastpath=FastPathConfig(delta=True),
    )
    for sid in rig.sids():
        rig.out(sid, rig.stores[2])
    rig.walk()
    rig.mutate(1)
    rig.out(1, rig.stores[1])
    return rig


SHAPES: Dict[str, Callable[[], _Rig]] = {
    "full-rf1": _full_rf1,
    "full-rf3": _full_rf3,
    "reship": _reship,
    "clean-noop": _clean_noop,
    "drop-clean": _drop_clean,
    "compress-local": _compress_local,
    "delta-diverged": _delta_diverged,
    "delta-compaction": _delta_compaction,
    "delta-unreachable": _delta_unreachable,
    "failover": _failover,
    "degrade-to-local": _degrade_to_local,
    "chosen-rf2": _chosen_rf2,
}


def _run_shape(shape: str) -> Dict[str, Any]:
    rig = SHAPES[shape]()
    rig.space.verify_integrity()
    fingerprint = rig.fingerprint()
    assert len(fingerprint["values"]) == rig.nodes
    return fingerprint


#: The swap-out paths' fingerprint per shape (``counters`` lists the
#: non-zero entries of ``counter_snapshot``).
PINNED: Dict[str, Dict[str, Any]] = {'chosen-rf2': {'clock': 0.6232914285714285,
                'outcomes': ['s-2@1', 's-2@1', 's-2@1', 's-2@1', 's-1@2'],
                'values': [100,
                           1,
                           2,
                           3,
                           4,
                           5,
                           6,
                           7,
                           8,
                           9,
                           10,
                           11,
                           12,
                           13,
                           14,
                           15,
                           16,
                           17,
                           18,
                           19],
                'epochs': {0: 0, 1: 2, 2: 1, 3: 1, 4: 1},
                'heap_used': 800,
                'stores': {'s-0': {'has_room': 5,
                                   'store_stream': 5,
                                   'drop': 1},
                           's-1': {'store_stream': 1},
                           's-2': {'store_stream': 4, 'drop': 1}},
                'counters': {'swap.out.count': 5,
                             'swap.in.count': 5,
                             'swap.out.bytes': 3400,
                             'swap.in.bytes': 1000,
                             'swap.mirror.writes': 5,
                             'replication.cluster.count': 4,
                             'fastpath.encode.count': 5,
                             'fastpath.swapin.cache_hits': 5},
                'events': '9c2cf6bd2681e3b58875f850f7caf7de9e46718bd313bd4142022b7f0aa8aabe',
                'journal': [[1,
                             'pinned-out/sc-1/e1',
                             'COMMITTED',
                             ['s-2', 's-0'],
                             False,
                             None],
                            [2,
                             'pinned-out/sc-2/e1',
                             'COMMITTED',
                             ['s-2', 's-0'],
                             False,
                             None],
                            [3,
                             'pinned-out/sc-3/e1',
                             'COMMITTED',
                             ['s-2', 's-0'],
                             False,
                             None],
                            [4,
                             'pinned-out/sc-4/e1',
                             'COMMITTED',
                             ['s-2', 's-0'],
                             False,
                             None],
                            [1,
                             'pinned-out/sc-1/e2',
                             'COMMITTED',
                             ['s-1', 's-0'],
                             False,
                             None]],
                'placement': {},
                'retained': {1: ['pinned-out/sc-1/e2', ['s-1', 's-0']],
                             2: ['pinned-out/sc-2/e1', ['s-2', 's-0']],
                             3: ['pinned-out/sc-3/e1', ['s-2', 's-0']],
                             4: ['pinned-out/sc-4/e1', ['s-2', 's-0']]},
                'chains': {1: ['pinned-out/sc-1/e2'],
                           2: ['pinned-out/sc-2/e1'],
                           3: ['pinned-out/sc-3/e1'],
                           4: ['pinned-out/sc-4/e1']}},
 'clean-noop': {'clock': 0.8233142857142856,
                'outcomes': ['s-0@1',
                             's-2@1',
                             's-1@1',
                             's-1@1',
                             's-0@1',
                             's-2@1',
                             's-1@1',
                             's-1@1'],
                'values': [0,
                           1,
                           2,
                           3,
                           4,
                           5,
                           6,
                           7,
                           8,
                           9,
                           10,
                           11,
                           12,
                           13,
                           14,
                           15,
                           16,
                           17,
                           18,
                           19],
                'epochs': {0: 0, 1: 1, 2: 1, 3: 1, 4: 1},
                'heap_used': 800,
                'stores': {'s-0': {'has_room': 4,
                                   'store_stream': 3,
                                   'contains': 3},
                           's-1': {'has_room': 4,
                                   'store_stream': 3,
                                   'contains': 3},
                           's-2': {'has_room': 4,
                                   'store_stream': 2,
                                   'contains': 2}},
                'counters': {'swap.out.count': 8,
                             'swap.in.count': 8,
                             'swap.out.bytes': 2722,
                             'swap.in.bytes': 1600,
                             'swap.mirror.writes': 4,
                             'replication.cluster.count': 4,
                             'fastpath.encode.count': 4,
                             'fastpath.noop.count': 4,
                             'fastpath.swapin.cache_hits': 8},
                'events': '2b393b98e1ceac3d718d1848831ffe5f2c579e4b491c5787e24f78d00120728f',
                'journal': [[1,
                             'pinned-out/sc-1/e1',
                             'COMMITTED',
                             ['s-0', 's-1'],
                             False,
                             None],
                            [2,
                             'pinned-out/sc-2/e1',
                             'COMMITTED',
                             ['s-2', 's-0'],
                             False,
                             None],
                            [3,
                             'pinned-out/sc-3/e1',
                             'COMMITTED',
                             ['s-1', 's-2'],
                             False,
                             None],
                            [4,
                             'pinned-out/sc-4/e1',
                             'COMMITTED',
                             ['s-1', 's-0'],
                             False,
                             None]],
                'placement': {},
                'retained': {1: ['pinned-out/sc-1/e1', ['s-0', 's-1']],
                             2: ['pinned-out/sc-2/e1', ['s-2', 's-0']],
                             3: ['pinned-out/sc-3/e1', ['s-1', 's-2']],
                             4: ['pinned-out/sc-4/e1', ['s-1', 's-0']]},
                'chains': {}},
 'compress-local': {'clock': 0.20576,
                    'outcomes': ['s-0@1',
                                 'compressed-pool@2',
                                 'compressed-pool@1',
                                 'compressed-pool@1',
                                 'compressed-pool@1'],
                    'values': [100,
                               1,
                               2,
                               3,
                               4,
                               5,
                               6,
                               7,
                               8,
                               9,
                               10,
                               11,
                               12,
                               13,
                               14,
                               15,
                               16,
                               17,
                               18,
                               19],
                    'epochs': {0: 0, 1: 2, 2: 1, 3: 1, 4: 1},
                    'heap_used': 1535,
                    'stores': {'s-0': {'has_room': 1,
                                       'store_stream': 1,
                                       'drop': 1},
                               's-1': {'has_room': 1,
                                       'store_stream': 1,
                                       'drop': 1},
                               's-2': {'has_room': 1}},
                    'counters': {'swap.out.count': 5,
                                 'swap.in.count': 5,
                                 'swap.out.bytes': 3400,
                                 'swap.in.bytes': 1000,
                                 'swap.mirror.writes': 1,
                                 'replication.cluster.count': 4,
                                 'fastpath.encode.count': 5,
                                 'fastpath.swapin.cache_hits': 5,
                                 'policy.ladder.escalations': 1,
                                 'policy.ladder.compress_local': 4},
                    'events': '5f3e69005b5f597f90dc140707527158df3ea2009378fc4633f02a26aafed0d2',
                    'journal': [[1,
                                 'pinned-out/sc-1/e1',
                                 'COMMITTED',
                                 ['s-0', 's-1'],
                                 False,
                                 None],
                                [1,
                                 'pinned-out/sc-1/e2',
                                 'COMMITTED',
                                 ['compressed-pool'],
                                 False,
                                 None],
                                [2,
                                 'pinned-out/sc-2/e1',
                                 'COMMITTED',
                                 ['compressed-pool'],
                                 False,
                                 None],
                                [3,
                                 'pinned-out/sc-3/e1',
                                 'COMMITTED',
                                 ['compressed-pool'],
                                 False,
                                 None],
                                [4,
                                 'pinned-out/sc-4/e1',
                                 'COMMITTED',
                                 ['compressed-pool'],
                                 False,
                                 None]],
                    'placement': {},
                    'retained': {1: ['pinned-out/sc-1/e2',
                                     ['compressed-pool']],
                                 2: ['pinned-out/sc-2/e1',
                                     ['compressed-pool']],
                                 3: ['pinned-out/sc-3/e1',
                                     ['compressed-pool']],
                                 4: ['pinned-out/sc-4/e1',
                                     ['compressed-pool']]},
                    'chains': {1: ['pinned-out/sc-1/e2'],
                               2: ['pinned-out/sc-2/e1'],
                               3: ['pinned-out/sc-3/e1'],
                               4: ['pinned-out/sc-4/e1']}},
 'degrade-to-local': {'clock': 4.278540996226864,
                      'outcomes': ['compressed-pool@1',
                                   'compressed-pool@1',
                                   'compressed-pool@1',
                                   'compressed-pool@1'],
                      'values': [0,
                                 1,
                                 2,
                                 3,
                                 4,
                                 5,
                                 6,
                                 7,
                                 8,
                                 9,
                                 10,
                                 11,
                                 12,
                                 13,
                                 14,
                                 15,
                                 16,
                                 17,
                                 18,
                                 19],
                      'epochs': {0: 0, 1: 1, 2: 1, 3: 1, 4: 1},
                      'heap_used': 1532,
                      'stores': {'s-0': {'has_room': 3, 'store_stream': 12},
                                 's-1': {'has_room': 3, 'store_stream': 12}},
                      'counters': {'swap.out.count': 4,
                                   'swap.in.count': 4,
                                   'swap.out.bytes': 2722,
                                   'swap.in.bytes': 800,
                                   'replication.cluster.count': 4,
                                   'resilience.retry.count': 18,
                                   'resilience.circuit.opens': 2,
                                   'resilience.degraded.count': 4,
                                   'fastpath.encode.count': 4,
                                   'fastpath.swapin.cache_hits': 4},
                      'events': '6546737f27b5be84b829a1453e519156af5722dbfd409d01fece1766350a18a5',
                      'journal': [[1,
                                   'pinned-out/sc-1/e1',
                                   'COMMITTED',
                                   ['compressed-pool'],
                                   False,
                                   None],
                                  [2,
                                   'pinned-out/sc-2/e1',
                                   'COMMITTED',
                                   ['compressed-pool'],
                                   False,
                                   None],
                                  [3,
                                   'pinned-out/sc-3/e1',
                                   'COMMITTED',
                                   ['compressed-pool'],
                                   False,
                                   None],
                                  [4,
                                   'pinned-out/sc-4/e1',
                                   'COMMITTED',
                                   ['compressed-pool'],
                                   False,
                                   None]],
                      'placement': {},
                      'retained': {1: ['pinned-out/sc-1/e1',
                                       ['compressed-pool']],
                                   2: ['pinned-out/sc-2/e1',
                                       ['compressed-pool']],
                                   3: ['pinned-out/sc-3/e1',
                                       ['compressed-pool']],
                                   4: ['pinned-out/sc-4/e1',
                                       ['compressed-pool']]},
                      'chains': {}},
 'delta-compaction': {'clock': 0.8241142857142857,
                      'outcomes': ['s-0@1',
                                   's-0@2',
                                   's-0@3',
                                   's-0@4',
                                   's-0@5'],
                      'values': [0,
                                 1,
                                 2,
                                 3,
                                 4,
                                 405,
                                 6,
                                 7,
                                 8,
                                 9,
                                 10,
                                 11,
                                 12,
                                 13,
                                 14,
                                 15,
                                 16,
                                 17,
                                 18,
                                 19],
                      'epochs': {0: 0, 1: 0, 2: 5, 3: 0, 4: 0},
                      'heap_used': 800,
                      'stores': {'s-0': {'has_room': 2,
                                         'store_stream': 2,
                                         'store_delta': 3,
                                         'drop': 3},
                                 's-1': {'has_room': 2,
                                         'store_stream': 2,
                                         'store_delta': 3,
                                         'drop': 3}},
                      'counters': {'swap.out.count': 5,
                                   'swap.in.count': 5,
                                   'swap.out.bytes': 2009,
                                   'swap.in.bytes': 1000,
                                   'swap.mirror.writes': 5,
                                   'replication.cluster.count': 4,
                                   'fastpath.encode.count': 2,
                                   'fastpath.swapin.cache_hits': 5,
                                   'fastpath.delta.ships': 3,
                                   'fastpath.delta.compactions': 1,
                                   'fastpath.delta.bytes_shipped': 1302,
                                   'fastpath.delta.bytes_saved': 2778},
                      'events': 'e5d599e62e0153b240dc8a7508ab44fa605f232f84e6461446778c7316a2c1c7',
                      'journal': [[2,
                                   'pinned-out/sc-2/e1',
                                   'COMMITTED',
                                   ['s-0', 's-1'],
                                   False,
                                   None],
                                  [2,
                                   'pinned-out/sc-2/e2',
                                   'COMMITTED',
                                   ['s-0', 's-1'],
                                   True,
                                   1],
                                  [2,
                                   'pinned-out/sc-2/e3',
                                   'COMMITTED',
                                   ['s-0', 's-1'],
                                   True,
                                   2],
                                  [2,
                                   'pinned-out/sc-2/e4',
                                   'COMMITTED',
                                   ['s-0', 's-1'],
                                   False,
                                   None],
                                  [2,
                                   'pinned-out/sc-2/e5',
                                   'COMMITTED',
                                   ['s-0', 's-1'],
                                   True,
                                   4]],
                      'placement': {},
                      'retained': {2: ['pinned-out/sc-2/e5', ['s-0', 's-1']]},
                      'chains': {2: ['pinned-out/sc-2/e4',
                                     'pinned-out/sc-2/e5']}},
 'delta-diverged': {'clock': 1.2997371428571425,
                    'outcomes': ['s-0@1',
                                 's-0@1',
                                 's-0@1',
                                 's-0@1',
                                 's-0@2',
                                 's-0@2',
                                 's-0@2',
                                 's-0@2'],
                    'values': [100,
                               1,
                               2,
                               3,
                               4,
                               105,
                               6,
                               7,
                               8,
                               9,
                               110,
                               11,
                               12,
                               13,
                               14,
                               115,
                               16,
                               17,
                               18,
                               19],
                    'epochs': {0: 0, 1: 2, 2: 2, 3: 2, 4: 2},
                    'heap_used': 800,
                    'stores': {'s-0': {'has_room': 4,
                                       'store_stream': 4,
                                       'store_delta': 4},
                               's-1': {'has_room': 4,
                                       'store_stream': 5,
                                       'store_delta': 4},
                               's-2': {'has_room': 4,
                                       'store_stream': 4,
                                       'store_delta': 4}},
                    'counters': {'swap.out.count': 8,
                                 'swap.in.count': 8,
                                 'swap.out.bytes': 3594,
                                 'swap.in.bytes': 1600,
                                 'swap.mirror.writes': 16,
                                 'replication.cluster.count': 4,
                                 'fastpath.encode.count': 4,
                                 'fastpath.swapin.cache_hits': 8,
                                 'fastpath.delta.ships': 4,
                                 'fastpath.delta.fallbacks': 1,
                                 'fastpath.delta.bytes_shipped': 2399,
                                 'fastpath.delta.bytes_saved': 5105},
                    'events': '374e9131d53f92582c56a16c1e1149aefc1c37ce4a8e64253e1dbea55d906b33',
                    'journal': [[1,
                                 'pinned-out/sc-1/e1',
                                 'COMMITTED',
                                 ['s-0', 's-1', 's-2'],
                                 False,
                                 None],
                                [2,
                                 'pinned-out/sc-2/e1',
                                 'COMMITTED',
                                 ['s-0', 's-1', 's-2'],
                                 False,
                                 None],
                                [3,
                                 'pinned-out/sc-3/e1',
                                 'COMMITTED',
                                 ['s-0', 's-1', 's-2'],
                                 False,
                                 None],
                                [4,
                                 'pinned-out/sc-4/e1',
                                 'COMMITTED',
                                 ['s-0', 's-1', 's-2'],
                                 False,
                                 None],
                                [1,
                                 'pinned-out/sc-1/e2',
                                 'COMMITTED',
                                 ['s-0', 's-1', 's-2'],
                                 True,
                                 1],
                                [2,
                                 'pinned-out/sc-2/e2',
                                 'COMMITTED',
                                 ['s-0', 's-1', 's-2'],
                                 True,
                                 1],
                                [3,
                                 'pinned-out/sc-3/e2',
                                 'COMMITTED',
                                 ['s-0', 's-1', 's-2'],
                                 True,
                                 1],
                                [4,
                                 'pinned-out/sc-4/e2',
                                 'COMMITTED',
                                 ['s-0', 's-1', 's-2'],
                                 True,
                                 1]],
                    'placement': {},
                    'retained': {1: ['pinned-out/sc-1/e2',
                                     ['s-0', 's-1', 's-2']],
                                 2: ['pinned-out/sc-2/e2',
                                     ['s-0', 's-1', 's-2']],
                                 3: ['pinned-out/sc-3/e2',
                                     ['s-0', 's-1', 's-2']],
                                 4: ['pinned-out/sc-4/e2',
                                     ['s-0', 's-1', 's-2']]},
                    'chains': {1: ['pinned-out/sc-1/e1', 'pinned-out/sc-1/e2'],
                               2: ['pinned-out/sc-2/e1', 'pinned-out/sc-2/e2'],
                               3: ['pinned-out/sc-3/e1', 'pinned-out/sc-3/e2'],
                               4: ['pinned-out/sc-4/e1',
                                   'pinned-out/sc-4/e2']}},
 'delta-unreachable': {'clock': 1.5539392516140746,
                       'outcomes': ['s-0@1', 's-1@2'],
                       'values': [100,
                                  1,
                                  2,
                                  3,
                                  4,
                                  5,
                                  6,
                                  7,
                                  8,
                                  9,
                                  10,
                                  11,
                                  12,
                                  13,
                                  14,
                                  15,
                                  16,
                                  17,
                                  18,
                                  19],
                       'epochs': {0: 0, 1: 2, 2: 0, 3: 0, 4: 0},
                       'heap_used': 800,
                       'stores': {'s-0': {'has_room': 2,
                                          'store_stream': 5,
                                          'store_delta': 4,
                                          'drop': 1},
                                  's-1': {'has_room': 2, 'store_stream': 1}},
                       'counters': {'swap.out.count': 2,
                                    'swap.in.count': 2,
                                    'swap.out.bytes': 1354,
                                    'swap.in.bytes': 400,
                                    'replication.cluster.count': 4,
                                    'resilience.retry.count': 6,
                                    'fastpath.encode.count': 2,
                                    'fastpath.swapin.cache_hits': 2},
                       'events': 'a03b2d32886835d92548a3b522955f516b9a77c5c530b80bf2c59d46c9f07d6a',
                       'journal': [[1,
                                    'pinned-out/sc-1/e1',
                                    'COMMITTED',
                                    ['s-0'],
                                    False,
                                    None],
                                   [1,
                                    'pinned-out/sc-1/e2',
                                    'ABORTED',
                                    [],
                                    True,
                                    1],
                                   [1,
                                    'pinned-out/sc-1/e2',
                                    'COMMITTED',
                                    ['s-1'],
                                    False,
                                    None]],
                       'placement': {},
                       'retained': {1: ['pinned-out/sc-1/e2', ['s-1']]},
                       'chains': {1: ['pinned-out/sc-1/e2']}},
 'drop-clean': {'clock': 0.41746285714285714,
                'outcomes': ['s-0@1',
                             's-2@1',
                             's-1@1',
                             's-1@1',
                             's-0@1',
                             's-2@1',
                             's-1@1',
                             's-1@1'],
                'values': [0,
                           1,
                           2,
                           3,
                           4,
                           5,
                           6,
                           7,
                           8,
                           9,
                           10,
                           11,
                           12,
                           13,
                           14,
                           15,
                           16,
                           17,
                           18,
                           19],
                'epochs': {0: 0, 1: 1, 2: 1, 3: 1, 4: 1},
                'heap_used': 800,
                'stores': {'s-0': {'has_room': 4, 'store_stream': 3},
                           's-1': {'has_room': 4, 'store_stream': 3},
                           's-2': {'has_room': 4, 'store_stream': 2}},
                'counters': {'swap.out.count': 8,
                             'swap.in.count': 8,
                             'swap.out.bytes': 2722,
                             'swap.in.bytes': 1600,
                             'swap.mirror.writes': 4,
                             'replication.cluster.count': 4,
                             'fastpath.encode.count': 4,
                             'fastpath.swapin.cache_hits': 8,
                             'policy.ladder.escalations': 1,
                             'policy.ladder.drop_clean': 4},
                'events': '8bf10da995c4d220efb922aed45a064eb017b58d9d354776103785dccf4a8ad5',
                'journal': [[1,
                             'pinned-out/sc-1/e1',
                             'COMMITTED',
                             ['s-0', 's-1'],
                             False,
                             None],
                            [2,
                             'pinned-out/sc-2/e1',
                             'COMMITTED',
                             ['s-2', 's-0'],
                             False,
                             None],
                            [3,
                             'pinned-out/sc-3/e1',
                             'COMMITTED',
                             ['s-1', 's-2'],
                             False,
                             None],
                            [4,
                             'pinned-out/sc-4/e1',
                             'COMMITTED',
                             ['s-1', 's-0'],
                             False,
                             None]],
                'placement': {},
                'retained': {1: ['pinned-out/sc-1/e1', ['s-0', 's-1']],
                             2: ['pinned-out/sc-2/e1', ['s-2', 's-0']],
                             3: ['pinned-out/sc-3/e1', ['s-1', 's-2']],
                             4: ['pinned-out/sc-4/e1', ['s-1', 's-0']]},
                'chains': {}},
 'failover': {'clock': 1.3759951967574384,
              'outcomes': ['s-1@1', 's-2@1', 's-1@1', 's-2@1'],
              'values': [0,
                         1,
                         2,
                         3,
                         4,
                         5,
                         6,
                         7,
                         8,
                         9,
                         10,
                         11,
                         12,
                         13,
                         14,
                         15,
                         16,
                         17,
                         18,
                         19],
              'epochs': {0: 0, 1: 1, 2: 1, 3: 1, 4: 1},
              'heap_used': 800,
              'stores': {'s-0': {'has_room': 4, 'store': 4},
                         's-1': {'has_room': 5,
                                 'store': 2,
                                 'fetch': 2,
                                 'drop': 2},
                         's-2': {'has_room': 4,
                                 'store': 2,
                                 'fetch': 2,
                                 'drop': 2}},
              'counters': {'swap.out.count': 4,
                           'swap.in.count': 4,
                           'swap.out.bytes': 2722,
                           'swap.in.bytes': 800,
                           'replication.cluster.count': 4,
                           'resilience.retry.count': 3,
                           'resilience.failover.count': 1,
                           'fastpath.encode.count': 4},
              'events': '3a551796296dc171a007ca859f28eb7283a55e38d186a2a424428bb84d44a375',
              'journal': [[1,
                           'pinned-out/sc-1/e1',
                           'COMMITTED',
                           ['s-1'],
                           False,
                           None],
                          [2,
                           'pinned-out/sc-2/e1',
                           'COMMITTED',
                           ['s-2'],
                           False,
                           None],
                          [3,
                           'pinned-out/sc-3/e1',
                           'COMMITTED',
                           ['s-1'],
                           False,
                           None],
                          [4,
                           'pinned-out/sc-4/e1',
                           'COMMITTED',
                           ['s-2'],
                           False,
                           None]],
              'placement': {}},
 'full-rf1': {'clock': 0.7808,
              'outcomes': ['s-0@1',
                           's-0@1',
                           's-0@1',
                           's-0@1',
                           's-0@2',
                           's-0@2'],
              'values': [0,
                         1,
                         2,
                         3,
                         4,
                         105,
                         6,
                         7,
                         8,
                         9,
                         10,
                         11,
                         12,
                         13,
                         14,
                         15,
                         16,
                         17,
                         18,
                         19],
              'epochs': {0: 0, 1: 1, 2: 2, 3: 2, 4: 1},
              'heap_used': 800,
              'stores': {'s-0': {'has_room': 6,
                                 'store': 6,
                                 'fetch': 6,
                                 'drop': 6},
                         's-1': {},
                         's-2': {}},
              'counters': {'swap.out.count': 6,
                           'swap.in.count': 6,
                           'swap.out.bytes': 4092,
                           'swap.in.bytes': 1200,
                           'replication.cluster.count': 4,
                           'fastpath.encode.count': 6},
              'events': '78915734b3f5825ee4bf1c8625e7e2c26627801a7ed60859a71143e15f5b038f'},
 'full-rf3': {'clock': 1.7065257142857153,
              'outcomes': ['s-0@1', 's-3@1', 's-1@1', 's-4@1', 's-0@2'],
              'values': [100,
                         101,
                         2,
                         3,
                         4,
                         5,
                         6,
                         7,
                         8,
                         9,
                         10,
                         11,
                         12,
                         13,
                         14,
                         15,
                         16,
                         17,
                         18,
                         19],
              'epochs': {0: 0, 1: 2, 2: 1, 3: 1, 4: 1},
              'heap_used': 800,
              'stores': {'s-0': {'has_room': 5,
                                 'store': 4,
                                 'fetch': 2,
                                 'drop': 4},
                         's-1': {'has_room': 5,
                                 'store': 4,
                                 'drop': 4,
                                 'fetch': 1},
                         's-2': {'has_room': 5, 'store': 3, 'drop': 3},
                         's-3': {'has_room': 5,
                                 'store': 2,
                                 'fetch': 1,
                                 'drop': 2},
                         's-4': {'has_room': 5,
                                 'store': 2,
                                 'drop': 2,
                                 'fetch': 1}},
              'counters': {'swap.out.count': 5,
                           'swap.in.count': 5,
                           'swap.out.bytes': 3402,
                           'swap.in.bytes': 1000,
                           'swap.mirror.writes': 10,
                           'replication.cluster.count': 4,
                           'fastpath.encode.count': 5},
              'events': '0ee252b7480fb1eadb83f793bb49bc05be15fe1a849edb13ca192a8c60d0aaac',
              'journal': [[1,
                           'pinned-out/sc-1/e1',
                           'COMMITTED',
                           ['s-0', 's-1', 's-2'],
                           False,
                           None],
                          [2,
                           'pinned-out/sc-2/e1',
                           'COMMITTED',
                           ['s-3', 's-4', 's-0'],
                           False,
                           None],
                          [3,
                           'pinned-out/sc-3/e1',
                           'COMMITTED',
                           ['s-1', 's-2', 's-3'],
                           False,
                           None],
                          [4,
                           'pinned-out/sc-4/e1',
                           'COMMITTED',
                           ['s-4', 's-0', 's-1'],
                           False,
                           None],
                          [1,
                           'pinned-out/sc-1/e2',
                           'COMMITTED',
                           ['s-0', 's-1', 's-2'],
                           False,
                           None]],
              'placement': {}},
 'reship': {'clock': 0.6203885714285714,
            'outcomes': ['s-0@1',
                         's-0@1',
                         's-0@1',
                         's-0@1',
                         's-0@1',
                         's-0@1',
                         's-0@1',
                         's-0@1'],
            'values': [0,
                       1,
                       2,
                       3,
                       4,
                       5,
                       6,
                       7,
                       8,
                       9,
                       10,
                       11,
                       12,
                       13,
                       14,
                       15,
                       16,
                       17,
                       18,
                       19],
            'epochs': {0: 0, 1: 1, 2: 1, 3: 1, 4: 1},
            'heap_used': 800,
            'stores': {'s-0': {'has_room': 8,
                               'store_stream': 8,
                               'contains': 4},
                       's-1': {},
                       's-2': {}},
            'counters': {'swap.out.count': 8,
                         'swap.in.count': 8,
                         'swap.out.bytes': 5444,
                         'swap.in.bytes': 1600,
                         'replication.cluster.count': 4,
                         'fastpath.encode.count': 4,
                         'fastpath.reship.count': 4,
                         'fastpath.swapin.cache_hits': 8},
            'events': 'a79f89c85247481aef33087e7abec8b556e369e1697c8792b967ddc2ba6a486f',
            'retained': {1: ['pinned-out/sc-1/e1', ['s-0']],
                         2: ['pinned-out/sc-2/e1', ['s-0']],
                         3: ['pinned-out/sc-3/e1', ['s-0']],
                         4: ['pinned-out/sc-4/e1', ['s-0']]},
            'chains': {}}}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_swap_out_paths_match_pinned_state(shape):
    assert _run_shape(shape) == PINNED[shape]
