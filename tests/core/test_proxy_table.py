"""The weak swap-cluster-proxy table.

``Space`` files every live swap-cluster-proxy in one weak bucket per
target swap-cluster: a canonical pair proxy under ``(source_sid,
target_oid)``, an assign-mode cursor under ``id(proxy)``.  A proxy's
weakref callback pops its own entry, so a dropped proxy leaves the
table at once, without the cyclic collector.  The property test drives
random mint/drop/assign/swap/merge histories against a test-side
reference: weakrefs to every proxy the test has seen, grouped by the
swap-cluster each one targets.
"""

from __future__ import annotations

import gc as python_gc
import random
import weakref
from typing import Any, Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utils import SwapClusterUtils
from repro.errors import IntegrityError
from repro.ids import ROOT_SID, Sid
from repro.runtime.classext import is_proxy
from tests.helpers import Pair, build_chain, make_space


def _table(space: Any) -> Dict[int, Tuple[Sid, Any]]:
    """id(proxy) -> (bucket sid, key) for every live entry."""
    table = {}
    for sid in list(space._proxy_buckets):
        for key, proxy in space.proxies_targeting(sid).items():
            assert id(proxy) not in table, "a proxy is filed twice"
            table[id(proxy)] = (sid, key)
    return table


def _proxies_of(space: Any) -> List[Any]:
    """Every live proxy object of ``space`` the interpreter tracks."""
    return [
        obj
        for obj in python_gc.get_objects()
        if is_proxy(obj) and obj._obi_space is space
    ]


def _oids(space: Any, sid: Sid) -> List[int]:
    return sorted(space.clusters()[sid].oids)


@pytest.fixture
def no_cyclic_gc():
    """Prove removal runs on refcount alone: no cyclic collection."""
    python_gc.collect()
    python_gc.disable()
    try:
        yield
    finally:
        python_gc.enable()


def test_dropped_proxy_leaves_its_bucket_at_once(no_cyclic_gc):
    space = make_space()
    space.ingest(build_chain(12), cluster_size=3, root_name="h")
    baseline = space.live_proxy_count()
    assert baseline == len(_proxies_of(space))
    target = _oids(space, 3)[1]
    minted = [space._proxy_for(source, target) for source in (ROOT_SID, 1, 2)]
    assert space.live_proxy_count() == baseline + 3
    assert space.live_proxy_count() == len(_proxies_of(space))
    del minted
    assert space.live_proxy_count() == baseline
    assert all(
        key != (source, target)
        for key in space.proxies_targeting(3)
        for source in (ROOT_SID, 1, 2)
    )
    cursor = space.make_cursor(space.get_root("h"))
    assert id(cursor) in space.proxies_targeting(1)
    del cursor
    assert space.live_proxy_count() == baseline
    assert space.live_proxy_count() == len(_proxies_of(space))


def test_assign_rekeys_so_the_pair_mints_a_new_canonical_proxy():
    space = make_space()
    space.ingest(build_chain(12), cluster_size=3, root_name="h")
    target = _oids(space, 2)[0]
    cursor = space._proxy_for(ROOT_SID, target)
    assert space._proxy_for(ROOT_SID, target) is cursor
    SwapClusterUtils.assign(cursor)
    canonical = space._proxy_for(ROOT_SID, target)
    assert canonical is not cursor
    assert space._proxy_for(ROOT_SID, target) is canonical
    bucket = space.proxies_targeting(2)
    assert bucket[(ROOT_SID, target)] is canonical
    assert bucket[id(cursor)] is cursor

    space.swap_out(2)
    replacement = space.clusters()[2].replacement
    assert cursor._obi_target is replacement
    assert canonical._obi_target is replacement
    space.swap_in(2)
    replica = space._objects[target]
    assert cursor._obi_target is replica
    assert canonical._obi_target is replica
    assert canonical.get_value() == cursor.get_value() == 3
    space.verify_integrity()


def test_assign_on_a_cursor_keeps_its_id_key():
    space = make_space()
    space.ingest(build_chain(6), cluster_size=3, root_name="h")
    cursor = SwapClusterUtils.assign(space.make_cursor(space.get_root("h")))
    assert space.proxies_targeting(1)[id(cursor)] is cursor
    SwapClusterUtils.assign(cursor)
    assert _table(space)[id(cursor)] == (1, id(cursor))


def test_stale_callback_cannot_evict_a_rekeyed_pairs_new_proxy(no_cyclic_gc):
    space = make_space()
    space.ingest(build_chain(12), cluster_size=3, root_name="h")
    target = _oids(space, 2)[0]
    first = SwapClusterUtils.assign(space._proxy_for(ROOT_SID, target))
    second = space._proxy_for(ROOT_SID, target)
    del first
    assert space.proxies_targeting(2)[(ROOT_SID, target)] is second
    assert space._proxy_for(ROOT_SID, target) is second


def test_stale_callback_cannot_evict_after_a_move_and_rekey(no_cyclic_gc):
    space = make_space()
    space.ingest(build_chain(12), cluster_size=3, root_name="h")
    target = _oids(space, 2)[-1]
    first = space._proxy_for(ROOT_SID, target)
    # the entry moves to a new bucket and back, keeping its key ...
    new_sid = space.split_swap_cluster(2, [target])
    assert _table(space)[id(first)] == (new_sid, (ROOT_SID, target))
    space.merge_swap_clusters(2, new_sid)
    assert _table(space)[id(first)] == (2, (ROOT_SID, target))
    # ... is re-keyed, and crosses a boundary as a cursor
    SwapClusterUtils.assign(first)
    second = space._proxy_for(ROOT_SID, target)
    assert first.get_next() is first
    assert _table(space)[id(first)] == (3, id(first))
    del first
    assert space.proxies_targeting(2)[(ROOT_SID, target)] is second
    assert space.live_proxy_count() == len(_proxies_of(space))


def test_merge_and_split_keep_every_proxy_and_key_in_the_right_bucket():
    space = make_space()
    space.ingest(build_chain(20), cluster_size=4, root_name="h")
    held = [
        space._proxy_for(source, oid)
        for source in (ROOT_SID, 1)
        for sid in (2, 3, 4)
        for oid in _oids(space, sid)
    ]
    cursor = SwapClusterUtils.assign(space.make_cursor(held[2]))

    def check(before: Dict[int, Tuple[Sid, Any]]) -> None:
        after = _table(space)
        for proxy in held + [cursor]:
            sid, key = after[id(proxy)]
            assert key == before[id(proxy)][1]
            assert sid == proxy._obi_target_sid
            assert sid == space._sid_by_oid[proxy._obi_target_oid]
            assert proxy._obi_cluster is space.clusters()[sid]
        space.verify_integrity()

    before = _table(space)
    new_sid = space.split_swap_cluster(3, 2)
    check(before)
    assert {
        id(proxy) for proxy in space.proxies_targeting(new_sid).values()
    } >= {id(proxy) for proxy in held if proxy._obi_target_sid == new_sid}
    before = _table(space)
    space.merge_swap_clusters(2, new_sid)
    check(before)
    assert new_sid not in space._proxy_buckets
    before = _table(space)
    space.merge_swap_clusters(4, 3)
    check(before)


def test_collected_clusters_bucket_is_empty_after_tombstoning():
    space = make_space()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    stale = space._proxy_for(ROOT_SID, _oids(space, 2)[0])
    assert space.proxies_targeting(2)
    space.del_root("h")
    result = space.gc()
    assert result.clusters_collected == 2
    assert space.proxies_targeting(2) == {}
    assert 2 not in space._proxy_buckets
    with pytest.raises(IntegrityError):
        stale.get_value()
    del stale
    assert space.live_proxy_count() == 0


# -- property: the table equals the test-side reference -----------------------

_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["mint", "drop", "assign", "walk", "out", "in", "merge", "split"]
        ),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(
    nodes=st.integers(min_value=4, max_value=18),
    cluster_size=st.integers(min_value=1, max_value=4),
    shape_seed=st.integers(min_value=0, max_value=1_000),
    steps=_STEPS,
)
def test_table_matches_the_reference_over_random_histories(
    nodes, cluster_size, shape_seed, steps
):
    # objects that predate the example are frozen out of the collector:
    # gc.get_objects() and gc.collect() then see only this example's
    python_gc.freeze()
    try:
        _random_history_keeps_the_table_exact(
            nodes, cluster_size, shape_seed, steps
        )
    finally:
        python_gc.unfreeze()


def _random_history_keeps_the_table_exact(
    nodes: int, cluster_size: int, shape_seed: int, steps: List[Tuple[str, int]]
) -> None:
    shape = random.Random(shape_seed)
    graph = [Pair() for _ in range(nodes)]
    for index, node in enumerate(graph):
        node.left = graph[(index + 1) % nodes]
        node.right = graph[shape.randrange(nodes)]
    space = make_space(heap_capacity=8 << 20)
    space.ingest(graph[0], cluster_size=cluster_size, root_name="head")
    del graph, node
    held: List[Any] = []
    seen: Dict[int, "weakref.ref[Any]"] = {}
    # by id: proxies hash and compare by target oid, like their target
    cursors: Dict[int, "weakref.ref[Any]"] = {}

    def receive(proxy: Any) -> Any:
        seen[id(proxy)] = weakref.ref(proxy)
        return proxy

    def sids(test) -> List[Sid]:
        return [
            sid
            for sid, cluster in sorted(space.clusters().items())
            if sid != ROOT_SID and cluster.oids and test(cluster)
        ]

    def pick(candidates: List[Any], at: int) -> Any:
        return candidates[at % len(candidates)]

    def check(after: str) -> None:
        # proxies held only by dead member incarnations in reference
        # cycles are garbage, not live references: collect them first
        python_gc.collect()
        # the test also receives what the library mints into member
        # fields (ingest, split boundaries, decode)
        for proxy in _proxies_of(space):
            receive(proxy)
        reference: Dict[Sid, Set[int]] = {}
        for ref in seen.values():
            proxy = ref()
            if proxy is not None and proxy._obi_target_sid in space.clusters():
                reference.setdefault(proxy._obi_target_sid, set()).add(id(proxy))
        table: Dict[Sid, Set[int]] = {}
        for sid in space.clusters():
            for key, proxy in space.proxies_targeting(sid).items():
                table.setdefault(sid, set()).add(id(proxy))
                cursor = cursors.get(id(proxy))
                if cursor is not None and cursor() is proxy:
                    assert key == id(proxy), after
                else:
                    assert key == (proxy._obi_source_sid, proxy._obi_target_oid), after
        assert table == reference, f"after {after}"
        assert space.live_proxy_count() == sum(len(ids) for ids in reference.values())

    check("ingest")
    for kind, at in steps:
        resident = sids(lambda cluster: cluster.swappable())
        swapped = sids(lambda cluster: cluster.is_swapped)
        if kind == "mint":
            targets = sids(lambda cluster: True)
            if targets:
                target_sid = pick(targets, at)
                target = pick(_oids(space, target_sid), at // 7)
                sources = [ROOT_SID] + [s for s in resident if s != target_sid]
                held.append(receive(space._proxy_for(pick(sources, at // 3), target)))
        elif kind == "drop" and held:
            held.pop(at % len(held))
        elif kind == "assign":
            roots = [proxy for proxy in held if proxy._obi_source_sid == ROOT_SID]
            if roots and at % 2:
                cursor = SwapClusterUtils.assign(pick(roots, at))
            else:
                cursor = receive(space.make_cursor(space.get_root("head")))
                SwapClusterUtils.assign(cursor)
                held.append(cursor)
            cursors[id(cursor)] = weakref.ref(cursor)
        elif kind == "walk":
            walkers = [proxy for proxy in held if proxy._obi_assign_mode]
            if walkers:
                cursor = pick(walkers, at)
                for step in range(at % 9):
                    cursor = receive(
                        cursor.get_left() if step % 3 else cursor.get_right()
                    )
        elif kind == "out" and resident:
            space.swap_out(pick(resident, at))
        elif kind == "in" and swapped:
            space.swap_in(pick(swapped, at))
        elif kind == "merge" and len(resident) >= 2:
            absorber, absorbed = pick(resident, at), pick(resident, at + 1)
            if absorber != absorbed:
                space.merge_swap_clusters(absorber, absorbed)
        elif kind == "split":
            splittable = [sid for sid in resident if len(_oids(space, sid)) >= 2]
            if splittable:
                space.split_swap_cluster(pick(splittable, at), 1)
        check(kind)
    space.verify_integrity()
