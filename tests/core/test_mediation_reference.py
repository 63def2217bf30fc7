"""The generated forwarders and the one mint path against a reference.

The reference is the earlier interception code, kept here verbatim in
behaviour: every method call funnels through one generic ``invoke``, and
every proxy is built by ``proxy_for``/``make_cursor`` with
``object.__setattr__`` slot writes, under a proxy class cached by
class name.  Field reads and writes record crossings through a
``record_crossing`` helper.

The property test builds two identical spaces.  One runs the library as
it is; in the other, ``_proxy_for`` and ``make_cursor`` are the reference
and every proxy is a reference proxy.  Random histories of calls
(exact-arity, varargs/kwargs, defaults, ``@readonly``, container
arguments, non-public methods, field reads and writes), assign-mode
cursors, drops, swap-out/in, merges and splits run on both in lockstep.
After every step both must agree on results and proxy identity, the
crossing statistics and tick, every dirty flag, and the keys filed in
each target swap-cluster's proxy bucket.

The reference proxies read every attribute through ``__getattr__``; the
generated ones have none and read through one accessor per registered
name.  The histories therefore also read fields first written inside a
method after adoption or through a proxy, a field only a stored
document carries, a property, a class constant and static and class
methods.  A name no managed class or instance has ever had is the one
intended difference, pinned by its own test below.
"""

from __future__ import annotations

import gc as python_gc
import random
import uuid
import weakref
from functools import partial
from types import MethodType
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.replacement import ReplacementObject
from repro.core.swap_proxy import SwapClusterProxyBase
from repro.core.utils import SwapClusterUtils
from repro.errors import IntegrityError
from repro.ids import ROOT_SID
from repro.runtime import managed, readonly
from repro.runtime.barrier import MUTABLE_CONTAINERS
from repro.runtime.classext import is_proxy
from repro.runtime.obicomp import ACCESSOR_NAMES
from tests.helpers import make_space

_object_setattr = object.__setattr__
_ATOMIC_RESULTS = frozenset({int, float, str, bool, bytes, type(None)})


@managed
class MediationCell:
    """A graph node with one method per forwarder shape."""

    def __init__(self, value: int) -> None:
        self.value = value
        self.left: Any = None
        self.right: Any = None

    def get_left(self) -> Any:
        return self.left

    def get_right(self) -> Any:
        return self.right

    def set_value(self, value: int) -> int:
        self.value = value
        return value

    @readonly
    def read_value(self) -> int:
        return self.value

    def echo(self, other: Any) -> Any:
        return other

    def link(self, other: Any) -> None:
        self.right = other

    def keep(self, items: Any) -> int:
        self.items = items
        return len(items)

    def gather(self, *others: Any, **named: Any) -> List[Any]:
        return [self.left, *others, *named.values()]

    def count(self, *others: Any, **named: Any) -> int:
        self.items = [*others, *named.values()]
        return len(self.items)

    def pick(self, left_side: bool, default: Any = None) -> Any:
        return self.left if left_side else default

    def _hidden_right(self) -> Any:
        return self.right

    # read through a proxy's accessors: no forwarder is generated for
    # any of these

    KIND = "cell"

    @property
    def doubled(self) -> int:
        return self.value * 2

    @staticmethod
    def scale(number: int) -> int:
        return number * 3

    @classmethod
    def tag(cls, number: int) -> str:
        return f"{cls.__name__}:{number}"

    def mark(self, number: int) -> int:
        # ``marked`` is first written here, after adoption
        self.marked = number
        return number

    # calls made from inside the graph: when ``right`` crosses a
    # boundary, the source of the mediated call is this cell's cluster.
    # The relays that pass a list are @readonly and return no container,
    # so only the container rule of the inner call can dirty their own
    # cluster.

    @readonly
    def relay_count(self, items: Any) -> Any:
        return self.right.count(items)

    @readonly
    def relay_keep(self, items: Any) -> Any:
        return self.right.keep(items)

    def relay_read(self) -> Any:
        return self.right.read_value()

    def relay_hidden(self) -> Any:
        return self.right._hidden_right()


# -- the reference ------------------------------------------------------------


def reference_invoke(proxy: Any, name: str, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
    space = proxy._obi_space
    target = proxy._obi_target
    if target.__class__ is ReplacementObject:
        space._manager.swap_in(proxy._obi_target_sid)
        target = proxy._obi_target
    target_sid = proxy._obi_target_sid
    tick = space._tick + 1
    space._tick = tick
    cluster = proxy._obi_cluster
    cluster.crossings += 1
    cluster.last_crossing_tick = tick
    if not cluster.dirty_all and not getattr(
        getattr(target.__class__, name, None), "_obi_readonly", False
    ):
        cluster.mark_dirty()
    if args or kwargs:
        for value in args if not kwargs else (*args, *kwargs.values()):
            if value.__class__ in MUTABLE_CONTAINERS:
                source = space._clusters.get(proxy._obi_source_sid)
                if source is not None and not source.dirty_all:
                    source.mark_dirty()
                break
    if args:
        args = tuple(space._translate(value, target_sid) for value in args)
    if kwargs:
        result = getattr(target, name)(
            *args,
            **{
                key: space._translate(value, target_sid)
                for key, value in kwargs.items()
            },
        )
    else:
        result = getattr(target, name)(*args)
    result_class = result.__class__
    if result_class in _ATOMIC_RESULTS:
        return result
    if proxy._obi_assign_mode and getattr(result_class, "_obi_managed", False):
        value_sid = getattr(result, "_obi_sid", None)
        if value_sid is not None and result._obi_space is space:
            if value_sid == proxy._obi_source_sid:
                return result
            _object_setattr(proxy, "_obi_target_oid", result._obi_oid)
            _object_setattr(proxy, "_obi_target", result)
            if value_sid != target_sid:
                space._move_patch_bucket(proxy, target_sid, value_sid)
            return proxy
    return space._translate_return(result, proxy)


def record_crossing(space: Any, target_sid: int) -> None:
    space._tick += 1
    cluster = space._clusters.get(target_sid)
    if cluster is not None:
        cluster.crossings += 1
        cluster.last_crossing_tick = space._tick


class ReferenceProxy(SwapClusterProxyBase):
    """Field access and non-public methods as the reference did them."""

    __slots__ = ()

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        if name.startswith("_obi_"):
            raise AttributeError(name)
        space = self._obi_space
        target = self._obi_target
        if getattr(target.__class__, "_obi_is_replacement", False):
            space._manager.swap_in(self._obi_target_sid)
            target = self._obi_target
        record_crossing(space, self._obi_target_sid)
        value = getattr(target, name)
        if callable(value) and getattr(value, "__self__", None) is target:
            def forwarder(*args: Any, **kwargs: Any) -> Any:
                return reference_invoke(self, name, args, kwargs)

            return forwarder
        return space._translate_return(value, self)

    def __setattr__(self, name: str, value: Any) -> None:
        if name.startswith("_obi_"):
            _object_setattr(self, name, value)
            return
        space = self._obi_space
        target = self._obi_target
        if getattr(target.__class__, "_obi_is_replacement", False):
            space._manager.swap_in(self._obi_target_sid)
            target = self._obi_target
        record_crossing(space, self._obi_target_sid)
        setattr(target, name, space._translate(value, self._obi_target_sid))


def _reference_method(name: str) -> Any:
    def method(self: Any, *args: Any, **kwargs: Any) -> Any:
        return reference_invoke(self, name, args, kwargs)

    method.__name__ = name
    return method


_REFERENCE_CLASSES: Dict[str, type] = {}


def reference_proxy_class(space: Any, class_name: str) -> type:
    proxy_class = _REFERENCE_CLASSES.get(class_name)
    if proxy_class is None:
        cls = space._registry.resolve(class_name)
        namespace: Dict[str, Any] = {"__slots__": (), "_obi_target_class": cls}
        for name in cls._obi_schema.public_methods:
            namespace[name] = _reference_method(name)
        proxy_class = _REFERENCE_CLASSES[class_name] = type(
            f"{cls.__name__}ReferenceProxy", (ReferenceProxy,), namespace
        )
    return proxy_class


def reference_init(
    proxy: Any, space: Any, source_sid: int, target_sid: int, target_oid: int,
    target: Any, cluster: Any,
) -> None:
    _object_setattr(proxy, "_obi_space", space)
    _object_setattr(proxy, "_obi_source_sid", source_sid)
    _object_setattr(proxy, "_obi_target_sid", target_sid)
    _object_setattr(proxy, "_obi_target_oid", target_oid)
    _object_setattr(proxy, "_obi_target", target)
    _object_setattr(proxy, "_obi_cluster", cluster)
    _object_setattr(proxy, "_obi_assign_mode", False)


def reference_proxy_for(space: Any, source_sid: int, target_oid: int, *held: Any) -> Any:
    # ``held`` (the target's sid and object, when the caller has them)
    # is ignored: the reference always looks both up
    target_sid = space._sid_by_oid[target_oid]
    key = (source_sid, target_oid)
    bucket = space._proxy_buckets.get(target_sid)
    if bucket is None:
        bucket = space._proxy_buckets[target_sid] = {}
    else:
        ref = bucket.get(key)
        if ref is not None:
            proxy = ref()
            if proxy is not None:
                return proxy
    cluster = space._clusters[target_sid]
    proxy_class = reference_proxy_class(space, cluster.class_name_by_oid[target_oid])
    proxy = proxy_class.__new__(proxy_class)
    target = space._objects.get(target_oid)
    if target is None:
        target = cluster.replacement
        if target is None:
            raise IntegrityError(f"object oid={target_oid} neither resident nor swapped")
    reference_init(proxy, space, source_sid, target_sid, target_oid, target, cluster)
    bucket[key] = weakref.ref(proxy, partial(bucket.pop, key))
    return proxy


def reference_make_cursor(space: Any, handle: Any) -> Any:
    target_oid = SwapClusterUtils.oid_of(handle)
    target_sid = space._sid_by_oid[target_oid]
    cluster = space._clusters[target_sid]
    proxy_class = reference_proxy_class(space, cluster.class_name_by_oid[target_oid])
    proxy = proxy_class.__new__(proxy_class)
    target = space._objects.get(target_oid)
    if target is None:
        target = cluster.replacement
        if target is None:
            raise IntegrityError(f"object oid={target_oid} neither resident nor swapped")
    reference_init(proxy, space, ROOT_SID, target_sid, target_oid, target, cluster)
    space._register_proxy(proxy, target_sid, id(proxy))
    return proxy


# -- lockstep histories --------------------------------------------------------


def _build_space(reference: bool, nodes: int, cluster_size: int, shape_seed: int) -> Any:
    space = make_space("reference" if reference else "generated", heap_capacity=8 << 20)
    # with the fast path on, a swapped-in cluster starts clean, so every
    # dirty mark a call makes (or must not make) shows
    space.manager.enable_fastpath(delta=True)
    if reference:
        space._proxy_for = MethodType(reference_proxy_for, space)
        space.make_cursor = MethodType(reference_make_cursor, space)
    shape = random.Random(shape_seed)
    graph = [MediationCell(index) for index in range(nodes)]
    for index, node in enumerate(graph):
        node.left = graph[(index + 1) % nodes]
        node.right = graph[shape.randrange(nodes)]
    space.ingest(graph[0], cluster_size=cluster_size, root_name="head")
    return space


class _Identity:
    """Pairs each generated-side proxy with its reference-side twin.

    Entries hold weakrefs, so a dead proxy's id may be reused by a new
    one without being mistaken for it.
    """

    def __init__(self) -> None:
        self.generated: Dict[int, Tuple["weakref.ref[Any]", int]] = {}
        self.reference: Dict[int, Tuple["weakref.ref[Any]", int]] = {}
        self.count = 0

    @staticmethod
    def _label(table: Dict[int, Tuple[Any, int]], proxy: Any) -> Optional[int]:
        entry = table.get(id(proxy))
        if entry is not None and entry[0]() is proxy:
            return entry[1]
        return None

    def pair(self, generated: Any, reference: Any) -> None:
        label = self._label(self.generated, generated)
        assert label == self._label(self.reference, reference), (
            "a proxy is new on one side and reused on the other"
        )
        if label is None:
            self.count += 1
            self.generated[id(generated)] = (weakref.ref(generated), self.count)
            self.reference[id(reference)] = (weakref.ref(reference), self.count)

    def key(self, side: Dict[int, Tuple[Any, int]], key: Any, proxy: Any) -> Any:
        if isinstance(key, tuple):
            return key
        return ("cursor", self._label(side, proxy))


def _describe(proxy: Any) -> Tuple[Any, ...]:
    return (
        proxy._obi_source_sid,
        proxy._obi_target_sid,
        proxy._obi_target_oid,
        proxy._obi_assign_mode,
        proxy._obi_target.__class__ is ReplacementObject,
    )


def _same(
    generated: Any, reference: Any, identity: _Identity, found: List[Tuple[Any, Any]]
) -> None:
    """Assert two results are equal, pairing the proxies they hold."""
    if is_proxy(generated) or is_proxy(reference):
        assert is_proxy(generated) and is_proxy(reference)
        assert _describe(generated) == _describe(reference)
        identity.pair(generated, reference)
        found.append((generated, reference))
    elif type(generated) in (list, tuple):
        assert type(generated) is type(reference)
        assert len(generated) == len(reference)
        for left, right in zip(generated, reference):
            _same(left, right, identity, found)
    elif getattr(type(generated), "_obi_managed", False):
        assert type(generated) is type(reference)
        assert generated._obi_oid == reference._obi_oid
    else:
        assert generated == reference


def _outcome(action: Any) -> Tuple[str, Any]:
    try:
        return "ok", action()
    except Exception as exc:  # noqa: BLE001 - compared across the two sides
        return "raised", type(exc).__name__


def _state(space: Any, identity: _Identity, side: Dict[int, Any]) -> Dict[str, Any]:
    clusters = {
        sid: (
            cluster.state,
            cluster.crossings,
            cluster.last_crossing_tick,
            cluster.dirty,
            cluster.dirty_all,
            sorted(cluster.dirty_oids),
            sorted(cluster.oids),
        )
        for sid, cluster in space.clusters().items()
    }
    buckets = {
        sid: sorted(
            (
                identity.key(side, key, proxy)
                for key, proxy in space.proxies_targeting(sid).items()
            ),
            key=repr,
        )
        for sid in space.clusters()
    }
    return {
        "tick": space._tick,
        "clusters": clusters,
        "buckets": buckets,
        "live": space.live_proxy_count(),
    }


_CALLS = (
    "get_left", "get_right", "set_value", "read_value", "echo_proxy",
    "echo_int", "echo_list", "link", "keep", "gather_empty", "gather",
    "gather_list", "count", "relay_count", "relay_keep", "relay_read",
    "relay_hidden",
    "pick_left", "pick_default", "hidden_right", "read_left", "read_value_field",
    "write_value", "write_left",
    "mark_read", "poke_read", "stored_read", "read_property", "read_constant",
    "call_static", "call_classmethod",
)

#: the call shapes that read through an accessor what no forwarder serves
_ACCESSOR_CALLS = (
    "mark_read", "poke_read", "stored_read", "read_property", "read_constant",
    "call_static", "call_classmethod",
)

# one step: (kind, call shape, selector); the selector picks held
# proxies, arguments and swap-clusters the same way on both sides
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["root", "call", "call", "call", "call", "cursor", "assign",
             "walk", "drop", "out", "out", "in", "merge", "split"]
        ),
        st.sampled_from(_CALLS),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=30,
)



def _call(kind: str, proxy: Any, other: Any, number: int) -> Any:
    """One call of shape ``kind`` through ``proxy``; ``other`` is a
    held proxy of the same side, used as an argument."""
    if kind == "get_left":
        return proxy.get_left()
    if kind == "get_right":
        return proxy.get_right()
    if kind == "set_value":
        return proxy.set_value(number)
    if kind == "read_value":
        return proxy.read_value()
    if kind == "echo_proxy":
        return proxy.echo(other)
    if kind == "echo_int":
        return proxy.echo(number)
    if kind == "echo_list":
        return proxy.echo([other, number])
    if kind == "link":
        return proxy.link(other)
    if kind == "keep":
        return proxy.keep([other])
    if kind == "gather_empty":
        return proxy.gather()
    if kind == "gather":
        return proxy.gather(other, number, named=other)
    if kind == "gather_list":
        return proxy.gather([other], number)
    if kind == "pick_left":
        return proxy.pick(True)
    if kind == "pick_default":
        return proxy.pick(False, default=other)
    if kind == "hidden_right":
        return proxy._hidden_right()
    if kind == "count":
        return proxy.count(other, number, named=[other])
    if kind == "relay_count":
        return proxy.relay_count([other, number])
    if kind == "relay_keep":
        return proxy.relay_keep([other])
    if kind == "relay_read":
        return proxy.relay_read()
    if kind == "relay_hidden":
        return proxy.relay_hidden()
    if kind == "read_left":
        return proxy.left
    if kind == "read_value_field":
        return proxy.value
    if kind == "mark_read":
        other.mark(number)
        return proxy.marked
    if kind == "poke_read":
        other.poked = number
        return proxy.poked
    if kind == "stored_read":
        return _stored_read(proxy, number, "stored_only")
    if kind == "read_property":
        return proxy.doubled
    if kind == "read_constant":
        return proxy.KIND
    if kind == "call_static":
        return proxy.scale(number)
    if kind == "call_classmethod":
        return proxy.tag(number)
    if kind == "write_value":
        proxy.value = number
        return None
    assert kind == "write_left"
    proxy.left = other
    return None


def _stored_read(proxy: Any, number: int, name: str) -> Any:
    """Give ``proxy``'s target field ``name`` around the write barrier,
    ship it in a stored document and reload it; then read the field,
    which until the swap-in only that document carried."""
    space = proxy._obi_space
    sid = proxy._obi_target_sid
    cluster = space.clusters()[sid]
    if cluster.is_swapped:
        space.swap_in(sid)
    if not cluster.swappable():
        return None
    oid = proxy._obi_target_oid
    _object_setattr(space._objects[oid], name, number)
    cluster.mark_dirty(oid)
    space.swap_out(sid)
    space.swap_in(sid)
    return getattr(proxy, name)


def _pin_accessor_swap_ins(test: Any) -> Any:
    """Pin one history per accessor read that swaps its cluster in."""
    for call in _ACCESSOR_CALLS:
        test = example(
            nodes=8, cluster_size=2, shape_seed=0,
            steps=[("out", call, 0), ("call", call, 0)],
        )(test)
    return test


def _pin_swap_in_histories(test: Any) -> Any:
    """Pin one history per call shape whose dirty marking is all that
    shows: the call swaps a clean cluster back in first."""
    for call in ("read_value", "hidden_right", "relay_count", "relay_keep", "relay_read"):
        test = example(
            nodes=8, cluster_size=2, shape_seed=0,
            steps=[("out", call, 0), ("call", call, 0)],
        )(test)
    return test


@settings(max_examples=200, deadline=None)
@_pin_swap_in_histories
@_pin_accessor_swap_ins
@given(
    nodes=st.integers(min_value=4, max_value=16),
    cluster_size=st.integers(min_value=1, max_value=4),
    shape_seed=st.integers(min_value=0, max_value=1_000),
    steps=_STEPS,
)
def test_generated_mediation_matches_the_reference(nodes, cluster_size, shape_seed, steps):
    # proxy deaths must happen at the same step on both sides: refcounts
    # do that; cyclic garbage is collected only at each check, for both
    python_gc.collect()
    python_gc.freeze()
    python_gc.disable()
    try:
        _lockstep_history(nodes, cluster_size, shape_seed, steps)
    finally:
        python_gc.enable()
        python_gc.unfreeze()


def _lockstep_history(
    nodes: int, cluster_size: int, shape_seed: int, steps: List[Tuple[str, str, int]]
) -> None:
    generated = _build_space(False, nodes, cluster_size, shape_seed)
    reference = _build_space(True, nodes, cluster_size, shape_seed)
    identity = _Identity()
    held: List[Tuple[Any, Any]] = []

    def both(action: Any) -> None:
        """Run ``action(space, index_of_side)`` on both sides and compare."""
        gen_outcome = _outcome(lambda: action(generated, 0))
        ref_outcome = _outcome(lambda: action(reference, 1))
        assert gen_outcome[0] == ref_outcome[0], (gen_outcome, ref_outcome)
        if gen_outcome[0] == "raised":
            assert gen_outcome[1] == ref_outcome[1]
            return
        found: List[Tuple[Any, Any]] = []
        _same(gen_outcome[1], ref_outcome[1], identity, found)
        held.extend(found)

    def check(after: str) -> None:
        python_gc.collect()
        assert _state(generated, identity, identity.generated) == _state(
            reference, identity, identity.reference
        ), f"after {after}"

    def sids(test: Any) -> List[int]:
        return [
            sid
            for sid, cluster in sorted(generated.clusters().items())
            if sid != ROOT_SID and cluster.oids and test(cluster)
        ]

    both(lambda space, side: space.get_root("head"))
    check("ingest")
    for kind, call, at in steps:
        if kind == "root":
            both(lambda space, side: space.get_root("head"))
        elif kind == "call" and held:
            proxy_at = at % len(held)
            other_at = (at // 7) % len(held)
            both(
                lambda space, side: _call(
                    call, held[proxy_at][side], held[other_at][side], at
                )
            )
        elif kind == "cursor":
            both(
                lambda space, side: SwapClusterUtils.assign(
                    space.make_cursor(space.get_root("head"))
                )
            )
        elif kind == "assign":
            roots = [
                index
                for index, (proxy, _) in enumerate(held)
                if proxy._obi_source_sid == ROOT_SID and not proxy._obi_assign_mode
            ]
            if roots:
                index = roots[at % len(roots)]
                both(lambda space, side: SwapClusterUtils.assign(held[index][side]))
        elif kind == "walk":
            walkers = [index for index, (proxy, _) in enumerate(held) if proxy._obi_assign_mode]
            if walkers:
                index = walkers[at % len(walkers)]

                def walk(space: Any, side: int) -> List[Any]:
                    cursor, seen = held[index][side], []
                    for step in range(at % 9):
                        cursor = cursor.get_left() if step % 3 else cursor.get_right()
                        seen.append(cursor)
                    return seen

                both(walk)
        elif kind == "drop" and held:
            held.pop(at % len(held))
        elif kind == "out":
            resident = sids(lambda cluster: cluster.swappable())
            if resident:
                sid = resident[at % len(resident)]
                both(lambda space, side: space.swap_out(sid) and None)
        elif kind == "in":
            swapped = sids(lambda cluster: cluster.is_swapped)
            if swapped:
                sid = swapped[at % len(swapped)]
                both(lambda space, side: space.swap_in(sid))
        elif kind == "merge":
            resident = sids(lambda cluster: cluster.swappable())
            if len(resident) >= 2:
                absorber = resident[at % len(resident)]
                absorbed = resident[(at + 1) % len(resident)]
                if absorber != absorbed:
                    both(lambda space, side: space.merge_swap_clusters(absorber, absorbed))
        elif kind == "split":
            splittable = [
                sid for sid in sids(lambda cluster: cluster.swappable())
                if len(generated.clusters()[sid].oids) >= 2
            ]
            if splittable:
                sid = splittable[at % len(splittable)]
                both(lambda space, side: space.split_swap_cluster(sid, 1))
        check(f"{kind} {at}")
    generated.verify_integrity()
    reference.verify_integrity()


def test_reference_spaces_use_reference_proxies():
    """The harness itself: the reference side never runs generated code."""
    reference = _build_space(True, 6, 2, 0)
    generated = _build_space(False, 6, 2, 0)
    ref_cursor = reference.make_cursor(reference.get_root("head"))
    gen_cursor = generated.make_cursor(generated.get_root("head"))
    assert isinstance(reference.get_root("head"), ReferenceProxy)
    assert isinstance(ref_cursor, ReferenceProxy)
    assert isinstance(ref_cursor.get_left(), ReferenceProxy)
    assert not isinstance(generated.get_root("head"), ReferenceProxy)
    assert not isinstance(gen_cursor.get_left(), ReferenceProxy)


def test_a_field_only_a_stored_document_carries_reads_after_swap_in():
    """The decoder gives a name it reads for the first time its accessor."""
    generated = _build_space(False, 8, 2, 0)
    reference = _build_space(True, 8, 2, 0)
    identity = _Identity()
    heads = [generated.get_root("head"), reference.get_root("head")]
    identity.pair(*heads)
    name = f"stored_{uuid.uuid4().hex}"
    results = [_outcome(lambda: _stored_read(head, 7, name)) for head in heads]
    assert results[0] == results[1] == ("ok", 7)
    assert name in ACCESSOR_NAMES
    assert _state(generated, identity, identity.generated) == _state(
        reference, identity, identity.reference
    )


def test_a_name_no_managed_class_or_instance_has_fails_at_once():
    """The one intended difference from the reference: a name that no
    managed class or instance has ever had has no accessor, so reading
    it raises ``AttributeError`` before any crossing or swap-in."""
    space = _build_space(False, 8, 2, 0)
    head = space.get_root("head")
    sid = head._obi_target_sid
    space.swap_out(sid)
    name = f"never_{uuid.uuid4().hex}"
    tick = space._tick
    crossings = {
        sid: (cluster.crossings, cluster.last_crossing_tick)
        for sid, cluster in space.clusters().items()
    }
    with pytest.raises(AttributeError):
        getattr(head, name)
    assert not hasattr(head, name)
    assert space._tick == tick
    assert {
        sid: (cluster.crossings, cluster.last_crossing_tick)
        for sid, cluster in space.clusters().items()
    } == crossings
    assert space.clusters()[sid].is_swapped
    assert name not in ACCESSOR_NAMES
