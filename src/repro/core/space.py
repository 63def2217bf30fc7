"""The device-side managed object space.

A :class:`Space` is one OBIWAN process on a mobile device: it owns the
byte-accounted heap, the object/cluster tables, swap-cluster-0 (the
process globals — "global variables, i.e. static fields, and variables
defined in static methods, are regarded as belonging to a special
swap-cluster, swap-cluster-0", Section 3), the swap-cluster-proxy tables,
and the :class:`~repro.core.manager.SwappingManager`.

Reference translation — the machinery behind the paper's three generated
code rules — is implemented here so proxies stay small:

* rule (i): a raw reference crossing a boundary is wrapped in a
  swap-cluster-proxy for the receiving cluster;
* rule (ii): a proxy handed across a boundary is reused/re-wrapped for
  the receiving cluster (one proxy per (source, target) pair suffices);
* rule (iii): a proxy referring back into the receiving cluster is
  dismantled to the raw replica.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial as _partial
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple
from weakref import ref as _ref

from repro.clock import Clock, SimulatedClock
from repro.core.clustering import group_clusters, resolve_strategy
from repro.core.manager import SwappingManager
from repro.core.swap_cluster import SwapCluster, SwapClusterState
from repro.core.swap_proxy import (
    set_assign_mode,
    set_cluster,
    set_source_sid,
    set_space,
    set_target,
    set_target_oid,
    set_target_sid,
)
from repro.errors import (
    AlreadyManagedError,
    ClusterNotResidentError,
    IntegrityError,
    NotManagedError,
)
from repro.events import (
    ClusterCollectedEvent,
    ClusterReplicatedEvent,
    EventBus,
    GcCompletedEvent,
)
from repro.ids import IdSpace, Oid, ROOT_SID, Sid
from repro.memory.heap import Heap
from repro.memory.sizemodel import DEFAULT_SIZE_MODEL, SizeModel
from repro.runtime.barrier import MUTABLE_CONTAINERS
from repro.runtime.classext import instance_fields
from repro.runtime.obicomp import ACCESSOR_NAMES, register_accessors
from repro.runtime.registry import TypeRegistry, global_registry

_object_setattr = object.__setattr__
_new_object = object.__new__

#: Types that can never be (or contain) managed references.
_ATOMIC = frozenset(
    {int, float, str, bool, bytes, bytearray, type(None), complex}
)

_DEFAULT_HEAP_CAPACITY = 16 * 1024 * 1024  # a mid-2000s PDA-class heap


class _CollectedTombstone:
    """Target installed on proxies whose cluster was garbage-collected."""

    __slots__ = ("sid",)

    def __init__(self, sid: Sid) -> None:
        self.sid = sid

    def __getattr__(self, name: str) -> Any:
        raise IntegrityError(
            f"swap-cluster {self.sid} was collected as garbage; a stale "
            f"proxy to it was invoked"
        )


class Space:
    """A managed object space with transparent object-swapping."""

    def __init__(
        self,
        name: str,
        *,
        heap_capacity: int = _DEFAULT_HEAP_CAPACITY,
        high_watermark: float = 0.85,
        low_watermark: float = 0.60,
        registry: TypeRegistry | None = None,
        bus: EventBus | None = None,
        clock: Clock | None = None,
        size_model: SizeModel | None = None,
    ) -> None:
        self.name = name
        self._registry = registry if registry is not None else global_registry()
        self.bus = bus if bus is not None else EventBus()
        self.clock: Clock = clock if clock is not None else SimulatedClock()
        self.size_model = size_model if size_model is not None else DEFAULT_SIZE_MODEL
        self.heap = Heap(
            heap_capacity,
            high_watermark=high_watermark,
            low_watermark=low_watermark,
        )
        self._ids = IdSpace()
        self._objects: Dict[Oid, Any] = {}
        self._sid_by_oid: Dict[Oid, Sid] = {}
        self._clusters: Dict[Sid, SwapCluster] = {ROOT_SID: SwapCluster(ROOT_SID)}
        #: The resident index: every resident swap-cluster except
        #: swap-cluster-0, by sid.  Victim rankings scan it instead of
        #: ``_clusters``, so their cost follows the residents, not every
        #: cluster ever created.  Kept in step by :meth:`_add_cluster`,
        #: :meth:`_pop_cluster` and :meth:`_set_cluster_state`; its order
        #: changes on every swap-in, so no ranking may depend on it.
        self._resident: Dict[Sid, SwapCluster] = {}
        #: The swap-cluster-proxy table: one weak bucket per *target*
        #: swap-cluster, mapping a key to a ``weakref.ref`` of a live
        #: proxy.  A canonical pair proxy is keyed ``(source_sid,
        #: target_oid)``, so the bucket is also the reuse cache of rule
        #: (ii); an assign-mode cursor is keyed ``id(proxy)`` (proxies
        #: overload ``__eq__``/``__hash__`` for object identity, so they
        #: cannot be keys themselves).  The bucket is the patch set for
        #: swap-out/swap-in.  Each ref's callback plays the role of the
        #: paper's proxy finalizer; see :meth:`_register_proxy`.
        self._proxy_buckets: Dict[Sid, Dict[Any, "_ref[Any]"]] = {}
        self._roots: Dict[str, Any] = {}
        #: application class -> generated proxy class, filled by
        #: :meth:`_mint` (bypasses the registry lock).  Every key is a
        #: managed class: generated forwarders test a result's class
        #: against it to mediate the result inline.
        self._proxy_classes: Dict[type, type] = {}
        self._tick = 0
        #: Installed by a Replicator: resolves <extref> wire references
        #: (unreplicated frontier) when a swapped cluster reloads.
        #: Signature: (attrs: dict[str, str], sid: int) -> handle.
        self.extern_resolver: Optional[Any] = None
        self._manager = SwappingManager(self)
        self.heap.on_exhausted(self._manager.on_heap_exhausted)

    # ------------------------------------------------------------------ basics

    @property
    def manager(self) -> SwappingManager:
        return self._manager

    @property
    def registry(self) -> TypeRegistry:
        return self._registry

    def _cluster(self, sid: Sid) -> SwapCluster:
        try:
            return self._clusters[sid]
        except KeyError:
            raise NotManagedError(f"no swap-cluster {sid} in space {self.name!r}") from None

    def clusters(self) -> Dict[Sid, SwapCluster]:
        return dict(self._clusters)

    def new_swap_cluster(self) -> SwapCluster:
        cluster = SwapCluster(self._ids.sids.next(), created_tick=self._tick)
        self._add_cluster(cluster)
        return cluster

    def _add_cluster(self, cluster: SwapCluster) -> None:
        """File ``cluster`` in the cluster table and, if resident, the
        resident index."""
        self._clusters[cluster.sid] = cluster
        self._set_cluster_state(cluster, cluster.state)

    def _pop_cluster(self, sid: Sid) -> Optional[SwapCluster]:
        """Remove swap-cluster ``sid`` from the table and the index."""
        self._resident.pop(sid, None)
        return self._clusters.pop(sid, None)

    def _set_cluster_state(
        self, cluster: SwapCluster, state: SwapClusterState
    ) -> None:
        """Set ``cluster``'s residency and file it in or out of the
        resident index to match."""
        cluster.state = state
        if state is SwapClusterState.RESIDENT and cluster.sid != ROOT_SID:
            self._resident[cluster.sid] = cluster
        else:
            self._resident.pop(cluster.sid, None)

    def object_count(self) -> int:
        return len(self._objects)

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    # ------------------------------------------------------------------ adoption

    def adopt(self, obj: Any, sid: Sid = ROOT_SID) -> Oid:
        """Register a managed instance as a member of swap-cluster ``sid``."""
        cls = type(obj)
        schema = getattr(cls, "_obi_schema", None)
        if schema is None or not getattr(cls, "_obi_managed", False):
            raise NotManagedError(
                f"{cls.__name__} is not @managed; decorate it with "
                f"repro.runtime.managed"
            )
        owner = getattr(obj, "_obi_space", None)
        if owner is not None:
            if owner is self and getattr(obj, "_obi_oid", None) in self._objects:
                raise AlreadyManagedError(
                    f"object oid={obj._obi_oid} already adopted into {self.name!r}"
                )
            if owner is not self:
                raise AlreadyManagedError(
                    f"object already belongs to space {owner.name!r}"
                )
        cluster = self._cluster(sid)
        if not cluster.is_resident:
            raise ClusterNotResidentError(
                f"cannot adopt into swapped-out swap-cluster {sid}"
            )
        oid = self._ids.oids.next()
        # allocate FIRST: a failed allocation must leave no trace of the
        # object in any table
        self.heap.allocate(oid, self.size_model.size_of(obj))
        _object_setattr(obj, "_obi_oid", oid)
        _object_setattr(obj, "_obi_sid", sid)
        _object_setattr(obj, "_obi_space", self)
        cluster.add_member(oid, schema.name)
        self._sid_by_oid[oid] = sid
        self._objects[oid] = obj
        fields = obj.__dict__
        if not ACCESSOR_NAMES.issuperset(fields):
            # fields written around the barrier before adoption
            register_accessors(fields)
        return oid

    def _install_replicas(self, sid: Sid, replicas: Dict[Oid, Any]) -> None:
        """Re-register a swapped-in cluster's replicas under their
        original oids, in ``replicas``' order."""
        objects = self._objects
        sid_by_oid = self._sid_by_oid
        for oid, obj in replicas.items():
            _object_setattr(obj, "_obi_oid", oid)
            _object_setattr(obj, "_obi_sid", sid)
            _object_setattr(obj, "_obi_space", self)
            objects[oid] = obj
            sid_by_oid[oid] = sid
        if replicas:
            self._ids.oids.reserve_above(max(replicas))

    def _evict_object(self, oid: Oid) -> int:
        """Remove a collected object entirely (LGC sweep path)."""
        obj = self._objects.pop(oid, None)
        sid = self._sid_by_oid.pop(oid, None)
        if sid is not None:
            self._clusters[sid].remove_member(oid, collected=True)
        if obj is not None:
            _object_setattr(obj, "_obi_space", None)
        return self.heap.free_oid(oid) if self.heap.holds(oid) else 0

    def _evict_cluster(self, cluster: SwapCluster) -> int:
        """Remove every member of a resident cluster that is collected or
        OOM-killed: :meth:`_evict_object` for the whole cluster, with one
        heap operation.  Returns the bytes freed."""
        oids = list(cluster.oids)
        for oid in oids:
            obj = self._objects.pop(oid, None)
            self._sid_by_oid.pop(oid, None)
            cluster.remove_member(oid, collected=True)
            if obj is not None:
                _object_setattr(obj, "_obi_space", None)
        return self.heap.free_cluster(oids)

    # ------------------------------------------------------------------ ingest

    def ingest(
        self,
        root: Any,
        *,
        cluster_size: int,
        clusters_per_swap: int = 1,
        strategy: str = "bfs",
        root_name: str | None = None,
    ) -> Any:
        """Partition a raw managed object graph into swap-clusters.

        Walks the graph from ``root``, chunks it into object clusters of
        ``cluster_size`` (BFS order keeps chunks chained via references),
        groups every ``clusters_per_swap`` consecutive clusters into one
        swap-cluster, adopts all objects, and rewrites every
        cross-swap-cluster edge into a swap-cluster-proxy.

        Returns the application handle for the root: a proxy with source
        swap-cluster-0.  With ``root_name`` the handle is also installed
        as a root.
        """
        partition = resolve_strategy(strategy)
        object_clusters = partition(root, cluster_size)
        bundles = group_clusters(object_clusters, clusters_per_swap)
        created: List[Sid] = []
        adopted: List[Any] = []
        try:
            for bundle in bundles:
                swap_cluster = self.new_swap_cluster()
                created.append(swap_cluster.sid)
                for members in bundle:
                    cid = self._ids.cids.next()
                    swap_cluster.cids.append(cid)
                    for obj in members:
                        self.adopt(obj, swap_cluster.sid)
                        adopted.append(obj)
                    self.bus.emit(
                        ClusterReplicatedEvent(
                            space=self.name,
                            cid=cid,
                            sid=swap_cluster.sid,
                            object_count=len(members),
                        )
                    )
        except Exception:
            # transactional ingest: a mid-way failure (typically heap
            # exhaustion with no swap device) must leave neither partial
            # clusters nor half-registered objects behind
            for obj in adopted:
                self._evict_object(obj._obi_oid)
                _object_setattr(obj, "_obi_oid", None)
                _object_setattr(obj, "_obi_sid", None)
            for sid in created:
                self._pop_cluster(sid)
            raise
        for sid in created:
            for oid in list(self._clusters[sid].oids):
                self._rewrite_boundaries(self._objects[oid])
        handle = self._proxy_for(ROOT_SID, root._obi_oid)
        if root_name is not None:
            self._roots[root_name] = handle
        return handle

    def _rewrite_boundaries(self, obj: Any) -> None:
        owner_sid = obj._obi_sid
        for name, value in instance_fields(obj).items():
            new_value = self._rewrite_value(value, owner_sid)
            if new_value is not value:
                _object_setattr(obj, name, new_value)

    def _rewrite_value(self, value: Any, owner_sid: Sid) -> Any:
        cls = type(value)
        if cls in _ATOMIC:
            return value
        if getattr(cls, "_obi_managed", False):
            value_sid = getattr(value, "_obi_sid", None)
            if value_sid is None or getattr(value, "_obi_space", None) is not self:
                self._absorb(value, owner_sid)
                return value
            if value_sid == owner_sid:
                return value
            return self._proxy_for(owner_sid, value._obi_oid)
        if getattr(cls, "_obi_is_proxy", False):
            # target check first: a proxy pointing back into the owner's
            # cluster is dismantled even if its source tag already
            # matches (restructuring can produce that combination)
            if value._obi_target_sid == owner_sid:
                return self._resident_object(value._obi_target_oid)
            if value._obi_source_sid == owner_sid:
                return value
            return self._proxy_for(owner_sid, value._obi_target_oid)
        if cls is list:
            changed = False
            rebuilt = []
            for item in value:
                new_item = self._rewrite_value(item, owner_sid)
                changed = changed or new_item is not item
                rebuilt.append(new_item)
            if changed:
                value[:] = rebuilt
            return value
        if cls is tuple:
            rebuilt_tuple = tuple(self._rewrite_value(item, owner_sid) for item in value)
            return rebuilt_tuple if any(
                new is not old for new, old in zip(rebuilt_tuple, value)
            ) else value
        if cls is dict:
            changed = False
            rebuilt_dict = {}
            for key, item in value.items():
                new_key = self._rewrite_value(key, owner_sid)
                new_item = self._rewrite_value(item, owner_sid)
                changed = changed or new_key is not key or new_item is not item
                rebuilt_dict[new_key] = new_item
            if changed:
                value.clear()
                value.update(rebuilt_dict)
            return value
        if cls in (set, frozenset):
            rebuilt_items = {self._rewrite_value(item, owner_sid) for item in value}
            if cls is set:
                value.clear()
                value.update(rebuilt_items)
                return value
            return frozenset(rebuilt_items)
        return value

    def _absorb(self, obj: Any, sid: Sid) -> None:
        """Adopt a freshly created managed graph into cluster ``sid``.

        Objects created by application code inside a cluster's methods
        belong to that cluster; absorb the whole unadopted subgraph, then
        mediate any edges it has into other clusters.
        """
        from repro.core.clustering import managed_neighbors

        pending = [obj]
        absorbed = []
        seen = {id(obj)}
        while pending:
            current = pending.pop()
            if getattr(current, "_obi_space", None) is self and getattr(
                current, "_obi_oid", None
            ) in self._objects:
                continue
            self.adopt(current, sid)
            absorbed.append(current)
            for neighbor in managed_neighbors(current):
                if id(neighbor) in seen:
                    continue
                seen.add(id(neighbor))
                if getattr(neighbor, "_obi_space", None) is self:
                    continue
                pending.append(neighbor)
        for current in absorbed:
            self._rewrite_boundaries(current)

    # ------------------------------------------------------------------ roots

    def set_root(self, name: str, value: Any) -> Any:
        """Install a global variable (swap-cluster-0 reference).

        Raw managed values from other swap-clusters are wrapped in a
        source-0 proxy; unadopted managed values are adopted into
        swap-cluster-0 itself.  Returns the stored handle.
        """
        handle = self._translate(value, ROOT_SID)
        if (
            getattr(type(handle), "_obi_managed", False)
            and getattr(handle, "_obi_space", None) is not self
        ):
            self._absorb(handle, ROOT_SID)
        self._roots[name] = handle
        return handle

    def get_root(self, name: str) -> Any:
        return self._roots[name]

    def del_root(self, name: str) -> None:
        del self._roots[name]

    def root_names(self) -> List[str]:
        return list(self._roots)

    def roots(self) -> Dict[str, Any]:
        return dict(self._roots)

    # ------------------------------------------------------------------ translation

    def _resident_object(self, oid: Oid) -> Any:
        obj = self._objects.get(oid)
        if obj is None:
            sid = self._sid_by_oid.get(oid)
            raise ClusterNotResidentError(
                f"object oid={oid} (swap-cluster {sid}) is not resident"
            )
        return obj

    def _translate(self, value: Any, to_sid: Sid) -> Any:
        """Mediate ``value`` for code running in swap-cluster ``to_sid``."""
        cls = type(value)
        if cls in _ATOMIC:
            return value
        if getattr(cls, "_obi_managed", False):
            value_sid = getattr(value, "_obi_sid", None)
            if value_sid is None or getattr(value, "_obi_space", None) is not self:
                self._absorb(value, to_sid)
                return value
            if value_sid == to_sid:
                return value
            return self._proxy_for(to_sid, value._obi_oid, value_sid, value)
        if getattr(cls, "_obi_is_proxy", False):
            if value._obi_space is not self:
                raise NotManagedError(
                    f"proxy belongs to space {value._obi_space.name!r}, "
                    f"not {self.name!r}; handles cannot cross spaces"
                )
            if value._obi_target_sid == to_sid:
                return self._resident_object(value._obi_target_oid)
            if value._obi_source_sid == to_sid:
                return value
            return self._proxy_for(to_sid, value._obi_target_oid)
        if cls is list:
            rebuilt = [self._translate(item, to_sid) for item in value]
            return rebuilt if any(
                new is not old for new, old in zip(rebuilt, value)
            ) else value
        if cls is tuple:
            rebuilt_tuple = tuple(self._translate(item, to_sid) for item in value)
            return rebuilt_tuple if any(
                new is not old for new, old in zip(rebuilt_tuple, value)
            ) else value
        if cls is dict:
            rebuilt_dict = {
                self._translate(key, to_sid): self._translate(item, to_sid)
                for key, item in value.items()
            }
            return rebuilt_dict
        if cls in (set, frozenset):
            return cls(self._translate(item, to_sid) for item in value)
        return value

    def _translate_return(self, value: Any, proxy: Any) -> Any:
        """Mediate a value returned through ``proxy`` to its source cluster.

        Implements the assign-mode optimisation: instead of minting a new
        proxy, the marked proxy patches itself to the returned reference
        and returns itself (paper, Section 4, "Optimizing Code for
        Iterations").
        """
        cls = type(value)
        if cls in _ATOMIC:
            return value
        if cls in MUTABLE_CONTAINERS:
            # a mutable container escaping its cluster may be mutated by
            # the receiver without any interceptable write: conservatively
            # invalidate the owning cluster's clean payload
            cluster = proxy._obi_cluster
            if not cluster.dirty_all:
                cluster.mark_dirty()
        to_sid = proxy._obi_source_sid
        if getattr(cls, "_obi_managed", False):
            value_sid = getattr(value, "_obi_sid", None)
            if value_sid is None or getattr(value, "_obi_space", None) is not self:
                self._absorb(value, proxy._obi_target_sid)
                value_sid = value._obi_sid
            if value_sid == to_sid:
                return value
            if proxy._obi_assign_mode:
                # inlined self-patch fast path (paper's iteration
                # optimisation): two slot writes per step, bucket move
                # only on an actual swap-cluster boundary crossing
                old_target_sid = proxy._obi_target_sid
                set_target_oid(proxy, value._obi_oid)
                set_target(proxy, value)
                if value_sid != old_target_sid:
                    self._move_patch_bucket(proxy, old_target_sid, value_sid)
                return proxy
            return self._proxy_for(to_sid, value._obi_oid, value_sid, value)
        if getattr(cls, "_obi_is_proxy", False):
            target_sid = value._obi_target_sid
            if target_sid == to_sid:
                return self._resident_object(value._obi_target_oid)
            if value._obi_source_sid == to_sid:
                return value
            if proxy._obi_assign_mode:
                self._retarget_proxy(
                    proxy, value._obi_target_oid, target_sid, value._obi_target
                )
                return proxy
            return self._proxy_for(to_sid, value._obi_target_oid)
        return self._translate(value, to_sid)

    # ------------------------------------------------------------------ proxies

    def _register_proxy(self, proxy: Any, target_sid: Sid, key: Any) -> None:
        """File ``proxy`` under ``key`` in ``target_sid``'s weak bucket.

        The ref's callback is the bucket's own ``pop`` bound to ``key``:
        when the proxy dies, C code removes the entry (``pop(key, ref)``
        never raises) and no Python frame runs.  Re-filing an entry
        (replacing it, moving it to another bucket, or re-keying it)
        drops the bucket's only reference to the old ref, and a weakref
        that dies before its referent never calls back.  So a stale
        callback can never evict a newer entry filed under the same key.
        (The cyclic collector clears a dead proxy's refs before it calls
        them back; in between it runs only weakref callbacks, and none
        in this package mints a proxy.)
        """
        bucket = self._proxy_buckets.get(target_sid)
        if bucket is None:
            bucket = self._proxy_buckets[target_sid] = {}
        bucket[key] = _ref(proxy, _partial(bucket.pop, key))

    def _refile_proxy(
        self, proxy: Any, old_sid: Sid, old_key: Any, new_key: Any
    ) -> None:
        """Move ``proxy``'s entry from ``old_key`` in ``old_sid``'s bucket
        to ``new_key`` in the bucket of its (already retagged) target."""
        old_bucket = self._proxy_buckets.get(old_sid)
        if old_bucket is not None:
            old_bucket.pop(old_key, None)
        self._register_proxy(proxy, proxy._obi_target_sid, new_key)

    def _proxy_for(
        self,
        source_sid: Sid,
        target_oid: Oid,
        target_sid: Optional[Sid] = None,
        target: Any = None,
    ) -> Any:
        """Reuse or mint the canonical swap-cluster-proxy for one pair.

        The target cluster's bucket is the reuse cache: the pair's proxy
        is filed there under ``(source_sid, target_oid)`` (registration
        inlined from :meth:`_register_proxy`).  A caller that holds the
        resident target object passes it and its sid; otherwise both are
        looked up.
        """
        if target_sid is None:
            target_sid = self._sid_by_oid[target_oid]
        key = (source_sid, target_oid)
        bucket = self._proxy_buckets.get(target_sid)
        if bucket is None:
            bucket = self._proxy_buckets[target_sid] = {}
        else:
            ref = bucket.get(key)
            if ref is not None:
                proxy = ref()
                if proxy is not None:
                    return proxy
        if target is None:
            target = self._target_of(target_sid, target_oid)
        proxy = self._mint(source_sid, target_sid, target_oid, target)
        bucket[key] = _ref(proxy, _partial(bucket.pop, key))
        return proxy

    def _target_of(self, target_sid: Sid, target_oid: Oid) -> Any:
        """What a new proxy to ``target_oid`` points at: the resident
        object, or its swapped cluster's replacement-object."""
        target = self._objects.get(target_oid)
        if target is None:
            target = self._clusters[target_sid].replacement
            if target is None:
                raise IntegrityError(
                    f"object oid={target_oid} neither resident nor swapped"
                )
        return target

    def _mint(
        self, source_sid: Sid, target_sid: Sid, target_oid: Oid, target: Any
    ) -> Any:
        """Build a swap-cluster-proxy; the one place a proxy is made.

        The caller files it in the proxy table.  The proxy class is
        cached by application class, so a resident target finds it by
        its own class.
        """
        proxy_class = self._proxy_classes.get(target.__class__)
        if proxy_class is None:
            # a replacement-object target, or a class not seen yet: the
            # cluster's membership record names the class
            cls = self._registry.resolve(
                self._clusters[target_sid].class_name_by_oid[target_oid]
            )
            proxy_class = self._proxy_classes.get(cls)
            if proxy_class is None:
                proxy_class = self._proxy_classes[cls] = (
                    self._registry.proxy_class_for(cls)
                )
        proxy = _new_object(proxy_class)
        set_space(proxy, self)
        set_source_sid(proxy, source_sid)
        set_target_sid(proxy, target_sid)
        set_target_oid(proxy, target_oid)
        set_target(proxy, target)
        set_cluster(proxy, self._clusters[target_sid])
        set_assign_mode(proxy, False)
        return proxy

    def _retarget_proxy(
        self, proxy: Any, new_oid: Oid, new_target_sid: Sid, new_target: Any
    ) -> None:
        """Assign-mode self-patching: point ``proxy`` at a new target.

        This is the paper's iteration optimisation, so it must stay
        cheap: two slot writes per step, with table movement only when
        the cursor actually crosses into a different swap-cluster.  An
        assign-mode proxy is filed under ``id(proxy)``, never under its
        pair key — it is the variable's own proxy, not the canonical
        pair proxy (``SwapClusterUtils.assign`` re-keyed it once).
        """
        old_target_sid = proxy._obi_target_sid
        set_target_oid(proxy, new_oid)
        set_target(proxy, new_target)
        if new_target_sid != old_target_sid:
            self._move_patch_bucket(proxy, old_target_sid, new_target_sid)

    def _move_patch_bucket(
        self, proxy: Any, old_target_sid: Sid, new_target_sid: Sid
    ) -> None:
        """An assign-mode cursor crossed a boundary: re-file its entry."""
        set_target_sid(proxy, new_target_sid)
        set_cluster(proxy, self._clusters[new_target_sid])
        self._refile_proxy(proxy, old_target_sid, id(proxy), id(proxy))

    def make_cursor(self, handle: Any) -> Any:
        """A fresh swap-cluster-0 proxy for iteration variables.

        Unlike :meth:`wrap_for_root`, this never returns the canonical
        proxy for the pair: assign-mode iteration (paper §4) retargets
        the variable's own proxy step by step, which must not disturb
        proxies other references share.  The cursor is filed under
        ``id(proxy)`` in its target's bucket, so swap events keep it
        correct.
        """
        from repro.core.utils import SwapClusterUtils

        target_oid = SwapClusterUtils.oid_of(handle)
        target_sid = self._sid_by_oid[target_oid]
        proxy = self._mint(
            ROOT_SID, target_sid, target_oid, self._target_of(target_sid, target_oid)
        )
        self._register_proxy(proxy, target_sid, id(proxy))
        return proxy

    def proxies_targeting(self, sid: Sid) -> Dict[Any, Any]:
        """The live swap-cluster-proxies targeting swap-cluster ``sid``.

        A snapshot keyed like the table: ``(source_sid, target_oid)``
        for a canonical pair proxy, ``id(proxy)`` for an assign-mode
        cursor.  Every patch loop (swap-out, swap-in, restructuring,
        tombstoning) walks this copy, so it may re-file entries and a
        proxy dying mid-loop cannot disturb the iteration.
        """
        bucket = self._proxy_buckets.get(sid)
        if not bucket:
            return {}
        live = {}
        # copy() is one C call: a collection triggered while the loop
        # allocates may pop entries from ``bucket``, never from the copy
        for key, ref in bucket.copy().items():
            proxy = ref()
            if proxy is not None:
                live[key] = proxy
        return live

    def _drop_proxy_bucket(self, sid: Sid) -> None:
        """Forget ``sid``'s bucket; its callers re-filed or tombstoned
        the live entries first."""
        bucket = self._proxy_buckets.pop(sid, None)
        if bucket is not None:
            # each entry's ref -> callback -> bucket.pop -> bucket is a
            # cycle: break it now instead of leaving it to the cyclic GC
            bucket.clear()

    def live_proxy_count(self) -> int:
        return sum(len(bucket) for bucket in self._proxy_buckets.values())

    def wrap_for_root(self, value: Any) -> Any:
        """A swap-cluster-0 handle for any managed value."""
        return self._translate(value, ROOT_SID)

    def resolve(self, handle: Any) -> Any:
        """Raw object behind a handle (swapping in if necessary)."""
        from repro.core.utils import SwapClusterUtils

        return SwapClusterUtils.resolve(handle)

    def attach(self, owner: Any, field: str, value: Any) -> None:
        """Integrity-safe cross-cluster field assignment on a raw object."""
        if getattr(type(owner), "_obi_is_proxy", False):
            setattr(owner, field, value)  # proxies already mediate
            return
        if not getattr(type(owner), "_obi_managed", False):
            raise NotManagedError("attach() owner must be managed")
        _object_setattr(owner, field, self._translate(value, owner._obi_sid))
        owner_cluster = self._clusters.get(owner._obi_sid)
        if owner_cluster is not None:
            # the rewired field lives on ``owner`` alone, so the
            # staleness is attributable to that single member
            owner_cluster.mark_dirty(owner._obi_oid)
        self.heap.resize(owner._obi_oid, self.size_model.size_of(owner))

    # ------------------------------------------------------------------ swapping facade

    def swap_out(self, sid: Sid | None = None, store: Any = None) -> Any:
        if sid is None:
            sid = self._manager.victim_selector(self)
            if sid is None:
                raise ClusterNotResidentError("no swappable swap-cluster available")
        return self._manager.swap_out(sid, store=store)

    def swap_in(self, sid: Sid) -> int:
        return self._manager.swap_in(sid)

    def sid_of(self, handle: Any) -> Sid:
        from repro.core.utils import SwapClusterUtils

        return self._sid_by_oid[SwapClusterUtils.oid_of(handle)]

    def set_priority(self, target: Any, priority: int) -> None:
        """Set a swap-cluster's responsiveness priority.

        ``target`` may be a sid, a managed object, or a proxy;
        ``priority`` is an int (``repro.policy.priority.Priority``
        values: 0 idle, 1 background, 2 foreground).  The
        ``responsiveness`` victim strategy evicts lower priorities
        first, and the degrade ladder's emergency rung never OOM-kills
        foreground clusters while any other candidate exists.
        """
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise TypeError(f"priority must be an int, got {priority!r}")
        sid = target if isinstance(target, int) else self.sid_of(target)
        self._cluster(sid).priority = priority

    @contextmanager
    def pin(self, target: Any) -> Iterator[SwapCluster]:
        """Keep a swap-cluster resident for the duration of a block.

        ``target`` may be a sid, a managed object, or a proxy.  The
        cluster is swapped in if needed and protected from swap-out until
        the block exits.
        """
        sid = target if isinstance(target, int) else self.sid_of(target)
        cluster = self._cluster(sid)
        if cluster.is_swapped:
            self._manager.swap_in(sid)
        cluster.pins += 1
        try:
            yield cluster
        finally:
            cluster.pins -= 1

    def merge_swap_clusters(self, absorber_sid: Sid, absorbed_sid: Sid) -> Sid:
        """Fold one resident swap-cluster into another (see
        :mod:`repro.core.restructure`)."""
        from repro.core.restructure import merge_swap_clusters

        return merge_swap_clusters(self, absorber_sid, absorbed_sid)

    def split_swap_cluster(self, sid: Sid, members: Any) -> Sid:
        """Move members into a fresh swap-cluster (see
        :mod:`repro.core.restructure`)."""
        from repro.core.restructure import split_swap_cluster

        return split_swap_cluster(self, sid, members)

    # ------------------------------------------------------------------ GC facade

    def gc(self, extra_roots: Tuple[Any, ...] = ()) -> Any:
        """Run the local collector (see :mod:`repro.memory.lgc`)."""
        from repro.memory.lgc import LocalCollector

        result = LocalCollector(self).collect(extra_roots=extra_roots)
        self.bus.emit(
            GcCompletedEvent(
                space=self.name,
                collected_objects=result.objects_collected,
                collected_clusters=result.clusters_collected,
                bytes_freed=result.bytes_freed,
            )
        )
        return result

    def _drop_cluster_record(self, sid: Sid) -> None:
        """Remove a collected cluster and tombstone any stale proxies."""
        cluster = self._pop_cluster(sid)
        if cluster is None:
            return
        tombstone = _CollectedTombstone(sid)
        stale = self.proxies_targeting(sid)
        self._drop_proxy_bucket(sid)
        for proxy in stale.values():
            proxy._obi_detach(tombstone)
        for oid in list(cluster.oids):
            self._sid_by_oid.pop(oid, None)
        self.bus.emit(
            ClusterCollectedEvent(
                space=self.name, sid=sid, cids=tuple(cluster.cids)
            )
        )

    # ------------------------------------------------------------------ integrity

    def verify_integrity(self) -> None:
        """Check the boundary-mediation and table invariants; raise on any
        violation.  Used heavily by tests (including property-based ones).
        """
        problems: List[str] = []
        for oid, obj in self._objects.items():
            owner_sid = getattr(obj, "_obi_sid", None)
            if owner_sid is None or self._sid_by_oid.get(oid) != owner_sid:
                problems.append(f"object oid={oid}: sid bookkeeping mismatch")
                continue
            for name, value in instance_fields(obj).items():
                self._check_value(value, owner_sid, f"oid={oid}.{name}", problems)
            if not self.heap.holds(oid):
                problems.append(f"object oid={oid}: resident but not on heap")
        for name, value in self._roots.items():
            self._check_value(value, ROOT_SID, f"root {name!r}", problems)
        for sid, cluster in self._clusters.items():
            if cluster.is_resident:
                missing = [oid for oid in cluster.oids if oid not in self._objects]
                if missing:
                    problems.append(
                        f"swap-cluster {sid}: resident but objects missing: {missing}"
                    )
            else:
                present = [oid for oid in cluster.oids if oid in self._objects]
                if present:
                    problems.append(
                        f"swap-cluster {sid}: swapped but objects resident: {present}"
                    )
                if cluster.replacement is None or cluster.location is None:
                    problems.append(
                        f"swap-cluster {sid}: swapped without replacement/location"
                    )
        indexed = {
            sid: cluster
            for sid, cluster in self._clusters.items()
            if sid != ROOT_SID and cluster.is_resident
        }
        if self._resident.keys() != indexed.keys() or any(
            self._resident[sid] is not cluster for sid, cluster in indexed.items()
        ):
            problems.append(
                f"resident index {sorted(self._resident)} does not match the "
                f"resident swap-clusters {sorted(indexed)}"
            )
        if problems:
            raise IntegrityError("; ".join(problems))

    def _check_value(
        self, value: Any, owner_sid: Sid, where: str, problems: List[str]
    ) -> None:
        cls = type(value)
        if cls in _ATOMIC:
            return
        if getattr(cls, "_obi_managed", False):
            value_sid = getattr(value, "_obi_sid", None)
            if getattr(value, "_obi_space", None) is not self:
                problems.append(f"{where}: raw reference to foreign/unadopted object")
            elif value_sid != owner_sid:
                problems.append(
                    f"{where}: raw cross-cluster reference "
                    f"({owner_sid} -> {value_sid}); must be a proxy"
                )
            return
        if getattr(cls, "_obi_is_proxy", False):
            if value._obi_space is not self:
                problems.append(f"{where}: proxy belongs to another space")
                return
            if value._obi_source_sid != owner_sid:
                problems.append(
                    f"{where}: proxy source {value._obi_source_sid} does not "
                    f"match holder cluster {owner_sid}"
                )
            if value._obi_target_sid == owner_sid:
                problems.append(
                    f"{where}: proxy points back into its own cluster "
                    f"(should have been dismantled)"
                )
            target_sid = self._sid_by_oid.get(value._obi_target_oid)
            if target_sid != value._obi_target_sid:
                problems.append(
                    f"{where}: proxy target oid={value._obi_target_oid} not in "
                    f"cluster {value._obi_target_sid}"
                )
            return
        if cls in (list, tuple, set, frozenset):
            for item in value:
                self._check_value(item, owner_sid, where + "[]", problems)
            return
        if cls is dict:
            for key, item in value.items():
                self._check_value(key, owner_sid, where + ".key", problems)
                self._check_value(item, owner_sid, where + "[]", problems)

    # ------------------------------------------------------------------ misc

    def describe(self) -> str:
        lines = [
            f"Space {self.name!r}: {len(self._objects)} resident objects, "
            f"{len(self._clusters)} swap-clusters, heap "
            f"{self.heap.used}/{self.heap.capacity} bytes "
            f"({self.heap.ratio:.0%})"
        ]
        for sid in sorted(self._clusters):
            cluster = self._clusters[sid]
            lines.append(
                f"  sc-{sid}: {cluster.state.value}, {len(cluster.oids)} objects, "
                f"{cluster.crossings} crossings, epoch {cluster.epoch}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Space {self.name!r} objects={len(self._objects)}>"
