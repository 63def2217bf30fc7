"""The naive one-proxy-per-object baseline.

Paper, Section 5: "our proposed solution also has several benefits over a
naive one that would have one proxy per each object and all references
mediated by them.  Common application objects are small.  So, this could
potentially double memory occupation when fully-loaded ... This approach
would also inevitably impose a higher performance penalty, due to
indirections.  Furthermore, even when all objects were swapped, the
proxies would still remain."

This module implements that design faithfully so the comparison is
runnable: every managed object gets exactly one permanent
:class:`NaiveProxy`; every reference field holds a proxy (so **every**
navigation is mediated); swapping works object-by-object; proxies are
never reclaimed while the graph is reachable, so the proxy overhead
persists at 100% swap-out.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.clustering import walk_graph
from repro.core.interfaces import SwapStore
from repro.errors import CodecError, SwapError
from repro.ids import IdAllocator
from repro.memory.heap import Heap
from repro.memory.sizemodel import DEFAULT_SIZE_MODEL, SizeModel
from repro.runtime.classext import instance_fields
from repro.runtime.registry import TypeRegistry, global_registry
from repro.wire.canonical import canonical_element
from repro.wire.scan import read_document, read_fields, scan_once
from repro.wire.wrappers import emit_fields

_object_setattr = object.__setattr__


class NaiveProxy:
    """Permanent per-object proxy; all accesses funnel through it."""

    __slots__ = ("_nv_runtime", "_nv_oid")

    _nv_is_naive_proxy = True

    def __init__(self, runtime: "NaiveRuntime", oid: int) -> None:
        _object_setattr(self, "_nv_runtime", runtime)
        _object_setattr(self, "_nv_oid", oid)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        target = self._nv_runtime._resolve(self._nv_oid)
        value = getattr(target, name)
        if callable(value) and getattr(value, "__self__", None) is target:
            def forwarder(*args: Any, **kwargs: Any) -> Any:
                live = self._nv_runtime._resolve(self._nv_oid)
                return getattr(live, name)(*args, **kwargs)

            return forwarder
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        if name.startswith("_nv_"):
            _object_setattr(self, name, value)
            return
        target = self._nv_runtime._resolve(self._nv_oid)
        setattr(target, name, value)

    def __eq__(self, other: Any) -> Any:
        if other is self:
            return True
        if getattr(type(other), "_nv_is_naive_proxy", False):
            return self._nv_oid == other._nv_oid
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._nv_oid)

    def __repr__(self) -> str:
        state = "swapped" if self._nv_runtime.is_swapped(self._nv_oid) else "resident"
        return f"<naive-proxy oid={self._nv_oid} {state}>"


class NaiveRuntime:
    """Object space with per-object proxies and per-object swapping."""

    def __init__(
        self,
        heap_capacity: int = 16 * 1024 * 1024,
        registry: Optional[TypeRegistry] = None,
        size_model: Optional[SizeModel] = None,
    ) -> None:
        self.heap = Heap(heap_capacity)
        self._registry = registry if registry is not None else global_registry()
        self.size_model = size_model if size_model is not None else DEFAULT_SIZE_MODEL
        self._oids = IdAllocator()
        self._objects: Dict[int, Any] = {}
        #: One *permanent strong* proxy per object — the design's flaw:
        #: proxies stay on the heap even when every object is swapped.
        self._proxies: Dict[int, NaiveProxy] = {}
        self._swapped: Dict[int, str] = {}  # oid -> store key
        self._store: Optional[SwapStore] = None
        self.swap_outs = 0
        self.swap_ins = 0

    # -- setup ---------------------------------------------------------------

    def attach_store(self, store: SwapStore) -> None:
        self._store = store

    def ingest(self, root: Any) -> NaiveProxy:
        """Adopt a raw graph: every object proxied, every edge mediated."""
        order = walk_graph(root)
        for obj in order:
            oid = self._oids.next()
            _object_setattr(obj, "_nv_oid", oid)
            self._objects[oid] = obj
            self._proxies[oid] = NaiveProxy(self, oid)
            self.heap.allocate(oid, self.size_model.size_of(obj))
            # the proxy itself occupies heap — and never leaves
            self.heap.allocate(-oid, self.size_model.proxy_size())
        for obj in order:
            self._mediate_fields(obj)
        return self._proxies[root._nv_oid]

    def proxy_of(self, oid: int) -> NaiveProxy:
        return self._proxies[oid]

    def is_swapped(self, oid: int) -> bool:
        return oid in self._swapped

    def object_count(self) -> int:
        return len(self._proxies)

    def resident_count(self) -> int:
        return len(self._objects)

    # -- swapping (object granularity) ------------------------------------------

    def swap_out(self, oid: int) -> None:
        if oid in self._swapped:
            raise SwapError(f"object {oid} already swapped")
        if self._store is None:
            raise SwapError("no store attached")
        obj = self._objects.pop(oid)
        key = f"naive/{oid}"
        self._store.store(key, self._encode(oid, obj))
        self._swapped[oid] = key
        self.heap.free_oid(oid)
        # note: heap entry -oid (the proxy) intentionally NOT freed
        self.swap_outs += 1

    def swap_out_all(self) -> int:
        count = 0
        for oid in list(self._objects):
            self.swap_out(oid)
            count += 1
        return count

    def _resolve(self, oid: int) -> Any:
        obj = self._objects.get(oid)
        if obj is not None:
            return obj
        key = self._swapped.pop(oid)
        assert self._store is not None
        obj = self._decode(self._store.fetch(key))
        self._store.drop(key)
        self._objects[oid] = obj
        self.heap.allocate(oid, self.size_model.size_of(obj))
        self.swap_ins += 1
        return obj

    # -- mediation -------------------------------------------------------------------

    def _mediate_fields(self, obj: Any) -> None:
        for name, value in instance_fields(obj).items():
            new_value = self._mediate_value(value)
            if new_value is not value:
                _object_setattr(obj, name, new_value)

    def _mediate_value(self, value: Any) -> Any:
        oid = getattr(value, "_nv_oid", None)
        if oid is not None and getattr(type(value), "_obi_managed", False):
            return self._proxies[oid]
        if type(value) is list:
            for index, item in enumerate(value):
                new_item = self._mediate_value(item)
                if new_item is not item:
                    value[index] = new_item
            return value
        if type(value) is tuple:
            rebuilt = tuple(self._mediate_value(item) for item in value)
            return rebuilt if any(
                new is not old for new, old in zip(rebuilt, value)
            ) else value
        return value

    # -- per-object wire format -----------------------------------------------------------

    def _classify(self, value: Any) -> tuple | None:
        if getattr(type(value), "_nv_is_naive_proxy", False):
            return ("local", value._nv_oid)
        if getattr(type(value), "_obi_managed", False):
            raise CodecError("naive runtime fields must hold proxies, not raw refs")
        return None

    def _encode(self, oid: int, obj: Any) -> str:
        fields: List[str] = []
        emit_fields(fields, instance_fields(obj), self._classify)
        return canonical_element(
            "naive-object",
            {"oid": str(oid), "class": type(obj)._obi_schema.name},
            "".join(fields),
        )

    def _decode(self, text: str) -> Any:
        def resolve(kind: str, ident: Any) -> Any:
            if kind != "local":
                raise CodecError("naive documents only carry proxy references")
            return self._proxies[ident]

        def read(candidate: str) -> Tuple[Dict[str, str], Dict[str, Any]]:
            attrs, body = read_document(candidate, "naive-object")
            return attrs, read_fields(body, resolve)

        attrs, fields = scan_once(text, "naive object", read)
        obj = object.__new__(self._registry.resolve(attrs.get("class", "")))
        _object_setattr(obj, "_nv_oid", int(attrs["oid"]))
        for name, value in fields.items():
            _object_setattr(obj, name, value)
        return obj

    # -- reporting -------------------------------------------------------------------------

    def memory_report(self) -> Dict[str, int]:
        object_bytes = sum(
            self.heap.size_of(oid) for oid in self._objects if self.heap.holds(oid)
        )
        proxy_bytes = len(self._proxies) * self.size_model.proxy_size()
        return {
            "objects": len(self._proxies),
            "resident": len(self._objects),
            "object_bytes": object_bytes,
            "proxy_bytes": proxy_bytes,
            "total_bytes": self.heap.used,
        }
