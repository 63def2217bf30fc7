"""GC-assisted offloading baseline (Messer et al. ICDCS'02, Chen et al. WMCSA'03).

The related work migrates individual objects to a nearby *server* and
leaves per-object **surrogates** behind.  Unlike object-swapping this
requires (Section 6): (i) object tables that account for objects residing
in other machines, (ii) an instrumented LGC that monitors objects
one-by-one to pick offload victims, and (iii) a DGC algorithm managing
references between resident and migrated objects — plus a receiver that
runs a compatible VM/runtime, not a dumb XML store.

This module implements that design honestly (object table, surrogates,
access counting as the "instrumented GC", reference-count DGC between
device and server) so the portability matrix and the overhead comparison
are measured, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.comm.transport import Link, LoopbackLink
from repro.core.clustering import walk_graph
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


#: The qualitative evaluation's requirements matrix (paper §5 and §6).
#: Keys are the approaches; values name what each demands.
REQUIREMENTS_MATRIX: Dict[str, Dict[str, bool]] = {
    "object-swapping (this paper)": {
        "vm_modification": False,
        "per_object_surrogates": False,
        "dgc_required": False,
        "receiver_needs_vm": False,
        "receiver_needs_middleware": False,
        "cpu_intensive": False,
    },
    "offloading (Messer'02/Chen'03)": {
        "vm_modification": True,
        "per_object_surrogates": True,
        "dgc_required": True,
        "receiver_needs_vm": True,
        "receiver_needs_middleware": True,
        "cpu_intensive": False,
    },
    "heap compression (Chen'03 OOPSLA)": {
        "vm_modification": True,
        "per_object_surrogates": False,
        "dgc_required": False,
        "receiver_needs_vm": False,
        "receiver_needs_middleware": False,
        "cpu_intensive": True,
    },
    "naive per-object proxies": {
        "vm_modification": False,
        "per_object_surrogates": True,
        "dgc_required": False,
        "receiver_needs_vm": False,
        "receiver_needs_middleware": False,
        "cpu_intensive": False,
    },
}


class Surrogate:
    """Per-object stand-in for a migrated object (transparent forwarder)."""

    __slots__ = ("_ol_runtime", "_ol_oid")

    _ol_is_surrogate = True

    def __init__(self, runtime: "OffloadRuntime", oid: int) -> None:
        _object_setattr(self, "_ol_runtime", runtime)
        _object_setattr(self, "_ol_oid", oid)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        target = self._ol_runtime._fetch_back(self._ol_oid)
        return getattr(target, name)

    def __repr__(self) -> str:
        return f"<surrogate oid={self._ol_oid}>"


class _ObjectTableEntry:
    __slots__ = ("oid", "location", "access_count", "remote_ref_count")

    def __init__(self, oid: int) -> None:
        self.oid = oid
        self.location = "local"  # "local" | "remote"
        self.access_count = 0
        #: references from resident objects to this migrated object —
        #: the DGC refcount the approach must maintain
        self.remote_ref_count = 0


class _RemoteObjectServer:
    """The capable receiver this approach requires (runs our runtime)."""

    def __init__(self) -> None:
        self.held: Dict[int, str] = {}

    def put(self, oid: int, payload: str) -> None:
        self.held[oid] = payload

    def get(self, oid: int) -> str:
        return self.held[oid]

    def release(self, oid: int) -> None:
        self.held.pop(oid, None)


class OffloadRuntime:
    """Modified-VM runtime with per-object offloading.

    The "VM modification" shows up as: an object table consulted on
    every mediated access, access counting (the instrumented LGC's
    victim signal), and surrogate maintenance.
    """

    def __init__(
        self,
        heap_capacity: int = 16 * 1024 * 1024,
        link: Optional[Link] = None,
        registry: Optional[TypeRegistry] = None,
        size_model: Optional[SizeModel] = None,
    ) -> None:
        self.heap = Heap(heap_capacity)
        self._registry = registry if registry is not None else global_registry()
        self.size_model = size_model if size_model is not None else DEFAULT_SIZE_MODEL
        self._link = link if link is not None else LoopbackLink()
        self._oids = IdAllocator()
        self._objects: Dict[int, Any] = {}
        self._table: Dict[int, _ObjectTableEntry] = {}
        self._surrogates: Dict[int, Surrogate] = {}
        self.server = _RemoteObjectServer()
        self.offloads = 0
        self.fetch_backs = 0

    # -- adoption ----------------------------------------------------------------

    def ingest(self, root: Any) -> Any:
        for obj in walk_graph(root):
            oid = self._oids.next()
            _object_setattr(obj, "_ol_oid", oid)
            self._objects[oid] = obj
            self._table[oid] = _ObjectTableEntry(oid)
            self.heap.allocate(oid, self.size_model.size_of(obj))
        return root

    def record_access(self, obj: Any) -> None:
        """The instrumented-LGC hook: per-object access monitoring."""
        entry = self._table.get(getattr(obj, "_ol_oid", -1))
        if entry is not None:
            entry.access_count += 1

    # -- offload / fetch-back ----------------------------------------------------------

    def offload(self, oid: int) -> None:
        """Migrate one object to the server, leave a surrogate."""
        entry = self._table[oid]
        if entry.location == "remote":
            raise SwapError(f"object {oid} already offloaded")
        obj = self._objects.pop(oid)
        payload = self._encode(oid, obj)
        self._link.transfer(len(payload.encode("utf-8")))
        self.server.put(oid, payload)
        surrogate = Surrogate(self, oid)
        self._surrogates[oid] = surrogate
        # every resident field referencing the object must be re-pointed
        # to the surrogate, and the DGC refcount established
        refs = 0
        for holder in self._objects.values():
            refs += self._repoint(holder, obj, surrogate)
        entry.remote_ref_count = refs
        entry.location = "remote"
        self.heap.free_oid(oid)
        self.heap.allocate(-oid, self.size_model.proxy_size())  # surrogate cost
        self.offloads += 1

    def offload_coldest(self, count: int = 1) -> List[int]:
        """The GC-assisted victim pick: least-accessed local objects."""
        candidates = sorted(
            (entry for entry in self._table.values() if entry.location == "local"),
            key=lambda entry: entry.access_count,
        )
        chosen = [entry.oid for entry in candidates[:count]]
        for oid in chosen:
            self.offload(oid)
        return chosen

    def _fetch_back(self, oid: int) -> Any:
        entry = self._table[oid]
        if entry.location == "local":
            return self._objects[oid]
        payload = self.server.get(oid)
        self._link.transfer(len(payload.encode("utf-8")))
        obj = self._decode(payload)
        self.server.release(oid)
        self._objects[oid] = obj
        self.heap.free_oid(-oid)
        self.heap.allocate(oid, self.size_model.size_of(obj))
        entry.location = "local"
        surrogate = self._surrogates.pop(oid)
        for holder in self._objects.values():
            self._repoint(holder, surrogate, obj)
        self.fetch_backs += 1
        return obj

    def dgc_release(self, oid: int) -> None:
        """DGC: a remote object with zero inbound refs is reclaimed."""
        entry = self._table.get(oid)
        if entry is None or entry.location != "remote":
            return
        if entry.remote_ref_count == 0:
            self.server.release(oid)
            self._surrogates.pop(oid, None)
            if self.heap.holds(-oid):
                self.heap.free_oid(-oid)
            del self._table[oid]

    # -- plumbing ------------------------------------------------------------------------

    def _repoint(self, holder: Any, old: Any, new: Any) -> int:
        count = 0
        for name, value in instance_fields(holder).items():
            if value is old:
                _object_setattr(holder, name, new)
                count += 1
            elif type(value) is list:
                for index, item in enumerate(value):
                    if item is old:
                        value[index] = new
                        count += 1
        return count

    def _classify(self, value: Any) -> tuple | None:
        oid = getattr(value, "_ol_oid", None)
        if oid is not None and (
            getattr(type(value), "_obi_managed", False)
            or getattr(type(value), "_ol_is_surrogate", False)
        ):
            return ("local", oid)
        return None

    def _encode(self, oid: int, obj: Any) -> str:
        fields: List[str] = []
        emit_fields(fields, instance_fields(obj), self._classify)
        return canonical_element(
            "offload-object",
            {"oid": str(oid), "class": type(obj)._obi_schema.name},
            "".join(fields),
        )

    def _decode(self, text: str) -> Any:
        def resolve(kind: str, ident: Any) -> Any:
            if kind != "local":
                raise CodecError("offload documents only carry oid references")
            entry = self._table.get(ident)
            if entry is not None and entry.location == "local":
                return self._objects[ident]
            surrogate = self._surrogates.get(ident)
            if surrogate is None:
                surrogate = Surrogate(self, ident)
                self._surrogates[ident] = surrogate
            return surrogate

        def read(candidate: str) -> Tuple[Dict[str, str], Dict[str, Any]]:
            attrs, body = read_document(candidate, "offload-object")
            return attrs, read_fields(body, resolve)

        attrs, fields = scan_once(text, "offload object", read)
        obj = object.__new__(self._registry.resolve(attrs.get("class", "")))
        _object_setattr(obj, "_ol_oid", int(attrs["oid"]))
        for name, value in fields.items():
            _object_setattr(obj, name, value)
        return obj

    def memory_report(self) -> Dict[str, int]:
        return {
            "resident": len(self._objects),
            "remote": sum(
                1 for entry in self._table.values() if entry.location == "remote"
            ),
            "total_bytes": self.heap.used,
        }
