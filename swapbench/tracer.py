"""Span tracing around the library's layer entry points.

The tracer wraps public entry points at run time, from the benchmark's
own code: manager methods, the codec functions bound in
``repro.core.manager`` and ``repro.core.sched``, every store and link
instance, the journal, the scheduler, ``space.gc`` and the victim
selector.  Nothing is installed inside ``src/``.  A target that no
longer exists is skipped and listed in :attr:`Tracer.missing`, so the
library can move or delete internals without breaking the benchmark.

Each app op is a root span (layer ``runtime``); every wrapped call made
while the op runs becomes a child span carrying the op's id.  Spans are
kept in memory as tuples (see :data:`SPAN_FIELDS`) and written out when
the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import repro.core.manager as manager_module
import repro.core.sched as sched_module

SPAN_FIELDS = (
    "name",
    "layer",
    "call",
    "target",
    "op_id",
    "span_id",
    "parent_id",
    "wall_start",
    "wall_end",
    "sim_start",
    "sim_end",
    "error",
    "bytes",
)

#: codec names bound in the manager module -> span name
WIRE_NAMES = {
    "encode_cluster_canonical": "wire.encode",
    "encode_cluster_binary": "wire.encode",
    "decode_cluster": "wire.decode",
    "decode_cluster_binary": "wire.decode",
    "verify_payload": "wire.verify",
    "digest_of_canonical": "wire.verify",
    "encode_cluster_delta": "wire.delta_encode",
    "encode_delta_binary": "wire.delta_encode",
    "apply_cluster_delta": "wire.delta_apply",
    "compress_body": "link.compress",
    "compress_payload": "link.compress",
}

#: codec names bound in the scheduler module -> span name
SCHED_WIRE_NAMES = {"verify_payload": "wire.verify"}

STORE_CALLS = {
    "store": "store.ship",
    "store_stream": "store.ship",
    "store_delta": "store.ship",
    "fetch": "store.fetch",
    "fetch_wire": "store.fetch",
    "contains": "store.probe",
    "digest": "store.probe",
    "has_room": "store.probe",
    "drop": "store.drop",
}


def _encoded_bytes(result: Any) -> int:
    """Size of the canonical text an encoder returned."""
    return len(result[0])


class Tracer:
    """Records one span per wrapped call made inside an app op."""

    def __init__(self) -> None:
        self.spans: List[Tuple[Any, ...]] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._next_id = 1
        self._op_id: Optional[int] = None
        self._clock: Any = None
        self._undo: List[Callable[[], None]] = []

    # -- installation ---------------------------------------------------------

    def install(self, workload: Any) -> None:
        """Wrap the entry points of one workload's space."""
        space = workload.space
        manager = space.manager
        self._clock = workload.clock
        for attr in ("swap_out", "swap_in", "ensure_room"):
            self._wrap(manager, attr, f"manager.{attr}", "manager", "manager")
        self._wrap(manager, "victim_selector", "victims.select", "policy", "manager")
        self._wrap(space, "gc", "gc", "memory", space.name)
        for module, table in ((manager_module, WIRE_NAMES), (sched_module, SCHED_WIRE_NAMES)):
            for attr, name in table.items():
                measure = _encoded_bytes if name == "wire.encode" else None
                layer = name.split(".")[0]
                self._wrap(module, attr, name, layer, module.__name__, measure)
        for store in workload.stores:
            for attr, name in STORE_CALLS.items():
                if hasattr(type(store), attr):
                    self._wrap(store, attr, name, "store", store.device_id)
        for link in workload.links:
            for attr in ("transfer", "transfer_batch"):
                self._wrap(link, attr, "link.transfer", "link", link.name)
        resilience = manager.resilience
        if resilience is not None:
            for attr in ("begin", "record_write", "commit", "abort"):
                self._wrap(resilience.journal, attr, "journal", "resilience", "journal")
        if manager.sched is not None:
            self._wrap(manager.sched, "acquire", "sched.acquire", "sched", "sched")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        target: str,
        measure: Optional[Callable[[Any], int]] = None,
    ) -> None:
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(f"{target}.{attr}")
            return
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer._op_id is None:
                return original(*args, **kwargs)
            return tracer._call(name, layer, attr, target, original, args, kwargs, measure)

        if attr in getattr(owner, "__dict__", {}):  # module global or instance attribute
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, wrapper)

    # -- spans ----------------------------------------------------------------

    def run_op(self, op_id: int, label: str, fn: Callable[[], Any]) -> Any:
        """Run one app op as a root span."""
        self._op_id = op_id
        try:
            return self._call(f"op.{label}", "runtime", "op", "app", fn, (), {}, None)
        finally:
            self._op_id = None

    def _call(
        self,
        name: str,
        layer: str,
        call: str,
        target: str,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        measure: Optional[Callable[[Any], int]],
    ) -> Any:
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        stack.append(span_id)
        error = None
        nbytes = 0
        sim_start = self._clock.now()
        wall_start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                nbytes = measure(result)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            wall_end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (
                    name,
                    layer,
                    call,
                    target,
                    self._op_id,
                    span_id,
                    parent,
                    wall_start,
                    wall_end,
                    sim_start,
                    self._clock.now(),
                    error,
                    nbytes,
                )
            )

    def write_jsonl(self, path: str, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = dict(zip(SPAN_FIELDS, span))
                record["workload"] = workload
                handle.write(json.dumps(record) + "\n")


def summarize(spans: Iterable[Tuple[Any, ...]]) -> Dict[str, Any]:
    """Per-span-name totals with self time (duration minus children).

    Returns ``{"names": {name: {...}}, "targets": {(name, target): {...}},
    "op_wall_s": total wall time of the ops}``; the ops' own self time is
    reported under the name ``runtime``.
    """
    spans = list(spans)
    child_wall: Dict[int, float] = {}
    child_sim: Dict[int, float] = {}
    for span in spans:
        parent = span[6]
        if parent is not None:
            child_wall[parent] = child_wall.get(parent, 0.0) + span[8] - span[7]
            child_sim[parent] = child_sim.get(parent, 0.0) + span[10] - span[9]
    names: Dict[str, Dict[str, Any]] = {}
    targets: Dict[Tuple[str, str], Dict[str, Any]] = {}
    op_wall = 0.0
    for span in spans:
        name, layer, call, target, _op, span_id, parent = span[:7]
        self_wall = span[8] - span[7] - child_wall.get(span_id, 0.0)
        self_sim = span[10] - span[9] - child_sim.get(span_id, 0.0)
        if parent is None:
            op_wall += span[8] - span[7]
            name = "runtime"
        for key, table in ((name, names), ((name, target), targets)):
            row = table.get(key)
            if row is None:
                row = table[key] = {
                    "layer": layer,
                    "calls": 0,
                    "self_wall_s": 0.0,
                    "self_sim_s": 0.0,
                    "errors": 0,
                    "bytes": 0,
                    "by_call": {},
                }
            row["calls"] += 1
            row["self_wall_s"] += self_wall
            row["self_sim_s"] += self_sim
            row["errors"] += span[11] is not None
            row["bytes"] += span[12]
            row["by_call"][call] = row["by_call"].get(call, 0) + 1
    return {"names": names, "targets": targets, "op_wall_s": op_wall}
