"""The per-manager observability state: tracer + metrics + profiler.

One :class:`Observability` per :class:`~repro.core.manager.
SwappingManager`, created by ``manager.enable_observability()`` —
mirroring ``enable_resilience()`` / ``enable_fastpath()``.  Attaching

* installs the tracer as the event bus's trace provider, so every
  :class:`~repro.events.Event` emitted inside an open span carries that
  span's trace/span ids;
* subscribes to the bus and counts every event under
  ``event.<topic>.count``;
* hooks the :class:`~repro.comm.transport.SimulatedLink` of each known
  store (``on_transfer``), turning every radio transfer into a
  ``link.transfer`` span plus link metrics — stores added later are
  hooked by ``manager.add_store``;
* bridges finished ``swap.out`` / ``swap.in`` spans into latency
  histograms.

``detach()`` undoes all of it.  A manager that never enabled
observability pays one ``None`` check per operation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.export import render_prometheus, write_dump
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    PAYLOAD_BUCKETS_B,
    RETRY_BUCKETS,
)
from repro.obs.profile import PhaseProfiler, format_breakdown
from repro.obs.trace import NULL_SPAN, Span, Tracer, span_tree


class Observability:
    """Tracing + metrics + profiling for one swapping manager."""

    def __init__(self, manager: Any) -> None:
        self._manager = manager
        self.tracer = Tracer(self.clock)
        self.metrics = MetricsRegistry()
        self.profiler = PhaseProfiler()
        self._unsubscribe: List[Callable[[], None]] = []
        self._hooked_links: List[Any] = []
        # bind once: ``self._on_link_transfer`` makes a fresh bound-method
        # object per access, so identity checks at detach need this handle
        self._link_hook = self._on_link_transfer
        self._attached = False
        # pre-create the headline histograms so exports are stable even
        # before the first operation
        self.metrics.histogram("swap.out.latency_s", LATENCY_BUCKETS_S)
        self.metrics.histogram("swap.in.latency_s", LATENCY_BUCKETS_S)
        self.metrics.histogram("swap.payload.bytes", PAYLOAD_BUCKETS_B)
        self.metrics.histogram("swap.retry.attempts", RETRY_BUCKETS)
        self.tracer.add_observer(self.profiler.record)
        self.tracer.add_observer(self._bridge_span)

    # -- plumbing ----------------------------------------------------------

    @property
    def _space(self) -> Any:
        return self._manager._space

    @property
    def space_name(self) -> str:
        return self._space.name

    @property
    def clock(self) -> Any:
        return self._manager._space.clock

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> None:
        if self._attached:
            return
        self._attached = True
        bus = self._space.bus
        bus.set_trace_provider(self.tracer.current_context)
        self._unsubscribe.append(bus.subscribe_all(self._on_event))
        for store in self._manager.available_stores():
            self.instrument_store(store)

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        self._space.bus.set_trace_provider(None)
        for unsubscribe in self._unsubscribe:
            try:
                unsubscribe()
            except ValueError:  # already gone
                pass
        self._unsubscribe.clear()
        for link in self._hooked_links:
            if link.on_transfer is self._link_hook:
                link.on_transfer = None
        self._hooked_links.clear()

    def instrument_store(self, store: Any) -> None:
        """Hook the store's underlying simulated link, if it has one."""
        from repro.comm.transport import SimulatedLink

        link = getattr(store, "link", None)
        seen = 0
        # unwrap fault-injection decorators (FlakyLink keeps the real
        # link in ``_inner``) down to the object that owns the hook slot
        while link is not None and not isinstance(link, SimulatedLink):
            link = getattr(link, "_inner", None)
            seen += 1
            if seen > 8:  # defensive: cyclic wrappers
                return
        if link is None or link in self._hooked_links:
            return
        if link.on_transfer is None:
            link.on_transfer = self._link_hook
            self._hooked_links.append(link)

    # -- hooks -------------------------------------------------------------

    def _on_event(self, event: Any) -> None:
        try:
            self.metrics.counter(f"event.{type(event).topic}.count").inc()
        except Exception:  # noqa: BLE001 - observability must never break ops
            pass

    def _on_link_transfer(self, link: Any, nbytes: int, elapsed_s: float) -> None:
        try:
            self.metrics.counter("link.transfer.count").inc()
            self.metrics.counter("link.bytes.total").inc(nbytes)
            now = self.clock.now()
            self.tracer.record_span(
                "link.transfer",
                start_s=now - elapsed_s,
                end_s=now,
                link=getattr(link, "name", "link"),
                nbytes=nbytes,
            )
        except Exception:  # noqa: BLE001
            pass

    def _bridge_span(self, span: Span) -> None:
        if span.name == "swap.out":
            self.metrics.histogram(
                "swap.out.latency_s", LATENCY_BUCKETS_S
            ).observe(span.duration_s)
        elif span.name == "swap.in":
            self.metrics.histogram(
                "swap.in.latency_s", LATENCY_BUCKETS_S
            ).observe(span.duration_s)
        elif span.name == "retry.backoff":
            self.metrics.counter("swap.retry.count").inc()

    # -- recording helpers used by instrumented code -----------------------

    def observe_payload(self, nbytes: int) -> None:
        self.metrics.histogram("swap.payload.bytes", PAYLOAD_BUCKETS_B).observe(
            nbytes
        )

    def observe_attempts(self, attempts: int) -> None:
        self.metrics.histogram("swap.retry.attempts", RETRY_BUCKETS).observe(
            attempts
        )

    # -- unified counter view ----------------------------------------------

    def refresh(self) -> None:
        """Absorb the legacy ``ManagerStats`` counters (dot-named via
        :data:`repro.stats.COUNTER_NAMES`) and current gauges into the
        registry.  Called before every export/snapshot."""
        from repro.stats import counter_snapshot

        for name, value in counter_snapshot(self._manager.stats).items():
            self.metrics.counter(name).set_to(value)
        heap = self._space.heap
        self.metrics.gauge("heap.used.bytes").set(heap.used)
        self.metrics.gauge("heap.capacity.bytes").set(heap.capacity)
        fastpath = self._manager.fastpath
        self.metrics.gauge("fastpath.cache.bytes").set(
            fastpath.cache.used_bytes if fastpath is not None else 0
        )
        stats = self._manager.stats
        if stats.swap_outs:
            hits = stats.fastpath_noops + stats.fastpath_reships
            self.metrics.gauge("fastpath.cache.hit_ratio").set(
                hits / stats.swap_outs
            )
        sched = getattr(self._manager, "sched", None)
        if sched is not None:
            pipeline = sched.transfers.stats
            self.metrics.counter("link.pipeline.transfers").set_to(
                pipeline.transfers
            )
            self.metrics.counter("link.pipeline.barriers").set_to(
                pipeline.barriers
            )
            self.metrics.gauge("link.pipeline.serial_s").set(
                pipeline.serial_s
            )
            self.metrics.gauge("link.pipeline.pipelined_s").set(
                pipeline.pipelined_s
            )
            self.metrics.gauge("link.pipeline.saved_s").set(
                pipeline.saved_s
            )
            sstats = sched.stats
            self.metrics.gauge("sched.queue.depth").set(len(sched.queue))
            self.metrics.counter("sched.queue.max_depth").set_to(
                sstats.max_queue_depth
            )
            self.metrics.counter("sched.ops.issued").set_to(sstats.ops_issued)
            self.metrics.counter("sched.fetch.demand").set_to(
                sstats.demand_fetches
            )
            self.metrics.gauge("sched.inflight.fetches").set(
                sched.in_flight_fetches()
            )
            self.metrics.counter("sched.writeback.ships").set_to(
                sstats.writebacks
            )
            self.metrics.counter("sched.drops.stale").set_to(
                sstats.stale_drops
            )
            self.metrics.counter("sched.prefetch.issued").set_to(
                sstats.prefetch_issued
            )
            self.metrics.counter("sched.prefetch.hits").set_to(
                sstats.prefetch_hits
            )
            self.metrics.counter("sched.prefetch.waste").set_to(
                sstats.prefetch_waste
            )
            self.metrics.counter("sched.prefetch.cancelled").set_to(
                sstats.prefetch_cancelled
            )
            self.metrics.counter("sched.prefetch.preempted").set_to(
                sstats.prefetch_preempted
            )
            self.metrics.counter("sched.prefetch.demoted").set_to(
                sstats.prefetch_demoted
            )
            self.metrics.gauge("sched.stall.demand_s").set(
                sstats.demand_stall_s
            )
            self.metrics.gauge("sched.stall.hit_s").set(sstats.hit_stall_s)
            self.metrics.gauge("sched.stall.backpressure_s").set(
                sstats.backpressure_stall_s
            )
            self.metrics.gauge("sched.stall.saved_s").set(
                sstats.stall_saved_s
            )
            self.metrics.gauge("sched.overlap.ratio").set(
                sched.overlap_ratio()
            )
        ladder = getattr(self._manager, "ladder", None)
        if ladder is not None:
            signal = ladder.signal
            if signal is not None:
                self.metrics.gauge("policy.pressure.level").set(
                    int(signal.level)
                )
                self.metrics.gauge("policy.pressure.heap_headroom").set(
                    signal.heap_headroom
                )
                self.metrics.gauge("policy.pressure.store_health").set(
                    signal.store_health
                )
                self.metrics.gauge("policy.pressure.link_saturation").set(
                    signal.link_saturation
                )
            self.metrics.gauge("policy.ladder.rung").set(int(ladder.rung))
            faults = ladder.fault_stalls
            self.metrics.counter("slo.fault_stall.count").set_to(faults.count)
            self.metrics.gauge("slo.fault_stall.p95_s").set(faults.p95())
            self.metrics.gauge("slo.fault_stall.max_s").set(faults.max_s)
            self.metrics.gauge("slo.fault_stall.total_s").set(faults.total_s)
            self.metrics.gauge("slo.fault_stall.foreground_p95_s").set(
                faults.p95(min_priority=2)
            )
            allocs = ladder.alloc_stalls
            self.metrics.counter("slo.alloc_stall.count").set_to(allocs.count)
            self.metrics.gauge("slo.alloc_stall.p95_s").set(allocs.p95())
        topology = getattr(self._manager, "topology", None)
        if topology is not None:
            tstats = topology.stats
            self.metrics.gauge("topology.shards").set(
                topology.shard_table.num_shards
            )
            self.metrics.gauge("topology.cells.live_fraction").set(
                topology.live_cell_fraction()
            )
            self.metrics.counter("topology.reparent.noops").set_to(
                tstats.reparent_noops
            )
            self.metrics.counter("topology.reads.partial").set_to(
                tstats.partial_reads
            )
            self.metrics.counter("topology.ops.invalidated").set_to(
                tstats.ops_invalidated
            )
            self.metrics.counter("topology.repair.replicas").set_to(
                tstats.repair_replicas
            )
            self.metrics.counter("topology.repair.bytes").set_to(
                tstats.repair_bytes
            )
            self.metrics.gauge("topology.reparent.last_latency_s").set(
                tstats.last_reparent_latency_s
            )
        self.metrics.counter("trace.spans.dropped").set_to(
            self.tracer.dropped_spans
        )
        dropped_events = getattr(self._space.bus, "dropped_count", None)
        if dropped_events is not None:
            self.metrics.counter("event.history.dropped").set_to(dropped_events)

    # -- exports -----------------------------------------------------------

    def export_jsonl(self, path: str, *, label: Optional[str] = None,
                     append: bool = False) -> int:
        """Write the JSONL dump; returns lines written."""
        self.refresh()
        mode = "a" if append else "w"
        with open(path, mode, encoding="utf-8") as handle:
            return write_dump(self, handle, label=label)

    def prometheus(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        self.refresh()
        return render_prometheus(self.metrics)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data summary (metrics + trace shape + phase breakdown)."""
        self.refresh()
        return {
            "space": self.space_name,
            "clock_s": self.clock.now(),
            "metrics": self.metrics.snapshot(),
            "traces": len(self.tracer.traces()),
            "spans": len(self.tracer.finished),
            "dropped_spans": self.tracer.dropped_spans,
            "phases": self.profiler.breakdown(),
        }

    def format_report(self, *, max_traces: int = 5) -> str:
        """A human-readable report: metric headlines, phase table, and
        the most recent span trees."""
        self.refresh()
        lines = [f"observability report — space {self.space_name!r}, "
                 f"clock {self.clock.now():.3f}s"]
        out_latency = self.metrics.get("swap.out.latency_s")
        in_latency = self.metrics.get("swap.in.latency_s")
        if out_latency is not None and out_latency.count:
            lines.append(
                f"  swap-out: {out_latency.count} ops, "
                f"mean {out_latency.sum / out_latency.count:.4f}s"
            )
        if in_latency is not None and in_latency.count:
            lines.append(
                f"  swap-in:  {in_latency.count} ops, "
                f"mean {in_latency.sum / in_latency.count:.4f}s"
            )
        breakdown = self.profiler.breakdown()
        if breakdown:
            lines.append("")
            lines.append(format_breakdown(breakdown))
        traces = list(self.tracer.traces().items())
        for trace_id, spans in traces[-max_traces:]:
            lines.append("")
            lines.append(f"trace {trace_id} ({len(spans)} span(s)):")
            for span, depth in span_tree(spans):
                tag_text = " ".join(
                    f"{key}={value}" for key, value in span.tags.items()
                )
                error = f" error={span.error!r}" if span.error else ""
                lines.append(
                    f"  {'  ' * depth}{span.name} "
                    f"[{span.duration_s:.4f}s]"
                    f"{' ' + tag_text if tag_text else ''}"
                    f" ({span.status}){error}"
                )
        return "\n".join(lines)

    def span(self, name: str, **tags: Any):
        """Convenience passthrough (``obs.span(...)``)."""
        return self.tracer.span(name, **tags)


__all__ = ["Observability", "NULL_SPAN"]
