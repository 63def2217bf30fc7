"""``repro.obs`` — unified observability for the swap pipeline.

Span-based tracing (:mod:`~repro.obs.trace`), a namespaced metrics
registry (:mod:`~repro.obs.metrics`), JSONL/Prometheus exporters
(:mod:`~repro.obs.export`), and a per-phase profiling harness
(:mod:`~repro.obs.profile`), tied to one manager by
:class:`~repro.obs.runtime.Observability`.

Opt in with ``space.manager.enable_observability()``; everything is a
no-op (one ``None`` check per operation) while disabled.  See
``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    check_dump,
    load_dump,
    parse_prometheus,
    registry_from_dump,
    render_prometheus,
    write_dump,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    PAYLOAD_BUCKETS_B,
    RETRY_BUCKETS,
)
from repro.obs.profile import PHASE_OF, PhaseProfiler, PhaseStats, format_breakdown
from repro.obs.runtime import Observability
from repro.obs.trace import NULL_SPAN, Span, Tracer, span_tree

__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "NULL_SPAN",
    "span_tree",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "PAYLOAD_BUCKETS_B",
    "RETRY_BUCKETS",
    "PhaseProfiler",
    "PhaseStats",
    "PHASE_OF",
    "format_breakdown",
    "write_dump",
    "load_dump",
    "check_dump",
    "registry_from_dump",
    "render_prometheus",
    "parse_prometheus",
]
