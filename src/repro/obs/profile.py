"""The profiling harness: per-phase cost attribution from spans.

Benchmarks want "where did the swap cycle spend its time" without
hand-threading timers through five modules.  The :class:`PhaseProfiler`
subscribes to a tracer's finished spans and folds the phase-bearing ones
(:data:`PHASE_OF`) into per-phase aggregates:

* ``sim_s`` — simulated seconds (radio time for ``link``; zero for pure
  CPU phases like ``encode``, which the simulation charges nothing for);
* ``wall_s`` — real CPU seconds measured per span, which is what makes
  the encode/verify/journal attribution non-trivial.

``store`` and ``fetch`` phases are *inclusive* of the link transfers
they wait on; the ``link`` phase counts the radio specifically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: span name -> phase label.  Container spans (``swap.out``, ``scrub.pass``)
#: are deliberately absent: aggregating them would double-count children.
PHASE_OF: Dict[str, str] = {
    "swap.out.encode": "encode",
    "swap.out.delta.encode": "encode",
    "swap.out.delta.apply": "encode",
    "swap.out.store": "store",
    "swap.out.delta.store": "store",
    "swap.out.journal": "journal",
    "fastpath.probe": "store",
    "swap.in.fetch": "fetch",
    "swap.in.verify": "verify",
    "swap.in.decode": "decode",
    "link.transfer": "link",
    "retry.backoff": "backoff",
}

#: Stable presentation order for reports and bench JSON.
PHASE_ORDER = (
    "encode", "store", "link", "journal", "fetch", "verify", "decode",
    "backoff",
)


@dataclass
class PhaseStats:
    count: int = 0
    errors: int = 0
    sim_s: float = 0.0
    wall_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "errors": self.errors,
            "sim_s": self.sim_s,
            "wall_s": self.wall_s,
        }


class PhaseProfiler:
    """Aggregates phase-bearing spans; robust to span-buffer eviction
    (aggregation happens at finish time, not at export time)."""

    def __init__(self) -> None:
        self.phases: Dict[str, PhaseStats] = {}

    def record(self, span: Any) -> None:
        """Tracer observer: fold one finished span into its phase."""
        phase = PHASE_OF.get(span.name)
        if phase is None:
            return
        stats = self.phases.get(phase)
        if stats is None:
            stats = self.phases[phase] = PhaseStats()
        stats.count += 1
        if span.status != "ok":
            stats.errors += 1
        stats.sim_s += span.duration_s
        stats.wall_s += span.wall_s

    def breakdown(self) -> Dict[str, Dict[str, Any]]:
        """Phase -> aggregate dict, in :data:`PHASE_ORDER` order."""
        ordered: Dict[str, Dict[str, Any]] = {}
        for phase in PHASE_ORDER:
            if phase in self.phases:
                ordered[phase] = self.phases[phase].to_dict()
        for phase in sorted(self.phases):
            if phase not in ordered:
                ordered[phase] = self.phases[phase].to_dict()
        return ordered

    def clear(self) -> None:
        self.phases.clear()


def format_breakdown(breakdown: Dict[str, Dict[str, Any]]) -> str:
    """A small human-readable per-phase table."""
    header = (
        f"{'phase':<10} {'count':>7} {'errors':>7} {'sim s':>10} {'wall ms':>9}"
    )
    lines = [header, "-" * len(header)]
    for phase, stats in breakdown.items():
        lines.append(
            f"{phase:<10} {stats['count']:>7} {stats['errors']:>7} "
            f"{stats['sim_s']:>10.4f} {stats['wall_s'] * 1000:>9.2f}"
        )
    return "\n".join(lines)
