"""Telemetry: one-call snapshots of a space's middleware state.

Collects what operators and experiments keep reaching for — heap usage,
per-swap-cluster residency/size/recency, proxy population, manager
counters — into a plain dataclass, with a formatted report for humans.
Everything is read-only and cheap; nothing here touches the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Union

from repro.ids import ROOT_SID

#: The one naming scheme for swap counters: dot-namespaced metric name
#: -> attribute on :class:`~repro.core.manager.ManagerStats` *and*
#: :class:`SpaceTelemetry` (the two carry the same counters under the
#: same attribute names; entries missing on a given source are simply
#: skipped).  ``repro.obs`` absorbs these names into its metrics
#: registry, so greppable counters and exported metrics agree.
COUNTER_NAMES: Dict[str, str] = {
    "swap.out.count": "swap_outs",
    "swap.in.count": "swap_ins",
    "swap.drop.count": "drops",
    "swap.out.bytes": "bytes_shipped",
    "swap.in.bytes": "bytes_restored",
    "swap.mirror.writes": "mirror_writes",
    "swap.mirror.failovers": "mirror_failovers",
    "replication.cluster.count": "replicated_clusters",
    "resilience.retry.count": "retries",
    "resilience.failover.count": "failovers",
    "resilience.circuit.opens": "circuit_opens",
    "resilience.circuit.closes": "circuit_closes",
    "resilience.degraded.count": "degraded_swaps",
    "resilience.journal.recoveries": "journal_recoveries",
    "resilience.journal.truncated": "journal_truncated",
    "durability.replica.repaired": "replicas_repaired",
    "durability.replica.quarantined": "replicas_quarantined",
    "durability.scrub.ticks": "scrub_ticks",
    "durability.scrub.bytes_repaired": "scrub_bytes_repaired",
    "durability.orphans.collected": "orphans_collected",
    "durability.repromotions": "repromotions",
    "durability.placement.recoveries": "placement_recoveries",
    "fastpath.encode.count": "encode_calls",
    "fastpath.noop.count": "fastpath_noops",
    "fastpath.reship.count": "fastpath_reships",
    "fastpath.swapin.cache_hits": "swapin_cache_hits",
    "fastpath.delta.ships": "fastpath_delta_ships",
    "fastpath.delta.fallbacks": "fastpath_delta_fallbacks",
    "fastpath.delta.compactions": "fastpath_delta_compactions",
    "fastpath.delta.bytes_shipped": "delta_bytes_shipped",
    "fastpath.delta.bytes_saved": "delta_bytes_saved",
    "policy.ladder.escalations": "ladder_escalations",
    "policy.ladder.deescalations": "ladder_deescalations",
    "policy.ladder.compress_local": "ladder_compress_local",
    "policy.ladder.drop_clean": "ladder_drop_clean",
    "policy.oom.kills": "oom_kills",
    "policy.oom.kills_foreground": "oom_kills_foreground",
    "topology.reparent.count": "shard_reparents",
    "topology.cell.outages": "cell_outages",
    "topology.cell.recoveries": "cell_recoveries",
    "topology.rebuilds": "topology_rebuilds",
}

_MISSING = object()

#: A counter source: live stats, a frozen telemetry snapshot, or an
#: already-extracted name->value mapping.
CounterSource = Union["SpaceTelemetry", Any, Mapping[str, int]]


def counter_snapshot(source: CounterSource) -> Dict[str, int]:
    """The source's counters under their unified dot-namespaced names.

    Accepts a ``ManagerStats``, a :class:`SpaceTelemetry`, or a mapping
    produced by an earlier call (returned unchanged, copied)."""
    if isinstance(source, Mapping):
        return dict(source)
    values: Dict[str, int] = {}
    for name, attribute in COUNTER_NAMES.items():
        value = getattr(source, attribute, _MISSING)
        if value is not _MISSING:
            values[name] = value
    return values


def counter_diff(
    before: CounterSource, after: CounterSource
) -> Dict[str, int]:
    """Per-counter deltas between two snapshots (zero deltas omitted).

    Lets tests and benches assert *what an operation did* instead of
    absolute totals: ``counter_diff(a, b) == {"swap.out.count": 1}``."""
    before_values = counter_snapshot(before)
    after_values = counter_snapshot(after)
    deltas: Dict[str, int] = {}
    for name in set(before_values) | set(after_values):
        delta = after_values.get(name, 0) - before_values.get(name, 0)
        if delta:
            deltas[name] = delta
    return deltas


@dataclass(frozen=True)
class ClusterTelemetry:
    sid: int
    state: str
    objects: int
    footprint_bytes: int
    crossings: int
    last_crossing_tick: int
    epoch: int
    pins: int
    swap_outs: int
    swap_ins: int
    device_ids: tuple


@dataclass(frozen=True)
class SpaceTelemetry:
    space: str
    heap_used: int
    heap_capacity: int
    heap_ratio: float
    heap_peak: int
    resident_objects: int
    swapped_objects: int
    live_proxies: int
    roots: int
    tick: int
    swap_outs: int
    swap_ins: int
    drops: int
    bytes_shipped: int
    bytes_restored: int
    mirror_writes: int
    mirror_failovers: int
    clusters: tuple  # of ClusterTelemetry
    # -- resilience counters (zero while resilience is disabled) --
    retries: int = 0
    failovers: int = 0
    circuit_opens: int = 0
    degraded_swaps: int = 0
    journal_recoveries: int = 0
    journal_truncated: int = 0
    # -- durability counters (zero without replication/scrubbing) --
    replicas_repaired: int = 0
    replicas_quarantined: int = 0
    scrub_ticks: int = 0
    scrub_bytes_repaired: int = 0
    orphans_collected: int = 0
    repromotions: int = 0
    placement_recoveries: int = 0
    # -- fast-path counters (zero while the fast path is disabled) --
    encode_calls: int = 0
    fastpath_noops: int = 0
    fastpath_reships: int = 0
    swapin_cache_hits: int = 0
    payload_cache_bytes: int = 0
    # -- delta swap counters (zero while config.delta is off) --
    fastpath_delta_ships: int = 0
    fastpath_delta_fallbacks: int = 0
    fastpath_delta_compactions: int = 0
    delta_bytes_shipped: int = 0
    delta_bytes_saved: int = 0
    # -- degrade-ladder counters (zero while the ladder is disabled) --
    ladder_escalations: int = 0
    ladder_deescalations: int = 0
    ladder_compress_local: int = 0
    ladder_drop_clean: int = 0
    oom_kills: int = 0
    oom_kills_foreground: int = 0
    # -- topology counters (zero while topology is disabled) --
    shard_reparents: int = 0
    cell_outages: int = 0
    cell_recoveries: int = 0
    topology_rebuilds: int = 0

    def resident_clusters(self) -> List[ClusterTelemetry]:
        return [record for record in self.clusters if record.state == "resident"]

    def swapped_clusters(self) -> List[ClusterTelemetry]:
        return [record for record in self.clusters if record.state == "swapped"]


def snapshot(space: Any) -> SpaceTelemetry:
    """Collect a consistent telemetry snapshot of ``space``."""
    manager = space.manager
    heap = space.heap
    cluster_records: List[ClusterTelemetry] = []
    swapped_objects = 0
    for sid in sorted(space._clusters):
        cluster = space._clusters[sid]
        footprint = sum(
            heap.size_of(oid) for oid in cluster.oids if heap.holds(oid)
        )
        if cluster.is_swapped:
            swapped_objects += len(cluster.oids)
        cluster_records.append(
            ClusterTelemetry(
                sid=sid,
                state=cluster.state.value,
                objects=len(cluster.oids),
                footprint_bytes=footprint,
                crossings=cluster.crossings,
                last_crossing_tick=cluster.last_crossing_tick,
                epoch=cluster.epoch,
                pins=cluster.pins,
                swap_outs=cluster.swap_out_count,
                swap_ins=cluster.swap_in_count,
                device_ids=tuple(
                    holder.device_id for holder in manager.bindings_for(sid)
                ),
            )
        )
    stats = manager.stats
    return SpaceTelemetry(
        space=space.name,
        heap_used=heap.used,
        heap_capacity=heap.capacity,
        heap_ratio=heap.ratio,
        heap_peak=heap.stats().peak_used,
        resident_objects=space.object_count(),
        swapped_objects=swapped_objects,
        live_proxies=space.live_proxy_count(),
        roots=len(space.root_names()),
        tick=space._tick,
        swap_outs=stats.swap_outs,
        swap_ins=stats.swap_ins,
        drops=stats.drops,
        bytes_shipped=stats.bytes_shipped,
        bytes_restored=stats.bytes_restored,
        mirror_writes=stats.mirror_writes,
        mirror_failovers=stats.mirror_failovers,
        clusters=tuple(cluster_records),
        retries=stats.retries,
        failovers=stats.failovers,
        circuit_opens=stats.circuit_opens,
        degraded_swaps=stats.degraded_swaps,
        journal_recoveries=stats.journal_recoveries,
        journal_truncated=stats.journal_truncated,
        replicas_repaired=stats.replicas_repaired,
        replicas_quarantined=stats.replicas_quarantined,
        scrub_ticks=stats.scrub_ticks,
        scrub_bytes_repaired=stats.scrub_bytes_repaired,
        orphans_collected=stats.orphans_collected,
        repromotions=stats.repromotions,
        placement_recoveries=stats.placement_recoveries,
        encode_calls=stats.encode_calls,
        fastpath_noops=stats.fastpath_noops,
        fastpath_reships=stats.fastpath_reships,
        swapin_cache_hits=stats.swapin_cache_hits,
        fastpath_delta_ships=stats.fastpath_delta_ships,
        fastpath_delta_fallbacks=stats.fastpath_delta_fallbacks,
        fastpath_delta_compactions=stats.fastpath_delta_compactions,
        delta_bytes_shipped=stats.delta_bytes_shipped,
        delta_bytes_saved=stats.delta_bytes_saved,
        ladder_escalations=stats.ladder_escalations,
        ladder_deescalations=stats.ladder_deescalations,
        ladder_compress_local=stats.ladder_compress_local,
        ladder_drop_clean=stats.ladder_drop_clean,
        oom_kills=stats.oom_kills,
        oom_kills_foreground=stats.oom_kills_foreground,
        shard_reparents=stats.shard_reparents,
        cell_outages=stats.cell_outages,
        cell_recoveries=stats.cell_recoveries,
        topology_rebuilds=stats.topology_rebuilds,
        payload_cache_bytes=(
            manager.fastpath.cache.used_bytes
            if getattr(manager, "fastpath", None) is not None
            else 0
        ),
    )


def format_report(telemetry: SpaceTelemetry) -> str:
    """A human-readable multi-line report."""
    lines = [
        f"space {telemetry.space!r}: heap {telemetry.heap_used}/"
        f"{telemetry.heap_capacity} ({telemetry.heap_ratio:.0%}, "
        f"peak {telemetry.heap_peak})",
        f"  objects: {telemetry.resident_objects} resident, "
        f"{telemetry.swapped_objects} swapped; proxies: "
        f"{telemetry.live_proxies}; roots: {telemetry.roots}",
        f"  swaps: {telemetry.swap_outs} out / {telemetry.swap_ins} in / "
        f"{telemetry.drops} dropped; shipped {telemetry.bytes_shipped} B, "
        f"restored {telemetry.bytes_restored} B"
        + (
            f"; mirrors: {telemetry.mirror_writes} writes, "
            f"{telemetry.mirror_failovers} failovers"
            if telemetry.mirror_writes or telemetry.mirror_failovers
            else ""
        ),
    ]
    if (
        telemetry.retries
        or telemetry.failovers
        or telemetry.circuit_opens
        or telemetry.degraded_swaps
        or telemetry.journal_recoveries
    ):
        lines.append(
            f"  resilience: {telemetry.retries} retries, "
            f"{telemetry.failovers} failovers, "
            f"{telemetry.circuit_opens} circuit-opens, "
            f"{telemetry.degraded_swaps} degraded, "
            f"{telemetry.journal_recoveries} journal recoveries"
        )
    if (
        telemetry.scrub_ticks
        or telemetry.replicas_repaired
        or telemetry.replicas_quarantined
        or telemetry.repromotions
        or telemetry.orphans_collected
    ):
        lines.append(
            f"  durability: {telemetry.scrub_ticks} scrub ticks, "
            f"{telemetry.replicas_repaired} repaired "
            f"({telemetry.scrub_bytes_repaired} B), "
            f"{telemetry.replicas_quarantined} quarantined, "
            f"{telemetry.repromotions} re-promoted, "
            f"{telemetry.orphans_collected} orphans collected"
        )
    if (
        telemetry.fastpath_noops
        or telemetry.fastpath_reships
        or telemetry.swapin_cache_hits
        or telemetry.payload_cache_bytes
    ):
        lines.append(
            f"  fast path: {telemetry.fastpath_noops} no-ops, "
            f"{telemetry.fastpath_reships} re-ships, "
            f"{telemetry.swapin_cache_hits} cached reloads; "
            f"{telemetry.encode_calls} encodes, "
            f"cache {telemetry.payload_cache_bytes} B"
        )
    if telemetry.fastpath_delta_ships or telemetry.fastpath_delta_compactions:
        lines.append(
            f"  delta: {telemetry.fastpath_delta_ships} ships, "
            f"{telemetry.fastpath_delta_fallbacks} fallbacks, "
            f"{telemetry.fastpath_delta_compactions} compactions; "
            f"shipped {telemetry.delta_bytes_shipped} B, "
            f"saved {telemetry.delta_bytes_saved} B"
        )
    if (
        telemetry.ladder_escalations
        or telemetry.ladder_compress_local
        or telemetry.ladder_drop_clean
        or telemetry.oom_kills
    ):
        lines.append(
            f"  ladder: {telemetry.ladder_escalations} escalations / "
            f"{telemetry.ladder_deescalations} de-escalations; "
            f"{telemetry.ladder_compress_local} compress-local, "
            f"{telemetry.ladder_drop_clean} drop-clean, "
            f"{telemetry.oom_kills} OOM kills "
            f"({telemetry.oom_kills_foreground} foreground)"
        )
    for record in telemetry.clusters:
        label = "sc-0 (roots)" if record.sid == ROOT_SID else f"sc-{record.sid}"
        holders = f" @ {','.join(record.device_ids)}" if record.device_ids else ""
        lines.append(
            f"  {label:<14} {record.state:<8} {record.objects:>5} obj "
            f"{record.footprint_bytes:>8} B  {record.crossings:>6} crossings"
            f"  epoch {record.epoch}{holders}"
        )
    return "\n".join(lines)
