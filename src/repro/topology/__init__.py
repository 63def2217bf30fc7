"""Sharded topology service: cells, shards, primaries, reparenting.

The single manager talking to a handful of stores stops scaling the
moment the replication graph itself becomes a single point of loss.
This package partitions the cluster-key (sid) space into hash shards —
each with a *primary* store and replicas spread across *cells*
(``placement_group``s reused as failure domains) — and keeps the
replication records *colocated per cell*, so losing any one cell yields
partial reads, never a lost graph (the Vitess ``ReplicationGraph``
model).  Surviving cells plus raw store inventory can always rebuild
the whole thing (:meth:`TopologyService.rebuild`).

Opt in through :meth:`~repro.core.manager.SwappingManager.
enable_topology`; everything here is O(1) per placement lookup however
many keys exist, because per-key state is *derived* (hash → shard →
shard record), never stored per key.
"""

from repro.topology.shard import ShardRecord, ShardTable, shard_of
from repro.topology.service import (
    CellReplication,
    CellState,
    TopologyService,
    TopologyStats,
)

__all__ = [
    "shard_of",
    "ShardRecord",
    "ShardTable",
    "CellReplication",
    "CellState",
    "TopologyService",
    "TopologyStats",
]
