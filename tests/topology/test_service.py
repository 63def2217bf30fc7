"""TopologyService: cells, reparenting, cell loss, rebuild, routing."""

import pytest

from repro.core.space import Space
from repro.devices import XmlStoreDevice
from repro.errors import SwapError
from repro.events import (
    CellDownEvent,
    CellRecoveredEvent,
    ShardReparentedEvent,
)
from repro.faults import FaultInjector, FaultPlan, FlakyStore
from repro.resilience import ResilienceConfig
from repro.topology import CellState
from tests.helpers import build_chain


def fleet_space(cells=3, per_cell=3, factor=3, shards=8, capacity=1 << 22):
    """A space over ``cells`` x ``per_cell`` flaky stores with topology on."""
    space = Space("topo", heap_capacity=1 << 22)
    stores = {}
    for cell in range(cells):
        for i in range(per_cell):
            inner = XmlStoreDevice(
                f"c{cell}s{i}",
                capacity=capacity,
                placement_group=f"cell-{cell}",
            )
            flaky = FlakyStore(
                inner,
                FaultInjector(FaultPlan(seed=cell * 100 + i), space.clock),
            )
            stores[flaky.device_id] = flaky
            space.manager.add_store(flaky)
    space.manager.enable_resilience(
        ResilienceConfig(replication_factor=factor)
    )
    topology = space.manager.enable_topology(shards=shards)
    return space, stores, topology


def swap_out_all(space):
    sids = []
    for sid, cluster in sorted(space.clusters().items()):
        if sid != 0 and cluster.swappable():
            space.swap_out(sid)
            sids.append(sid)
    return sids


def ingest_chains(space, count=6, length=8):
    for n in range(count):
        space.ingest(build_chain(length), cluster_size=length, root_name=f"r{n}")


class TestEnable:
    def test_requires_resilience(self):
        space = Space("bare", heap_capacity=1 << 20)
        space.manager.add_store(XmlStoreDevice("s0"))
        with pytest.raises(SwapError):
            space.manager.enable_topology(shards=4)

    def test_installs_placement_observer(self):
        space, _, topology = fleet_space()
        assert space.manager.resilience.placement.observer is topology
        assert space.manager.topology is topology

    def test_cells_derive_from_placement_groups(self):
        _, _, topology = fleet_space(cells=3, per_cell=2)
        assert sorted(topology.cells()) == ["cell-0", "cell-1", "cell-2"]
        assert topology.cell_of("c1s0") == "cell-1"

    def test_shard_holders_span_distinct_cells(self):
        _, _, topology = fleet_space(cells=3, per_cell=3, factor=3)
        for record in topology.shard_table.records():
            holders = record.holders()
            assert len(holders) == 3
            cells = {topology.cell_of(holder) for holder in holders}
            assert len(cells) == 3  # anti-affinity across cells


class TestRouting:
    def test_swap_out_lands_on_the_shard_holders(self):
        space, _, topology = fleet_space()
        ingest_chains(space)
        sids = swap_out_all(space)
        placement = space.manager.resilience.placement
        for sid in sids:
            record = placement.get(sid)
            holders = set(
                topology.shard_table.record_for(sid).holders()
            )
            assert set(record.active()) <= holders

    def test_cell_records_track_replica_sets(self):
        space, _, topology = fleet_space()
        ingest_chains(space)
        sids = swap_out_all(space)
        tracked = set()
        for cell in topology.cells().values():
            tracked.update(cell.shards)
        assert {topology.shard_of(sid) for sid in sids} <= tracked

    def test_forget_unregisters_from_cell_records(self):
        space, _, topology = fleet_space()
        ingest_chains(space, count=1)
        (sid,) = swap_out_all(space)
        space.swap_in(sid)
        for cell in topology.cells().values():
            assert topology.shard_of(sid) not in cell.shards

    def test_select_for_prefers_primary_then_replicas(self):
        space, stores, topology = fleet_space()
        record = topology.shard_table.record(0)
        chosen = topology.select_for_sid = topology.select_for(
            next(
                sid for sid in range(1, 500)
                if topology.shard_of(sid) == 0
            ),
            100,
            3,
        )
        assert [s.device_id for s in chosen][0] == record.primary

    def test_dark_cell_records_read_as_partial(self):
        space, stores, topology = fleet_space()
        for store in stores.values():
            if topology.cell_of(store.device_id) == "cell-1":
                store.partition()
        topology.tick()
        before = topology.stats.partial_reads
        assert topology.cell_records("cell-1") is None
        assert topology.stats.partial_reads == before + 1
        assert topology.cell_records("cell-0") is not None


class TestReparent:
    def test_dead_primary_reparents_to_healthiest_replica(self):
        space, stores, topology = fleet_space()
        ingest_chains(space)
        swap_out_all(space)
        record = topology.shard_table.record(0)
        old_primary = record.primary
        stores[old_primary].kill(lose_data=True)
        space.manager.detach_store(stores[old_primary], dead=True)
        assert record.primary != old_primary
        assert record.primary is not None
        event = space.bus.last(ShardReparentedEvent)
        assert event is not None
        assert event.to_device == record.primary
        assert record.parent_epoch >= 1

    def test_reparent_is_idempotent(self):
        space, stores, topology = fleet_space()
        record = topology.shard_table.record(0)
        # the incumbent is alive: repeated calls are no-ops
        for _ in range(3):
            assert topology.reparent(0, reason="test") is False
        assert topology.stats.reparent_noops == 3
        assert topology.stats.reparents == 0

    def test_election_ranks_by_failure_rate_not_net_success(self):
        space, stores, topology = fleet_space()
        resilience = space.manager.resilience
        record = topology.shard_table.record(0)
        primary, good, bad = record.holders()
        # `bad` is busier (more net successes) but fails more often
        for _ in range(20):
            resilience.record_success(bad)
        for _ in range(5):
            resilience.record_failure(bad)
            resilience.record_success(bad)
        for _ in range(4):
            resilience.record_success(good)
        stores[primary].kill()
        topology.reparent(0, reason="primary died")
        assert record.primary == good

    def test_deterministic_tie_break_by_device_id(self):
        space, stores, topology = fleet_space()
        record = topology.shard_table.record(0)
        primary = record.primary
        replicas = sorted(record.replicas)
        stores[primary].kill()
        topology.reparent(0, reason="primary died")
        assert record.primary == replicas[0]

    def test_reparent_triggers_deficit_repair(self):
        space, stores, topology = fleet_space()
        ingest_chains(space)
        sids = swap_out_all(space)
        placement = space.manager.resilience.placement
        victim = topology.shard_table.record_for(sids[0]).primary
        stores[victim].kill(lose_data=True)
        space.manager.detach_store(stores[victim], dead=True)
        space.manager.resilience.scrubber.run_until_stable()
        rf = space.manager.target_replicas()
        for sid in sids:
            assert placement.get(sid).live_count == rf

    def test_reparent_survives_partial_reads_while_cell_down(self):
        space, stores, topology = fleet_space()
        ingest_chains(space)
        swap_out_all(space)
        # darken one cell, then kill a primary in another: the election
        # must proceed off the readable records only
        for store in stores.values():
            if topology.cell_of(store.device_id) == "cell-2":
                store.partition()
        topology.tick()
        record = next(
            r
            for r in topology.shard_table.records()
            if topology.cell_of(r.primary) == "cell-0"
        )
        stores[record.primary].kill()
        assert topology.reparent(record.shard_id, reason="died") is True
        assert topology.cell_of(record.primary) == "cell-1"


class TestCellLoss:
    def test_tick_detects_full_cell_outage(self):
        space, stores, topology = fleet_space()
        ingest_chains(space)
        swap_out_all(space)
        for store in stores.values():
            if topology.cell_of(store.device_id) == "cell-0":
                store.kill(lose_data=True)
        reparented = topology.tick()
        event = space.bus.last(CellDownEvent)
        assert event is not None and event.cell == "cell-0"
        assert set(event.stores) == {"c0s0", "c0s1", "c0s2"}
        assert topology.cells()["cell-0"].state is CellState.DOWN
        assert topology.live_cell_fraction() == pytest.approx(2 / 3)
        # every shard the cell led was reparented out of it
        for record in topology.shard_table.records():
            assert topology.cell_of(record.primary) != "cell-0"
        assert space.manager.stats.cell_outages == 1

    def test_tick_is_idempotent_while_cell_stays_down(self):
        space, stores, topology = fleet_space()
        for store in stores.values():
            if topology.cell_of(store.device_id) == "cell-0":
                store.partition()
        topology.tick()
        topology.tick()
        topology.tick()
        assert space.bus.count(CellDownEvent) == 1

    def test_heal_emits_recovery_and_restores_fraction(self):
        space, stores, topology = fleet_space()
        cell_stores = [
            store
            for store in stores.values()
            if topology.cell_of(store.device_id) == "cell-1"
        ]
        for store in cell_stores:
            store.partition()
        topology.tick()
        for store in cell_stores:
            store.heal()
        topology.tick()
        event = space.bus.last(CellRecoveredEvent)
        assert event is not None and event.cell == "cell-1"
        assert topology.live_cell_fraction() == 1.0
        assert space.manager.stats.cell_recoveries == 1

    def test_one_survivor_keeps_the_cell_up(self):
        space, stores, topology = fleet_space()
        cell_stores = [
            store
            for store in stores.values()
            if topology.cell_of(store.device_id) == "cell-0"
        ]
        for store in cell_stores[:-1]:
            store.kill()
        topology.tick()
        assert space.bus.count(CellDownEvent) == 0

    def test_losing_any_full_cell_loses_zero_clusters(self):
        for dead_cell in ("cell-0", "cell-1", "cell-2"):
            space, stores, topology = fleet_space()
            ingest_chains(space)
            sids = swap_out_all(space)
            for store in list(stores.values()):
                if topology.cell_of(store.device_id) == dead_cell:
                    store.kill(lose_data=True)
                    space.manager.detach_store(store, dead=True)
            space.manager.resilience.scrubber.run_until_stable()
            placement = space.manager.resilience.placement
            assert all(placement.get(sid).live_count > 0 for sid in sids)
            for sid in sids:
                space.swap_in(sid)  # raises on loss/corruption

    def test_cell_outage_is_store_health_pressure(self):
        space, stores, topology = fleet_space()
        space.manager.enable_degrade_ladder()
        assert space.manager.ladder.assess().store_health == 1.0
        for store in stores.values():
            if topology.cell_of(store.device_id) == "cell-0":
                store.partition()
        topology.tick()
        signal = space.manager.ladder.assess()
        assert signal.store_health <= 2 / 3


class TestRebuild:
    def test_rebuild_from_surviving_cells_and_inventory(self):
        space, stores, topology = fleet_space()
        ingest_chains(space)
        sids = swap_out_all(space)
        for store in stores.values():
            if topology.cell_of(store.device_id) == "cell-1":
                store.partition()
        result = space.manager.rebuild_topology()
        assert result["cells_partial"] == 1
        assert result["placement_records"] == len(sids)
        for record in topology.shard_table.records():
            assert topology.cell_of(record.primary) != "cell-1"
        assert space.manager.stats.topology_rebuilds == 1

    def test_rebuild_readopts_replicas_from_raw_inventory(self):
        space, stores, topology = fleet_space()
        ingest_chains(space)
        sids = swap_out_all(space)
        # simulate total graph loss: wipe every cell record, keep stores;
        # rebuild() alone must re-adopt the graph from raw key inventory
        # (through the manager, recover_placement's observer hooks would
        # repopulate the records first — also correct, tested above)
        for cell in topology.cells().values():
            cell.shards.clear()
        result = topology.rebuild()
        assert result["inventory_replicas"] > 0
        tracked = set()
        for cell in topology.cells().values():
            tracked.update(cell.shards)
        assert {topology.shard_of(sid) for sid in sids} <= tracked

    def test_rebuild_without_topology_raises(self):
        space = Space("bare", heap_capacity=1 << 20)
        with pytest.raises(SwapError):
            space.manager.rebuild_topology()


class TestAttach:
    def test_newcomer_fills_underfilled_shards(self):
        space, stores, topology = fleet_space(cells=2, per_cell=1, factor=3)
        # rf=3 over 2 cells: every shard is one holder short
        inner = XmlStoreDevice(
            "late0", capacity=1 << 22, placement_group="cell-late"
        )
        late = FlakyStore(
            inner, FaultInjector(FaultPlan(seed=99), space.clock)
        )
        space.manager.attach_store(late)
        for record in topology.shard_table.records():
            assert "late0" in record.holders()
