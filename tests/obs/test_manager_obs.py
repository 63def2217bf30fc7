"""Observability wired through the manager: spans, metrics, lifecycle."""

from __future__ import annotations

import pytest

from repro.comm.transport import bluetooth_link
from repro.devices.store import XmlStoreDevice
from repro.obs import parse_prometheus, span_tree
from tests.helpers import build_chain, chain_values, make_space


def _linked_space(name="obs", stores=1, capacity=1 << 20):
    """A space whose stores sit behind real simulated Bluetooth links."""
    space = make_space(name, with_store=False)
    for index in range(stores):
        link = bluetooth_link(clock=space.clock, name=f"bt{index}")
        space.manager.add_store(
            XmlStoreDevice(f"s{index}", capacity=capacity, link=link)
        )
    return space


def _trees(obs):
    return {
        trace_id: [s.name for s, _ in span_tree(spans)]
        for trace_id, spans in obs.tracer.traces().items()
    }


# -- lifecycle ---------------------------------------------------------------


def test_disabled_by_default(space):
    assert space.manager.obs is None


def test_enable_returns_and_installs(space):
    obs = space.manager.enable_observability()
    assert space.manager.obs is obs


def test_enable_twice_replaces_state(space):
    first = space.manager.enable_observability()
    second = space.manager.enable_observability()
    assert second is not first
    assert space.manager.obs is second


def test_disable_stops_stamping_and_spans(space):
    space.manager.enable_observability().detach()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    assert space.bus.last(type(space.bus.history[-1])).trace_id is None


def test_disabled_pipeline_emits_no_spans(space):
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)  # must not raise with obs None
    obs = space.manager.enable_observability()
    assert obs.tracer.spans() == []


# -- swap-out / swap-in span trees ------------------------------------------


def test_swap_out_trace_shape():
    space = _linked_space()
    obs = space.manager.enable_observability()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    trees = _trees(obs)
    assert len(trees) == 1
    names = next(iter(trees.values()))
    assert names[0] == "swap.out"
    assert "swap.out.encode" in names
    assert "swap.out.store" in names
    assert "link.transfer" in names


def test_swap_in_trace_shape():
    space = _linked_space()
    obs = space.manager.enable_observability()
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    chain_values(handle)  # forces the reload
    trees = _trees(obs)
    swap_in = [names for names in trees.values() if names[0] == "swap.in"]
    assert swap_in, f"no swap.in trace in {trees}"
    names = swap_in[0]
    assert "swap.in.fetch" in names
    assert "swap.in.verify" in names
    assert "swap.in.decode" in names


def test_events_carry_the_trace_id():
    space = _linked_space()
    obs = space.manager.enable_observability()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    from repro.events import SwapOutEvent

    event = space.bus.last(SwapOutEvent)
    (trace_id,) = obs.tracer.traces().keys()
    assert event.trace_id == trace_id
    assert event.span_id is not None


def test_simulated_latency_attributed():
    space = _linked_space()
    obs = space.manager.enable_observability()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    before = space.clock.now()
    space.swap_out(2)
    elapsed = space.clock.now() - before
    root = [s for s in obs.tracer.spans() if s.name == "swap.out"][0]
    assert root.duration_s == pytest.approx(elapsed)
    assert elapsed > 0  # the Bluetooth link charged real simulated time


def test_link_transfer_spans_carry_bytes():
    space = _linked_space()
    obs = space.manager.enable_observability()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    link_spans = [s for s in obs.tracer.spans() if s.name == "link.transfer"]
    assert link_spans
    assert all(s.tags["nbytes"] > 0 for s in link_spans)
    assert obs.metrics.counter("link.bytes.total").value == sum(
        s.tags["nbytes"] for s in link_spans
    )


# -- fast-path tiers ---------------------------------------------------------


def test_fastpath_tiers_tagged():
    space = _linked_space()
    space.manager.enable_fastpath()
    obs = space.manager.enable_observability()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    space.swap_in(2)  # reload without touching: cluster stays clean
    space.swap_out(2)  # metadata-only no-op
    roots = [s for s in obs.tracer.spans() if s.name == "swap.out"]
    assert [s.tags["tier"] for s in roots] == ["full", "noop"]
    probe = [s for s in obs.tracer.spans() if s.name == "fastpath.probe"]
    assert probe and probe[0].tags["hit"] is True


def test_swap_in_cache_hit_tagged():
    space = _linked_space()
    space.manager.enable_fastpath()
    obs = space.manager.enable_observability()
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    chain_values(handle)
    root = [s for s in obs.tracer.spans() if s.name == "swap.in"][0]
    assert root.tags["source"] == "cache"
    # served locally: no fetch span
    assert not [s for s in obs.tracer.spans() if s.name == "swap.in.fetch"]


# -- metrics -----------------------------------------------------------------


def test_latency_histograms_populated():
    space = _linked_space()
    obs = space.manager.enable_observability()
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    chain_values(handle)
    assert obs.metrics.get("swap.out.latency_s").count == 1
    assert obs.metrics.get("swap.in.latency_s").count == 1
    assert obs.metrics.get("swap.payload.bytes").count == 1


def test_refresh_absorbs_manager_counters():
    space = _linked_space()
    obs = space.manager.enable_observability()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    obs.refresh()
    assert obs.metrics.counter("swap.out.count").value == 1
    assert (
        obs.metrics.counter("swap.out.bytes").value
        == space.manager.stats.bytes_shipped
    )
    assert obs.metrics.gauge("heap.used.bytes").value == space.heap.used


def test_event_counters():
    space = _linked_space()
    obs = space.manager.enable_observability()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    assert obs.metrics.counter("event.swap.out.count").value == 1


def test_prometheus_export_parses_with_latency_buckets():
    space = _linked_space()
    obs = space.manager.enable_observability()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    samples = parse_prometheus(obs.prometheus())
    buckets = [
        labels
        for (name, labels) in samples
        if name == "repro_swap_out_latency_s_bucket"
    ]
    assert any('le="+Inf"' in labels for labels in buckets)
    assert samples[("repro_swap_out_latency_s_count", "")] == 1.0
    assert samples[("repro_swap_out_count_total", "")] == 1.0


def test_snapshot_and_report():
    space = _linked_space()
    obs = space.manager.enable_observability()
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    chain_values(handle)
    snap = obs.snapshot()
    assert snap["traces"] == 2
    assert "encode" in snap["phases"]
    report = obs.format_report()
    assert "swap.out" in report and "phase" in report


# -- scrub span --------------------------------------------------------------


def test_scrub_pass_traced():
    space = _linked_space(stores=2)
    space.manager.enable_resilience()
    obs = space.manager.enable_observability()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    space.manager.resilience.scrubber.tick(force=True)
    scrub = [s for s in obs.tracer.spans() if s.name == "scrub.pass"]
    assert len(scrub) == 1
    assert scrub[0].parent_id is None  # its own trace, not a swap's child
    assert "under_replicated" in scrub[0].tags


# -- store instrumentation lifecycle ----------------------------------------


def test_stores_added_later_are_hooked():
    space = _linked_space(stores=0)
    obs = space.manager.enable_observability()
    link = bluetooth_link(clock=space.clock, name="late")
    space.manager.add_store(XmlStoreDevice("late-s", capacity=1 << 20, link=link))
    assert link.on_transfer is not None
    obs.detach()
    assert link.on_transfer is None


def test_flaky_wrapped_store_still_hooked():
    from repro.faults.flaky import FaultInjector, FlakyLink, FlakyStore
    from repro.faults.plan import FaultPlan

    space = _linked_space(stores=0)
    injector = FaultInjector(FaultPlan(seed=1), clock=space.clock)
    link = bluetooth_link(clock=space.clock, name="bt0")
    inner = XmlStoreDevice("s0", capacity=1 << 20, link=FlakyLink(link, injector))
    space.manager.add_store(FlakyStore(inner, injector))
    obs = space.manager.enable_observability()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    assert [s for s in obs.tracer.spans() if s.name == "link.transfer"]
