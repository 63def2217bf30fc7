"""Observability overhead guard.

The tentpole promise: attaching ``repro.obs`` must not distort the
system under observation.  Spans take their timestamps from the
simulated clock and never advance it, so the *simulated* cost of every
operation has to be bit-identical with observability on — and the guard
below holds the looser issue bar (<10%) with plenty of margin.  Wall
time is reported but not asserted (CI machines are too noisy for a
stable wall-clock bound).  Every bench harness, run on its quick sizing
with observability attached, must also dump a trace that passes
``python -m repro obs check`` and renders under ``obs report``.

Run:  pytest benchmarks/test_obs_overhead.py --benchmark-disable
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.async_sched import AsyncBenchConfig, run_async_bench
from repro.bench.delta import DeltaBenchConfig, run_delta_bench
from repro.bench.durability import DurabilityConfig, run_durability
from repro.bench.hotpath import HotPathConfig, run_hotpath, run_scenario
from repro.bench.scenarios import ScenarioBenchConfig, run_scenarios
from repro.bench.topology import TopologyBenchConfig, run_topology_bench
from repro.obs import cli as obs_cli

CONFIG = HotPathConfig.quick()


def _mean_swap_out(observe: bool) -> float:
    result = run_scenario(
        "overhead-probe",
        CONFIG,
        fastpath=False,
        mutate=False,
        observe=observe,
    )
    return result.swap_out_mean_s


def test_observability_adds_no_simulated_cost(benchmark):
    plain = _mean_swap_out(observe=False)
    observed = benchmark.pedantic(
        lambda: _mean_swap_out(observe=True), rounds=1, iterations=1
    )
    assert plain > 0
    # issue bar: <10% added simulated swap-out cost; actual: zero
    assert observed <= plain * 1.10
    assert observed == plain  # spans read the clock, never charge it


def test_observability_reports_phases_without_perturbing_counters():
    base = run_scenario(
        "counters-plain", CONFIG, fastpath=False, mutate=False
    )
    seen = run_scenario(
        "counters-observed", CONFIG, fastpath=False, mutate=False, observe=True
    )
    assert seen.phases and not base.phases
    assert seen.encode_calls == base.encode_calls
    assert seen.bytes_on_link == base.bytes_on_link
    assert seen.link_seconds == base.link_seconds


def _every_scenario_encodes(report) -> None:
    for name, scenario in report.scenarios.items():
        assert "encode" in scenario.phases, name


def _every_kill_count_has_phases(report) -> None:
    for kills, result in report.results.items():
        assert result.phases, f"kills={kills}: empty phase breakdown"


def _delta_matches_the_unobserved_run(report) -> None:
    plain = run_delta_bench(DeltaBenchConfig.quick())
    assert set(report.scenarios) == set(plain.scenarios)
    for name, result in report.scenarios.items():
        assert result.phases, name
        assert replace(result, phases={}) == plain.scenarios[name]


#: harness -> (quick observed run, extra check on its report)
HARNESSES = {
    "hotpath": (
        lambda **obs: run_hotpath(HotPathConfig.quick(), **obs),
        _every_scenario_encodes,
    ),
    "delta": (
        lambda **obs: run_delta_bench(DeltaBenchConfig.quick(), **obs),
        _delta_matches_the_unobserved_run,
    ),
    "async_sched": (
        lambda **obs: run_async_bench(AsyncBenchConfig.quick(), **obs),
        None,
    ),
    "scenarios": (
        lambda **obs: run_scenarios(ScenarioBenchConfig.quick_config(), **obs),
        None,
    ),
    "durability": (
        lambda **obs: run_durability(DurabilityConfig.quick(), **obs),
        _every_kill_count_has_phases,
    ),
    "topology": (
        lambda **obs: run_topology_bench(TopologyBenchConfig.quick(), **obs),
        None,
    ),
}


@pytest.mark.parametrize("harness", sorted(HARNESSES))
def test_observed_harness_dumps_a_valid_trace(harness, tmp_path):
    run, check = HARNESSES[harness]
    path = str(tmp_path / f"{harness}_obs.jsonl")
    report = run(observe=True, obs_path=path)
    assert obs_cli.main(["check", path]) == 0
    assert obs_cli.main(["report", path]) == 0
    if check is not None:
        check(report)
