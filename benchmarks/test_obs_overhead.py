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

import pytest

from repro.bench import async_sched, delta, durability, hotpath, scenarios, topology
from repro.bench.runner import run_cases
from repro.obs import cli as obs_cli

CONFIG = hotpath.HotPathConfig.quick()


def _baseline(observe: bool) -> dict:
    probe = [hotpath.case("baseline", CONFIG)]
    return run_cases("hotpath", probe, observe=observe)["baseline"]


def test_observability_adds_no_simulated_cost(benchmark):
    plain = _baseline(observe=False)["swap_out_mean_s"]
    observed = benchmark.pedantic(
        lambda: _baseline(observe=True)["swap_out_mean_s"],
        rounds=1,
        iterations=1,
    )
    assert plain > 0
    # issue bar: <10% added simulated swap-out cost; actual: zero
    assert observed <= plain * 1.10
    assert observed == plain  # spans read the clock, never charge it


def test_observability_reports_phases_without_perturbing_counters():
    base = _baseline(observe=False)
    seen = _baseline(observe=True)
    assert seen["phases"] and not base["phases"]
    assert seen["encode_calls"] == base["encode_calls"]
    assert seen["bytes_on_link"] == base["bytes_on_link"]
    assert seen["link_seconds"] == base["link_seconds"]


def _every_scenario_encodes(results) -> None:
    for name, result in results.items():
        assert "encode" in result["phases"], name


def _every_kill_count_has_phases(results) -> None:
    for name, result in results.items():
        assert result["phases"], f"{name}: empty phase breakdown"


def _delta_matches_the_unobserved_run(results) -> None:
    plain = run_cases("delta", delta.cases(delta.DeltaBenchConfig.quick()))
    assert set(results) == set(plain)
    for name, result in results.items():
        assert result["phases"], name
        assert {**result, "phases": {}} == plain[name]


#: harness -> (its quick cases, extra check on the observed results)
HARNESSES = {
    "hotpath": (
        lambda: hotpath.cases(CONFIG),
        _every_scenario_encodes,
    ),
    "delta": (
        lambda: delta.cases(delta.DeltaBenchConfig.quick()),
        _delta_matches_the_unobserved_run,
    ),
    "async_sched": (
        lambda: async_sched.cases(async_sched.AsyncBenchConfig.quick()),
        None,
    ),
    "scenarios": (
        lambda: scenarios.cases(scenarios.ScenarioBenchConfig.quick_config()),
        None,
    ),
    "durability": (
        lambda: durability.cases(durability.DurabilityConfig.quick()),
        _every_kill_count_has_phases,
    ),
    "topology": (
        lambda: topology.cases(topology.TopologyBenchConfig.quick()),
        None,
    ),
}


@pytest.mark.parametrize("harness", sorted(HARNESSES))
def test_observed_harness_dumps_a_valid_trace(harness, tmp_path):
    cases, check = HARNESSES[harness]
    path = str(tmp_path / f"{harness}_obs.jsonl")
    results = run_cases(harness, cases(), observe=True, obs_path=path)
    assert obs_cli.main(["check", path]) == 0
    assert obs_cli.main(["report", path]) == 0
    if check is not None:
        check(results)
