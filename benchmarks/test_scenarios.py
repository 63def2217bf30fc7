"""Pressure and brownout scenarios — the degrade ladder's SLO floors.

Runs every scenario twice per seed, degrade ladder on and off, on
byte-identical scripts, at seeds 1, 2 and 3.  At each seed the ladder
must keep every scenario inside its p95-stall SLO with no foreground OOM
kill, and the ladder-off baseline must violate its SLO under store
brownout and the memory spike (else the scenario no longer stresses
anything).

Run:  pytest benchmarks/test_scenarios.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.bench.runner import run_cases
from repro.bench.scenarios import ScenarioBenchConfig, cases, score
from repro.bench.sweep import format_records


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scenarios(benchmark, seed):
    config = ScenarioBenchConfig.quick_config(seed)
    results = benchmark.pedantic(
        lambda: run_cases("scenarios", cases(config)),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_records(list(results.values())))

    scenarios = score(config, results)
    for name, entry in scenarios.items():
        assert entry["slo"]["ladder_met"], f"{name}: ladder misses its SLO"
        assert entry["ladder"]["foreground_oom"] == 0, name
    for name in ("store_fleet_brownout", "memory_spike"):
        assert scenarios[name]["slo"]["baseline_violates"], name
