"""Scenario bench harness: script determinism, scoring math, one real run."""

from repro.bench.runner import run_cases
from repro.bench.scenarios import (
    ScenarioBenchConfig,
    _p95,
    _worst,
    build_script,
    case,
    cases,
    score,
    script_seed,
)
from repro.bench.sweep import format_records
from repro.faults.scenarios import SCENARIOS, ScenarioPhase, ScenarioSpec


def test_p95_math():
    assert _p95([]) == 0.0
    assert _p95([3.0]) == 3.0
    assert _p95([float(v) for v in range(1, 101)]) == 95.0


def test_script_seed_distinguishes_scenarios_and_seeds():
    spike = SCENARIOS["memory_spike"]()
    storm = SCENARIOS["app_switch_storm"]()
    assert script_seed(spike, 1) != script_seed(storm, 1)
    assert script_seed(spike, 1) != script_seed(spike, 2)


def test_build_script_is_deterministic():
    # the ladder and baseline runs must replay byte-identical workloads;
    # any nondeterminism here silently invalidates the comparison
    spec = SCENARIOS["store_fleet_brownout"]()
    assert build_script(spec, 3) == build_script(spec, 3)
    assert build_script(spec, 3) != build_script(spec, 4)


def test_script_covers_every_phase_step():
    spec = SCENARIOS["memory_spike"]()
    script = build_script(spec, 1)
    assert len(script) == sum(phase.steps for phase in spec.phases)
    spiking = [step for step in script if step.spike_objects > 0]
    assert len(spiking) == 1  # the spike lands on the phase's first step
    assert any(step.release_spike for step in script)


def test_script_arrivals_use_fresh_task_indexes():
    spec = SCENARIOS["flash_crowd"]()
    script = build_script(spec, 1)
    arrived = [task for step in script for task in step.arrivals]
    assert arrived == sorted(arrived)
    assert len(set(arrived)) == len(arrived)
    assert min(arrived) == spec.tasks  # fresh, beyond the initial tasks


def test_worst_of_seeds_takes_the_bad_side():
    good = {"p95_stall_s": 0.1, "foreground_p95_stall_s": 0.1,
            "max_stall_s": 0.2, "foreground_oom": 0, "oom_kills": 0,
            "slo_met": True}
    bad = {"p95_stall_s": 5.0, "foreground_p95_stall_s": 4.0,
           "max_stall_s": 9.0, "foreground_oom": 2, "oom_kills": 3,
           "slo_met": False}
    worst = _worst([good, bad])
    assert worst["p95_stall_s"] == 5.0
    assert worst["foreground_oom"] == 2
    assert not worst["slo_met"]


def _tiny_spec():
    """A seconds-scale spec so the harness itself can be tested."""
    return ScenarioSpec(
        name="memory_spike",  # reuse a registered name for seeding
        description="tiny",
        phases=(
            ScenarioPhase(name="warm", steps=4, touches_per_step=4),
            ScenarioPhase(name="spike", steps=4, touches_per_step=4,
                          spike_objects=8, pattern="foreground"),
        ),
        tasks=4,
        objects_per_task=8,
        heap_capacity=12 << 10,
        store_capacity=64 << 10,
        store_count=2,
    )


def _run_once(spec, seed, ladder):
    """One unobserved case: its ``run_once`` result on a fresh world."""
    one = case(spec, seed, ladder)
    return one.run(one.build())


def test_run_once_scores_both_modes():
    spec = _tiny_spec()
    for ladder in (True, False):
        result = _run_once(spec, 1, ladder)
        assert result["mode"] == ("ladder" if ladder else "baseline")
        assert result["stall_samples"] > 0
        assert result["p95_stall_s"] >= 0.0
        assert isinstance(result["slo_met"], bool)
        assert result["sim_duration_s"] > 0.0
    ladder_result = _run_once(spec, 1, True)
    assert "rung_transitions" in ladder_result
    assert "final_rung" in ladder_result


def test_run_once_is_deterministic_per_seed():
    spec = _tiny_spec()
    first = _run_once(spec, 2, True)
    second = _run_once(spec, 2, True)
    for key in ("p95_stall_s", "stall_samples", "oom_kills",
                "foreground_oom", "sim_duration_s"):
        assert first[key] == second[key]


def test_quick_config_runs_one_seed_everywhere():
    config = ScenarioBenchConfig.quick_config(7)
    assert config.seeds == (7,)
    assert set(config.scenarios) == set(SCENARIOS)


def test_report_shape_and_table(monkeypatch):
    # shrink the world so the full pipeline stays test-sized
    monkeypatch.setitem(SCENARIOS, "memory_spike", _tiny_spec)
    config = ScenarioBenchConfig(seeds=(1,), scenarios=("memory_spike",))
    results = run_cases("scenarios", cases(config))
    assert list(results) == [
        "memory_spike:ladder:seed=1",
        "memory_spike:baseline:seed=1",
    ]
    report = score(config, results)
    entry = report["memory_spike"]
    assert {"ladder", "baseline"} <= set(entry)
    assert set(entry["slo"]) == {"ladder_met", "baseline_violates"}
    table = format_records(list(results.values()))
    assert "memory_spike:ladder:seed=1" in table
    assert "p95_stall_s" in table
