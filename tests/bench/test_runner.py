"""The feature-harness runner's contract, on the tiny hot-path cases."""

from __future__ import annotations

from repro.bench import hotpath
from repro.bench.runner import Case, percentile, ratio, run_cases
from repro.obs.export import load_dump

TINY = hotpath.HotPathConfig(objects=100, cluster_size=50, cycles=2)


def _labels(path) -> list:
    return [
        record["label"]
        for record in load_dump(str(path))
        if record.get("kind") == "meta"
    ]


def test_observing_changes_nothing_but_phases():
    plain = run_cases("hotpath", hotpath.cases(TINY))
    seen = run_cases("hotpath", hotpath.cases(TINY), observe=True)
    assert list(plain) == list(seen) == list(hotpath.PLANS)
    for name, record in seen.items():
        assert record["name"] == name
        assert plain[name]["phases"] == {}
        assert record["phases"]
        assert {**record, "phases": {}} == plain[name]


def test_each_case_gets_a_fresh_world():
    worlds = []

    def remembered(case: Case) -> Case:
        def build():
            worlds.append(case.build())
            return worlds[-1]

        return case._replace(build=build)

    results = run_cases(
        "hotpath", [remembered(case) for case in hotpath.cases(TINY)]
    )
    assert len({id(world.space) for world in worlds}) == len(hotpath.PLANS)
    # nothing carried over: every case swapped its two clusters per cycle
    assert {result["swap_outs"] for result in results.values()} == {4}


def test_one_dump_per_case_and_the_next_run_truncates(tmp_path):
    path = tmp_path / "runner.jsonl"
    run_cases("hotpath", hotpath.cases(TINY), observe=True, obs_path=str(path))
    assert _labels(path) == [f"hotpath:{name}" for name in hotpath.PLANS]
    run_cases(
        "again", [hotpath.case("baseline", TINY)], observe=True, obs_path=str(path)
    )
    assert _labels(path) == ["again:baseline"]


def test_no_dump_without_observe(tmp_path):
    path = tmp_path / "none.jsonl"
    run_cases("hotpath", [hotpath.case("baseline", TINY)], obs_path=str(path))
    assert not path.exists()


def test_ratio_and_percentile():
    assert ratio({"x": 6.0}, {"x": 2.0}, "x") == 3.0
    assert ratio({"x": 6.0}, {"x": 0}, "x") == float("inf")
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([float(v) for v in range(1, 101)], 0.95) == 95.0
