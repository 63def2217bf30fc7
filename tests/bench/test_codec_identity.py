"""The swap hot-path bench replays bit-identically.

Replaying the hot-path bench — same workload, same simulated clock —
and comparing the *entire* scenario result (simulated percentiles, link
bytes, every counter) against the entry committed in
``BENCH_swap_hotpath.json`` guards the whole swap pipeline against
behaviour drift.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.bench.hotpath import HotPathConfig, run_scenario

BENCH_PATH = Path(__file__).resolve().parents[2] / "BENCH_swap_hotpath.json"

PLANS = {
    "baseline": (False, False),
    "fastpath_clean": (True, False),
    "fastpath_mutating": (True, True),
}


@pytest.fixture(scope="module")
def committed():
    if not BENCH_PATH.exists():
        pytest.skip(
            "BENCH_swap_hotpath.json not present (bench artifacts are "
            "generated, not tracked) — run "
            "`python -m repro.bench.hotpath --quick` first"
        )
    return json.loads(BENCH_PATH.read_text())


def _config(committed) -> HotPathConfig:
    return HotPathConfig(
        **{
            key: value
            for key, value in committed["config"].items()
            if key in HotPathConfig.__dataclass_fields__
        }
    )


@pytest.mark.parametrize("scenario", sorted(PLANS))
def test_codec_off_run_matches_committed_bench(committed, scenario):
    fastpath, mutate = PLANS[scenario]
    result = run_scenario(
        scenario, _config(committed), fastpath=fastpath, mutate=mutate
    )
    assert asdict(result) == committed["scenarios"][scenario]

