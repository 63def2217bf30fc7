"""The swap hot-path bench replays bit-identically.

Replaying the hot-path bench — same workload, same simulated clock —
and comparing the *entire* scenario result (simulated percentiles, link
bytes, every counter) against the tracked reference in
``hotpath_quick.json`` guards the whole swap pipeline against behaviour
drift.  The reference holds the quick ``config`` and, under
``scenarios``, ``asdict(run_scenario(name, config, fastpath=...,
mutate=...))`` for each plan in ``PLANS`` with that committed config;
regenerate it only for a change that is meant to move those results.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.bench.hotpath import HotPathConfig, run_scenario

REFERENCE_PATH = Path(__file__).with_name("hotpath_quick.json")

PLANS = {
    "baseline": (False, False),
    "fastpath_clean": (True, False),
    "fastpath_mutating": (True, True),
}


@pytest.fixture(scope="module")
def committed():
    return json.loads(REFERENCE_PATH.read_text())


def _config(committed) -> HotPathConfig:
    return HotPathConfig(**committed["config"])


@pytest.mark.parametrize("scenario", sorted(PLANS))
def test_codec_off_run_matches_committed_bench(committed, scenario):
    fastpath, mutate = PLANS[scenario]
    result = run_scenario(
        scenario, _config(committed), fastpath=fastpath, mutate=mutate
    )
    assert asdict(result) == committed["scenarios"][scenario]
