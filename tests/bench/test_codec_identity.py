"""The swap hot-path bench replays bit-identically.

Replaying the hot-path bench — same workload, same simulated clock —
and comparing the *entire* record of each case (simulated percentiles,
link bytes, every counter) against the tracked reference in
``hotpath_quick.json`` guards the whole swap pipeline against behaviour
drift.  The reference holds the quick ``config`` and, under
``scenarios``, the unobserved ``run_cases("hotpath", cases(config))``
record of each case with that committed config; regenerate it only for
a change that is meant to move those results.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.hotpath import PLANS, HotPathConfig, cases
from repro.bench.runner import run_cases

REFERENCE_PATH = Path(__file__).with_name("hotpath_quick.json")


@pytest.fixture(scope="module")
def committed():
    return json.loads(REFERENCE_PATH.read_text())


@pytest.fixture(scope="module")
def replayed(committed):
    config = HotPathConfig(**committed["config"])
    return run_cases("hotpath", cases(config))


@pytest.mark.parametrize("scenario", sorted(PLANS))
def test_codec_off_run_matches_committed_bench(committed, replayed, scenario):
    assert replayed[scenario] == committed["scenarios"][scenario]
