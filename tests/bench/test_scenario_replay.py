"""A scenario-bench run replays the committed reference bit for bit.

The strongest regression guard for the swap runtime under the fault
scenarios: replay a scenario-bench run and compare the *entire* scored
result — stall distributions, counters, rung transitions — against the
tracked reference in ``scenarios_seed1.json``: the seed-1 ``run_once``
results of ``memory_spike`` and ``app_switch_storm`` with the ladder on
and off, each on its case's fresh world.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.scenarios import case
from repro.faults.scenarios import SCENARIOS

REFERENCE_PATH = Path(__file__).with_name("scenarios_seed1.json")


@pytest.fixture(scope="module")
def committed():
    return json.loads(REFERENCE_PATH.read_text())


@pytest.mark.parametrize("scenario", ["memory_spike", "app_switch_storm"])
@pytest.mark.parametrize("ladder", [True, False])
def test_run_matches_committed_bench(committed, scenario, ladder):
    replay = case(SCENARIOS[scenario](), 1, ladder)
    result = replay.run(replay.build())
    mode = "ladder" if ladder else "baseline"
    expected = committed[scenario][mode]
    assert result == expected
