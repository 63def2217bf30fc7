"""The configuration surface, pinned: every subsystem setting by name.

Each opt-in subsystem is configured one way.  A new config field or
``enable_*`` parameter is a new setting every caller, doc and
combination test must account for, so adding one means editing this
file.
"""

import dataclasses
import inspect

import pytest

from repro.core.fastpath import FastPathConfig
from repro.core.manager import SwappingManager
from repro.core.sched import AsyncSchedConfig
from repro.resilience import ResilienceConfig


@pytest.mark.parametrize(
    "config, fields",
    [
        (
            ResilienceConfig,
            [
                "retry",
                "failure_threshold",
                "cooldown_s",
                "degrade_to_local",
                "journal_history",
                "seed",
                "replication_factor",
                "scrub_interval_s",
            ],
        ),
        (
            FastPathConfig,
            [
                "cache_budget_bytes",
                "serve_swap_in_from_cache",
                "delta",
                "delta_max_chain",
                "delta_max_ratio",
            ],
        ),
        (
            AsyncSchedConfig,
            [
                "channels",
                "prefetch",
                "prefetch_depth",
                "max_speculative",
                "prefetch_pressure_limit",
            ],
        ),
    ],
    ids=["ResilienceConfig", "FastPathConfig", "AsyncSchedConfig"],
)
def test_config_fields(config, fields):
    assert [field.name for field in dataclasses.fields(config)] == fields


ENABLE_PARAMETERS = {
    "enable_resilience": ["config"],
    "enable_fastpath": ["config"],
    "enable_degrade_ladder": [],
    "enable_async_scheduler": ["config", "channels", "prefetch", "prefetch_depth"],
    "enable_topology": ["shards"],
    "enable_observability": [],
}


@pytest.mark.parametrize("method", sorted(ENABLE_PARAMETERS))
def test_enable_parameters(method):
    signature = inspect.signature(getattr(SwappingManager, method))
    assert list(signature.parameters)[1:] == ENABLE_PARAMETERS[method]


def test_every_enable_method_is_pinned():
    enables = sorted(
        name for name in vars(SwappingManager) if name.startswith("enable_")
    )
    assert enables == sorted(ENABLE_PARAMETERS)


def test_only_the_scheduler_can_be_disabled():
    disables = [
        name for name in vars(SwappingManager) if name.startswith("disable_")
    ]
    assert disables == ["disable_async_scheduler"]
