"""``python -m repro obs check|report|prom`` on a real and a broken dump."""

from __future__ import annotations

import pytest

from repro.bench.workloads import build_list
from repro.clock import SimulatedClock
from repro.core.space import Space
from repro.devices import InMemoryStore
from repro.obs import cli, parse_prometheus


@pytest.fixture
def dump(tmp_path):
    """The dump of one observed swap-out and swap-in of a 20-node list."""
    space = Space("cli", heap_capacity=1 << 20, clock=SimulatedClock())
    space.manager.add_store(InMemoryStore("pc"))
    obs = space.manager.enable_observability()
    space.ingest(build_list(20), cluster_size=10, root_name="head")
    space.swap_out(1)
    space.swap_in(1)
    obs.refresh()
    path = tmp_path / "cycle.jsonl"
    obs.export_jsonl(str(path), label="cli:cycle")
    return path


def test_every_command_reads_an_observed_swap_cycle(dump, capsys):
    assert cli.main(["check", str(dump)]) == 0
    assert cli.main(["report", str(dump)]) == 0
    capsys.readouterr()
    assert cli.main(["prom", str(dump)]) == 0
    samples = parse_prometheus(capsys.readouterr().out)
    assert any(name.startswith("repro_swap_out") for name, _ in samples)


@pytest.mark.parametrize("command", ["check", "report", "prom"])
def test_an_unreadable_dump_exits_1(dump, tmp_path, capsys, command):
    broken = tmp_path / "broken.jsonl"
    broken.write_text(dump.read_text() + "{not json\n")
    assert cli.main([command, str(broken)]) == 1
    assert "UNREADABLE" in capsys.readouterr().out
