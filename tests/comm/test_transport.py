"""Simulated links."""

import pytest

from repro.clock import SimulatedClock
from repro.comm.transport import (
    BLUETOOTH_BPS,
    SUPPORTED_COMPRESSIONS,
    LoopbackLink,
    SimulatedLink,
    bluetooth_link,
    compress_body,
    decode_body,
    wifi_link,
)
from repro.devices.store import XmlStoreDevice
from repro.errors import TransportError


def test_loopback_free():
    link = LoopbackLink()
    assert link.transfer(1000) == 0.0
    assert link.stats.bytes_carried == 1000
    assert link.is_up


def test_transfer_time_model():
    link = SimulatedLink(1000, latency_s=0.1)  # 1000 bps
    # 125 bytes = 1000 bits = 1 second + latency
    assert link.transfer_time(125) == pytest.approx(1.1)


def test_transfer_charges_clock():
    clock = SimulatedClock()
    link = SimulatedLink(8000, latency_s=0.0, clock=clock)
    link.transfer(1000)  # 8000 bits at 8000 bps = 1 s
    assert clock.now() == pytest.approx(1.0)


def test_stats_accumulate():
    link = SimulatedLink(1_000_000, latency_s=0.01)
    link.transfer(100)
    link.transfer(200)
    assert link.stats.transfers == 2
    assert link.stats.bytes_carried == 300
    assert link.stats.seconds_charged > 0


def test_down_link_raises():
    link = SimulatedLink(1000)
    link.fail()
    assert not link.is_up
    with pytest.raises(TransportError):
        link.transfer(10)
    link.restore()
    link.transfer(10)


def test_bluetooth_factory_uses_paper_rate():
    clock = SimulatedClock()
    link = bluetooth_link(clock, latency_s=0.0)
    assert link.bandwidth_bps == BLUETOOTH_BPS == 700_000
    link.transfer(700_000 // 8)  # one second of payload
    assert clock.now() == pytest.approx(1.0)


def test_wifi_faster_than_bluetooth():
    assert wifi_link().transfer_time(10_000) < bluetooth_link().transfer_time(10_000)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        SimulatedLink(0)
    with pytest.raises(ValueError):
        SimulatedLink(100, latency_s=-1)


def test_unknown_compression_names_the_supported_set():
    for convert in (compress_body, decode_body):
        with pytest.raises(TransportError) as exc_info:
            convert(b"data", "lz4")
        message = str(exc_info.value)
        assert "'lz4'" in message
        assert str(sorted(SUPPORTED_COMPRESSIONS)) in message


def test_store_rejects_unknown_compression_naming_itself():
    device = XmlStoreDevice("desk-pc", capacity=1 << 20)
    with pytest.raises(TransportError) as exc_info:
        device.store_stream("k", [b"x"], compression="lz4")
    message = str(exc_info.value)
    assert "desk-pc" in message
    assert "'lz4'" in message
    assert str(sorted(SUPPORTED_COMPRESSIONS)) in message
