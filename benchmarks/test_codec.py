"""Binary wire-codec benchmark — framing vs canonical XML on the wire.

Runs the two codec scenarios (xml, binary) on identical mutating
hot-path workloads (every cycle dirties one member per cluster, so
every swap ships real payload), writes ``BENCH_codec.json``, and
asserts the bar: binary's combined encode+decode *wall* time is no
worse than XML's, with the binary path negotiated on every ship and
never falling back.  (The bar was a 2x reduction while XML encode
built an ElementTree per object; binary encode still emits the
canonical text every digest is computed over, so it cannot beat the
direct text encoder by that margin.)

Run:  pytest benchmarks/test_codec.py --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.codec import CodecBenchConfig, format_table, run_codec_bench

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_codec.json"


def test_codec_wall_floor(benchmark):
    report = benchmark.pedantic(
        lambda: run_codec_bench(CodecBenchConfig.quick()),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(report))
    OUTPUT.write_text(report.to_json() + "\n", encoding="utf-8")

    xml = report.scenarios["xml"]
    binary = report.scenarios["binary"]

    # same amount of swapping everywhere: apples-to-apples
    assert xml.swap_outs == binary.swap_outs
    assert xml.encode_calls == binary.encode_calls

    # binary is no slower than XML at combined encode+decode wall time
    assert report.encode_decode_wall_reduction >= 1.0
    # the smaller frames also shrink the simulated link bill
    assert report.link_bytes_reduction > 1.0
    assert report.link_seconds_reduction > 1.0

    # every binary swap-out negotiated and shipped frames; nothing fell
    # back to XML mid-run, and every swap-in verified a binary payload
    assert binary.codec_binary_ships == binary.swap_outs
    assert binary.codec_binary_fetches == binary.swap_outs
    assert binary.codec_fallbacks == 0

    # the honesty check: with the codec off nothing rides the binary path
    assert xml.codec_binary_ships == 0
    assert xml.codec_binary_fetches == 0
