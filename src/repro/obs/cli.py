"""``python -m repro obs`` — inspect trace/metric dumps from the shell.

Subcommands::

    python -m repro obs check DUMP [DUMP ...]   # schema-validate (CI gate)
    python -m repro obs report DUMP             # human-readable snapshot
    python -m repro obs prom DUMP               # Prometheus text rendering
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.export import (
    check_dump,
    load_dump,
    registry_from_dump,
    render_prometheus,
)
from repro.obs.profile import PHASE_OF, PhaseStats, format_breakdown
from repro.obs.trace import span_tree


class _DumpSpan:
    """A read-back span record quacking like :class:`repro.obs.trace.Span`
    for the tree/report helpers."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "tags",
                 "start_s", "end_s", "wall_s", "status", "error")

    def __init__(self, record: Dict[str, Any]) -> None:
        self.trace_id = record["trace"]
        self.span_id = record["span"]
        self.parent_id = record["parent"]
        self.name = record["name"]
        self.tags = record["tags"]
        self.start_s = record["start_s"]
        self.end_s = record["end_s"]
        self.wall_s = record.get("wall_s", 0.0)
        self.status = record["status"]
        self.error = record.get("error")

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s


def _spans_of(records: List[Dict[str, Any]]) -> List[_DumpSpan]:
    return [
        _DumpSpan(record) for record in records if record.get("kind") == "span"
    ]


def _load(path: str) -> Optional[List[Dict[str, Any]]]:
    """The dump's records, or ``None`` (reported) when it cannot be read."""
    try:
        return load_dump(path)
    except (OSError, ValueError) as exc:
        print(f"{path}: UNREADABLE — {exc}")
        return None


def _cmd_check(paths: List[str]) -> int:
    failed = False
    for path in paths:
        records = _load(path)
        if records is None:
            failed = True
            continue
        problems = check_dump(records)
        if problems:
            failed = True
            print(f"{path}: {len(problems)} problem(s)")
            for problem in problems[:20]:
                print(f"  - {problem}")
        else:
            spans = sum(1 for r in records if r.get("kind") == "span")
            metrics = sum(1 for r in records if r.get("kind") == "metric")
            print(
                f"{path}: OK ({len(records)} records: {spans} spans, "
                f"{metrics} metrics)"
            )
    return 1 if failed else 0


def _cmd_report(path: str, max_traces: int) -> int:
    records = _load(path)
    if records is None:
        return 1
    problems = check_dump(records)
    if problems:
        print(f"{path}: malformed dump ({problems[0]}); run `obs check`")
        return 1
    metas = [record for record in records if record.get("kind") == "meta"]
    spans = _spans_of(records)
    for meta in metas:
        label = f" [{meta['label']}]" if "label" in meta else ""
        print(
            f"run{label}: space {meta['space']!r}, clock {meta['clock_s']:.3f}s,"
            f" {meta.get('spans', 0)} spans"
            + (
                f" ({meta['dropped_spans']} dropped)"
                if meta.get("dropped_spans")
                else ""
            )
        )

    # phase breakdown re-derived from the dumped spans
    phases: Dict[str, PhaseStats] = {}
    for span in spans:
        phase = PHASE_OF.get(span.name)
        if phase is None:
            continue
        stats = phases.setdefault(phase, PhaseStats())
        stats.count += 1
        if span.status != "ok":
            stats.errors += 1
        stats.sim_s += span.duration_s
        stats.wall_s += span.wall_s
    if phases:
        print()
        print(format_breakdown(
            {phase: stats.to_dict() for phase, stats in phases.items()}
        ))

    # headline metrics
    registry = registry_from_dump(records)
    headlines = [
        ("swap.out.latency_s", "swap-out latency"),
        ("swap.in.latency_s", "swap-in latency"),
        ("swap.payload.bytes", "payload bytes"),
    ]
    printed_header = False
    for name, title in headlines:
        metric = registry.get(name)
        if metric is None or not getattr(metric, "count", 0):
            continue
        if not printed_header:
            print()
            printed_header = True
        print(
            f"{title}: n={metric.count} mean="
            f"{metric.sum / metric.count:.4f} (sum {metric.sum:.4f})"
        )

    grouped: Dict[str, List[_DumpSpan]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    shown = list(grouped.items())[-max_traces:]
    for trace_id, trace_spans in shown:
        print()
        print(f"trace {trace_id} ({len(trace_spans)} span(s)):")
        for span, depth in span_tree(trace_spans):
            tag_text = " ".join(
                f"{key}={value}" for key, value in span.tags.items()
            )
            error = f" error={span.error!r}" if span.error else ""
            print(
                f"  {'  ' * depth}{span.name} [{span.duration_s:.4f}s]"
                f"{' ' + tag_text if tag_text else ''} ({span.status}){error}"
            )
    if len(grouped) > len(shown):
        print()
        print(f"... {len(grouped) - len(shown)} earlier trace(s) not shown "
              f"(--traces N)")
    return 0


def _cmd_prom(path: str) -> int:
    records = _load(path)
    if records is None:
        return 1
    print(render_prometheus(registry_from_dump(records)), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro obs", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)
    check = commands.add_parser("check", help="schema-validate dump files")
    check.add_argument("paths", nargs="+", metavar="DUMP")
    report = commands.add_parser("report", help="human-readable report")
    report.add_argument("path", metavar="DUMP")
    report.add_argument("--traces", type=int, default=5,
                        help="span trees to show (default 5)")
    prom = commands.add_parser("prom", help="Prometheus text rendering")
    prom.add_argument("path", metavar="DUMP")
    arguments = parser.parse_args(argv)

    if arguments.command == "check":
        return _cmd_check(arguments.paths)
    if arguments.command == "report":
        return _cmd_report(arguments.path, arguments.traces)
    return _cmd_prom(arguments.path)


if __name__ == "__main__":  # pragma: no cover
    import sys

    raise SystemExit(main(sys.argv[1:]))
