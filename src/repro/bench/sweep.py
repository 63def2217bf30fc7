"""Parameter-sweep driver: grids, records, CSV.

The evaluation harness runs the same experiment at many points (cluster
sizes, group sizes, victim policies, heap budgets).  This driver makes
such sweeps declarative and their results durable:

    sweep = Sweep(
        name="swap-cycle",
        grid={"cluster_size": [20, 50, 100], "bandwidth": [700_000]},
        run=lambda cluster_size, bandwidth: {"radio_s": ...},
    )
    records = sweep.execute()
    sweep.write_csv("results/swap_cycle.csv")

Each record is the parameter point merged with the run's measurements.
Failures at a point are recorded (``error`` column) without aborting the
sweep, so long grids survive one bad corner.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence


RunFn = Callable[..., Mapping[str, Any]]


@dataclass
class Sweep:
    """A declarative parameter sweep."""

    name: str
    grid: Dict[str, Sequence[Any]]
    run: RunFn
    #: Repeat each point this many times (repeat index passed as ``rep``
    #: if the run function accepts it; recorded either way).
    repeats: int = 1
    records: List[Dict[str, Any]] = field(default_factory=list)

    def points(self) -> List[Dict[str, Any]]:
        """The cartesian product of the grid, in deterministic order."""
        names = sorted(self.grid)
        product = itertools.product(*(self.grid[name] for name in names))
        return [dict(zip(names, values)) for values in product]

    def execute(self, verbose: bool = False) -> List[Dict[str, Any]]:
        self.records = []
        accepts_rep = "rep" in getattr(
            self.run, "__code__", type("c", (), {"co_varnames": ()})
        ).co_varnames
        for point in self.points():
            for rep in range(self.repeats):
                record: Dict[str, Any] = dict(point)
                record["rep"] = rep
                try:
                    kwargs = dict(point)
                    if accepts_rep:
                        kwargs["rep"] = rep
                    measurements = self.run(**kwargs)
                    record.update(measurements)
                    record["error"] = ""
                except Exception as exc:  # noqa: BLE001 - sweeps must survive
                    record["error"] = f"{type(exc).__name__}: {exc}"
                self.records.append(record)
                if verbose:
                    print(f"  {self.name}: {record}")
        return self.records

    # -- output -----------------------------------------------------------------

    def columns(self) -> List[str]:
        return _keys(self.records)

    def write_csv(self, path: str | Path) -> Path:
        if not self.records:
            raise ValueError(f"sweep {self.name!r} has no records; run execute()")
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        with destination.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns())
            writer.writeheader()
            for record in self.records:
                writer.writerow(record)
        return destination

    def format_table(self, float_digits: int = 3) -> str:
        if not self.records:
            return f"(sweep {self.name!r}: no records)"
        return format_records(self.records, self.columns(), float_digits)

    def aggregate(
        self, value_column: str, by: Sequence[str]
    ) -> List[Dict[str, Any]]:
        """Mean of ``value_column`` grouped by the ``by`` columns
        (failed records excluded)."""
        groups: Dict[tuple, List[float]] = {}
        for record in self.records:
            if record.get("error"):
                continue
            key = tuple(record[column] for column in by)
            groups.setdefault(key, []).append(float(record[value_column]))
        return [
            {
                **dict(zip(by, key)),
                value_column: sum(values) / len(values),
                "n": len(values),
            }
            for key, values in sorted(groups.items(), key=lambda kv: repr(kv[0]))
        ]


def _keys(records: Iterable[Mapping[str, Any]]) -> List[str]:
    """Every key of ``records``, in first-seen order."""
    ordered: List[str] = []
    for record in records:
        for key in record:
            if key not in ordered:
                ordered.append(key)
    return ordered


def format_records(
    records: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    float_digits: int = 3,
) -> str:
    """Render ``records`` as an aligned table, one row per record.

    ``columns`` defaults to every key, in first-seen order, whose values
    are all scalars: nested values (a case's ``phases``, a scenario's
    ``counters``) are left out.
    """
    if columns is None:
        columns = [
            column
            for column in _keys(records)
            if not any(
                isinstance(record.get(column), (dict, list, tuple))
                for record in records
            )
        ]

    def render(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    rows = [[render(record.get(column, "")) for column in columns]
            for record in records]
    widths = [
        max(len(column), *(len(row[index]) for row in rows))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(
        column.ljust(width) for column, width in zip(columns, widths)
    )
    lines = [header, "-" * len(header)]
    lines.extend(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rows
    )
    return "\n".join(lines)
