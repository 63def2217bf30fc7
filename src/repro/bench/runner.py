"""One runner for the feature harnesses: named cases, each on a fresh world.

Each feature harness (:mod:`~repro.bench.hotpath`, :mod:`~repro.bench.delta`,
:mod:`~repro.bench.async_sched`, :mod:`~repro.bench.durability`,
:mod:`~repro.bench.topology`, :mod:`~repro.bench.scenarios`) compares a
feature on and off on one workload, as the paper's Figure 5 compares
swapping with NO-SWAP.  A harness describes each side as a :class:`Case`:
``build()`` makes a fresh :class:`World`, and ``run(world)`` drives the
workload on it and returns a plain dict of the case's exact metrics.
:func:`run_cases` runs every case the same way::

    results = run_cases("hotpath", hotpath.cases(HotPathConfig.quick()))
    ratio(results["baseline"], results["fastpath_clean"], "encode_calls")
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.core.space import Space


class World(NamedTuple):
    """A case's space, plus the stores and links it was given (in order)."""

    space: Space
    stores: Sequence[Any] = ()
    links: Sequence[Any] = ()


class Case(NamedTuple):
    """One named side of a harness's comparison."""

    name: str
    build: Callable[[], World]
    run: Callable[[World], Dict[str, Any]]


def run_cases(
    harness: str,
    cases: Iterable[Case],
    *,
    observe: bool = False,
    obs_path: Optional[str] = None,
) -> Dict[str, Dict[str, Any]]:
    """Run each case on a fresh world; returns ``{case name: record}``.

    A record is ``name``, the case's metrics and ``phases``.  With
    ``observe`` the runner attaches observability between ``build`` and
    ``run`` and records the profiler's per-phase breakdown as ``phases``
    (``{}`` otherwise); ``obs_path`` then gets one JSONL dump per case,
    labelled ``<harness>:<case>``, the first of which truncates the file.
    """
    results: Dict[str, Dict[str, Any]] = {}
    for index, case in enumerate(cases):
        world = case.build()
        obs = world.space.manager.enable_observability() if observe else None
        record = {"name": case.name, **case.run(world), "phases": {}}
        if obs is not None:
            obs.refresh()
            record["phases"] = obs.profiler.breakdown()
            if obs_path is not None:
                obs.export_jsonl(
                    obs_path, label=f"{harness}:{case.name}", append=index > 0
                )
        results[case.name] = record
    return results


def ratio(base: Dict[str, Any], new: Dict[str, Any], key: str) -> float:
    """``base[key] / new[key]``: how many times ``new`` cuts the metric
    (``inf`` when it cuts it to zero)."""
    return base[key] / new[key] if new[key] > 0 else float("inf")


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``0.0`` when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def swappable_sids(space: Space) -> List[int]:
    """The space's non-empty swappable clusters, in sid order."""
    return [
        sid
        for sid, cluster in sorted(space.clusters().items())
        if cluster.swappable() and cluster.oids
    ]
