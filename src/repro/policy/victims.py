"""Swap-victim selection strategies: the one ranking module.

Swap-cluster-proxies record "basic data w.r.t. recency and frequency, as
these boundaries are transversed by the application" (Section 3); those
statistics drive the choice of which cluster to detach under pressure.

Strategies (each maps a space to a ranked list of swappable sids):

* ``lru``     — least-recently-crossed first (the default);
* ``lfu``     — least-frequently-crossed first;
* ``largest`` — biggest heap footprint first (frees most per swap);
* ``smallest``— smallest first (cheapest to reload);
* ``hybrid``  — footprint / (1 + recent use) score, preferring big idle
  clusters;
* ``responsiveness`` — priority- and working-set-aware (see
  :mod:`repro.policy.priority`): idle before background before
  foreground, cold before hot.

Candidates come from the space's resident index (``Space._resident``),
never from the whole cluster table: a ranking costs time in the resident
clusters only, and a swapped cluster is never a candidate.  Every sort
key ends in the sid, so ties always fall to the lowest sid — the index's
own order changes on every swap-in and must never decide one.

:func:`select_lru` is the manager's default selector and
``make_selector("lru")``.  Every selector from :func:`make_selector`
takes one minimum pass over the candidates instead of sorting them.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import PolicyError
from repro.policy.priority import footprint, hot_fraction

RankFn = Callable[[Any], List[int]]
Selector = Callable[[Any], Optional[int]]
#: Builds, for one space at one instant, the sort key over candidate
#: clusters that puts the best victim first.
Order = Callable[[Any], Callable[[Any], Any]]


def _candidates(space: Any) -> Iterator[Any]:
    """Resident, unpinned, non-empty swap-clusters."""
    for cluster in space._resident.values():
        if not cluster.pins and cluster.oids:
            yield cluster


_RECENCY = attrgetter("last_crossing_tick", "sid")
_FREQUENCY = attrgetter("crossings", "last_crossing_tick", "sid")


def _lru_order(space: Any) -> Callable[[Any], Any]:
    return _RECENCY


def _lfu_order(space: Any) -> Callable[[Any], Any]:
    return _FREQUENCY


def _largest_order(space: Any) -> Callable[[Any], Any]:
    return lambda cluster: (-footprint(space, cluster), cluster.sid)


def _smallest_order(space: Any) -> Callable[[Any], Any]:
    return lambda cluster: (footprint(space, cluster), cluster.sid)


def _hybrid_order(space: Any) -> Callable[[Any], Any]:
    now = space._tick

    def key(cluster: Any):
        idle = max(1, now - cluster.last_crossing_tick)
        score = footprint(space, cluster) * idle / (1 + cluster.crossings)
        return (-score, cluster.sid)

    return key


def _responsiveness_order(space: Any) -> Callable[[Any], Any]:
    """Lowest priority, then coldest working set (smallest hot
    fraction), then least-recently crossed, then the biggest footprint
    (frees the most per eviction)."""

    def key(cluster: Any):
        return (
            cluster.priority,
            hot_fraction(space, cluster),
            cluster.last_crossing_tick,
            -footprint(space, cluster),
            cluster.sid,
        )

    return key


_ORDERS: Dict[str, Order] = {
    "lru": _lru_order,
    "lfu": _lfu_order,
    "largest": _largest_order,
    "smallest": _smallest_order,
    "hybrid": _hybrid_order,
    "responsiveness": _responsiveness_order,
}


def _ranking(order: Order) -> RankFn:
    def rank(space: Any) -> List[int]:
        ranked = sorted(_candidates(space), key=order(space))
        return [cluster.sid for cluster in ranked]

    return rank


def _selector(order: Order) -> Selector:
    def select(space: Any) -> Optional[int]:
        best = min(_candidates(space), key=order(space), default=None)
        return None if best is None else best.sid

    return select


VICTIM_STRATEGIES: Dict[str, RankFn] = {
    name: _ranking(order) for name, order in _ORDERS.items()
}
_SELECTORS: Dict[str, Selector] = {
    name: _selector(order) for name, order in _ORDERS.items()
}

#: The manager's default victim selector: the least-recently-crossed
#: candidate, lowest sid on a tie.
select_lru: Selector = _SELECTORS["lru"]

#: The ``responsiveness`` ranking: evict idle before background before
#: foreground, cold before hot, stale before recent.
rank_responsiveness: RankFn = VICTIM_STRATEGIES["responsiveness"]


def _unknown(strategy: str) -> PolicyError:
    return PolicyError(
        f"unknown victim strategy {strategy!r}; "
        f"available: {sorted(VICTIM_STRATEGIES)}"
    )


def select_victims(
    space: Any,
    strategy: str = "lru",
    count: int | None = None,
    need_bytes: int | None = None,
) -> List[int]:
    """Ranked victim sids, cut by ``count`` or cumulative ``need_bytes``."""
    try:
        rank = VICTIM_STRATEGIES[strategy]
    except KeyError:
        raise _unknown(strategy) from None
    ranked = rank(space)
    if count is not None:
        return ranked[:count]
    if need_bytes is not None:
        chosen: List[int] = []
        freed = 0
        for sid in ranked:
            if freed >= need_bytes:
                break
            chosen.append(sid)
            freed += footprint(space, space._resident[sid])
        return chosen
    return ranked


def make_selector(strategy: str = "lru") -> Selector:
    """A one-victim-at-a-time selector for the SwappingManager."""
    try:
        return _SELECTORS[strategy]
    except KeyError:
        raise _unknown(strategy) from None
