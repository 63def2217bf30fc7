"""Swap fast path: content-addressed payload cache + clean-cluster no-ops.

The dominant cost of a swap cycle on a constrained device is not the
object graph walk — it is serializing the cluster and pushing the bytes
over a slow link.  Most clusters, however, come back from a swap cycle
*unmodified*: the application read a few fields and moved on.  The fast
path exploits that:

* dirty tracking (:mod:`repro.runtime.barrier` + the proxy layer) tells
  the manager whether a cluster mutated since its last serialization;
* a :class:`PayloadCache` retains the canonical payload text keyed by
  content digest, so a clean cluster's bytes are available locally;
* swap-out of a clean cluster degrades to, at worst, re-shipping cached
  text (no re-encode) and, at best, a metadata-only no-op: when a
  previously-used store still holds the same digest's payload under the
  same key, a 64-byte ``contains`` probe replaces the whole upload;
* swap-in of a cluster whose payload is still cached skips the fetch
  entirely.

Invalidation is driven by :meth:`repro.core.swap_cluster.SwapCluster.
mark_dirty`: any mutation, membership change (restructure/adoption), or
decode into fresh replicas drops the clean bits, and the manager then
falls back to the full encode-and-ship path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ids import Sid
from repro.wire.canonical import utf8_len

#: Frame size for chunked payload shipping (store_stream batches).
FRAME_BYTES = 2048


@dataclass
class FastPathConfig:
    """Tunables for the swap fast path.

    Payload copies always stay on their stores after swap-in, so a later
    clean swap-out can be a metadata-only no-op against them.
    """

    #: Byte budget for locally retained canonical payloads.
    cache_budget_bytes: int = 8 << 20
    #: Serve swap-in from the local payload cache when possible.
    serve_swap_in_from_cache: bool = True
    #: Ship object-granular deltas for clusters whose staleness is fully
    #: attributed (see ``SwapCluster.delta_eligible``).  Off by default:
    #: with ``delta=False`` nothing about the existing pipeline changes.
    delta: bool = False
    #: Compaction threshold: a swap-out that would make the delta chain
    #: longer than this re-ships the full payload instead (and drops the
    #: stale chain from the stores).
    delta_max_chain: int = 8
    #: Compaction threshold: cumulative delta bytes exceeding this
    #: fraction of the base payload size also force a full rewrite.
    delta_max_ratio: float = 1.0


@dataclass
class PayloadCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0


class PayloadCache:
    """LRU cache of canonical payload text, keyed by content digest.

    Content addressing makes invalidation trivial: a mutated cluster
    produces a new digest, so stale entries are never *wrong*, only
    unused; the LRU bound reclaims them.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError("cache budget must be positive")
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self._used = 0
        self.stats = PayloadCacheStats()

    def get(self, digest: str) -> Optional[str]:
        text = self._entries.get(digest)
        if text is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.stats.hits += 1
        return text

    def put(self, digest: str, text: str) -> None:
        nbytes = utf8_len(text)
        if nbytes > self.budget_bytes:
            return  # larger than the whole budget: not worth caching
        existing = self._entries.pop(digest, None)
        if existing is not None:
            self._used -= utf8_len(existing)
        self._entries[digest] = text
        self._used += nbytes
        self.stats.puts += 1
        while self._used > self.budget_bytes:
            evicted_digest, evicted_text = self._entries.popitem(last=False)
            self._used -= utf8_len(evicted_text)
            self.stats.evictions += 1

    def invalidate(self, digest: str) -> None:
        text = self._entries.pop(digest, None)
        if text is not None:
            self._used -= utf8_len(text)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class DeltaChain:
    """Bookkeeping for one cluster's delta chain on its replica stores.

    ``keys[0]`` is the last full payload's key, every later entry a
    delta key; ``keys[-1]`` is the chain tip the replicas currently
    resolve.  ``delta_bytes`` accumulates shipped delta sizes against
    ``base_bytes`` for the byte-ratio compaction threshold.
    """

    keys: List[str] = field(default_factory=list)
    delta_bytes: int = 0
    base_bytes: int = 0

    @property
    def length(self) -> int:
        """Number of delta links on top of the full base payload."""
        return max(0, len(self.keys) - 1)


@dataclass
class FastPathState:
    """Per-space fast-path state owned by the SwappingManager."""

    config: FastPathConfig = field(default_factory=FastPathConfig)
    cache: PayloadCache = field(init=False)
    #: sid -> stores believed to still hold the cluster's clean payload
    #: under its clean key (pruned when probes fail or payloads change).
    retained: Dict[Sid, List[object]] = field(default_factory=dict)
    #: store device_id -> negotiated codec (cached negotiation results).
    negotiated: Dict[str, Optional[str]] = field(default_factory=dict)
    #: sid -> delta chain currently standing on the replica stores.
    chains: Dict[Sid, DeltaChain] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.cache = PayloadCache(self.config.cache_budget_bytes)

    def negotiate_for(self, store: object) -> Optional[str]:
        """Negotiate (once per store) a payload compression codec; a
        store that advertises none gets plain text."""
        from repro.comm.transport import (
            SUPPORTED_COMPRESSIONS,
            negotiate_compression,
        )

        device_id = getattr(store, "device_id", None)
        if device_id is None:
            return None
        if device_id not in self.negotiated:
            theirs = getattr(store, "supported_compressions", None)
            self.negotiated[device_id] = negotiate_compression(
                SUPPORTED_COMPRESSIONS, theirs
            )
        return self.negotiated[device_id]

    def forget_cluster(self, sid: Sid) -> List[object]:
        """Drop retention bookkeeping for ``sid``; returns the old holders.

        Also forgets the cluster's delta chain: with the retained-holder
        record gone there is no store known to hold the chain tip, so a
        later swap-out must never ship a delta against the stale base —
        it falls back to the full path.
        """
        self.chains.pop(sid, None)
        return self.retained.pop(sid, [])
