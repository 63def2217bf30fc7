"""The ``SwappingManager``: swap-out, swap-in, GC cooperation.

Paper, Section 4: "The SwappingManager class, by policy definition, is
registered as a listener of all events regarding replication of clusters
of objects ... It manages swapping by maintaining information regarding
all swap-clusters (loaded or swapped), and all objects belonging to each
one, stored in hash-tables.  It also contains entries for all
swap-cluster-proxies w.r.t. references to/from each swap-cluster (using
weak-references)."

Membership/object tables live on the :class:`~repro.core.space.Space`
(they are also used by translation); this class owns the *swapping
protocol*:

* **swap-out** (Section 3): serialize the cluster to XML, ship it to a
  nearby store, build the replacement-object from the cluster's outbound
  proxies, patch every inbound proxy to the replacement, release the
  members' heap bytes;
* **swap-in**: fetch + verify the XML, rebuild replicas under their old
  oids, patch inbound proxies back to the replicas, reclaim the
  replacement;
* **ensure_room**: the victim loop driven by memory pressure;
* **drop_swapped**: the GC-cooperation half — when the local collector
  finds a replacement-object unreachable, the store is instructed to
  drop the XML.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.comm.transport import compress_payload
from repro.core.fastpath import (
    FRAME_BYTES,
    DeltaChain,
    FastPathConfig,
    FastPathState,
)
from repro.core.interfaces import SwapStore
from repro.core.replacement import ReplacementObject, SwapLocation
from repro.core.swap_cluster import SwapCluster, SwapClusterState
from repro.errors import (
    AllStoresUnreachableError,
    ClusterNotSwappedError,
    CodecError,
    HeapExhaustedError,
    NoSwapDeviceError,
    RetryExhaustedError,
    StoreFullError,
    SwapError,
    SwapStoreUnavailableError,
    TransportError,
    UnknownKeyError,
)
from repro.events import (
    ClusterCollectedEvent,
    ClusterOomKilledEvent,
    ClusterReplicatedEvent,
    ClusterUnderReplicatedEvent,
    ReplicaCorruptEvent,
    StoreDetachedEvent,
    StoreRejoinedEvent,
    SwapDegradedEvent,
    SwapDroppedEvent,
    SwapFailoverEvent,
    SwapFastPathEvent,
    SwapInEvent,
    SwapOutEvent,
)
from repro.ids import Sid, format_swap_key
from repro.obs.trace import NULL_SPAN
from repro.wire.canonical import digest_of_canonical, utf8_len, verify_payload
from repro.wire.delta import apply_cluster_delta, encode_cluster_delta
from repro.wire.xmlcodec import decode_cluster, encode_cluster_canonical

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.resilience import Resilience, ResilienceConfig

#: The dedicated subclass lets the retry machinery distinguish "this
#: copy arrived but is damaged" (worth re-fetching) from structural
#: codec failures that no retry will fix.
class CorruptPayloadError(CodecError):
    """A fetched payload failed the digest check (transient or bitrot)."""

#: Picks a swap victim; returns a sid or None when nothing is swappable.
VictimSelector = Callable[["Any"], Optional[Sid]]

#: ``SwapCluster.priority`` value the emergency rung must not kill
#: (``repro.policy.priority.Priority.FOREGROUND`` as a plain int — core
#: deliberately does not import the policy package at module level).
FOREGROUND_PRIORITY = 2


def _default_selector() -> VictimSelector:
    """The default victim policy, :func:`repro.policy.victims.select_lru`.

    Imported per call, so importing core loads nothing from the policy
    package (``repro.policy.tuning`` imports ``repro.core.restructure``).
    """
    from repro.policy.victims import select_lru

    return select_lru


@dataclass
class ManagerStats:
    swap_outs: int = 0
    swap_ins: int = 0
    drops: int = 0
    bytes_shipped: int = 0
    bytes_restored: int = 0
    replicated_clusters: int = 0
    mirror_writes: int = 0
    mirror_failovers: int = 0
    # -- resilience counters (all zero while resilience is disabled) --
    retries: int = 0
    failovers: int = 0
    circuit_opens: int = 0
    circuit_closes: int = 0
    degraded_swaps: int = 0
    journal_recoveries: int = 0
    # -- durability counters (placement / scrub; zero while disabled) --
    replicas_repaired: int = 0
    replicas_quarantined: int = 0
    scrub_ticks: int = 0
    scrub_bytes_repaired: int = 0
    orphans_collected: int = 0
    repromotions: int = 0
    journal_truncated: int = 0
    placement_recoveries: int = 0
    # -- fast-path counters (all zero while the fast path is disabled) --
    encode_calls: int = 0
    fastpath_noops: int = 0
    fastpath_reships: int = 0
    swapin_cache_hits: int = 0
    # -- delta swap counters (all zero while ``config.delta`` is off) --
    fastpath_delta_ships: int = 0
    fastpath_delta_fallbacks: int = 0
    fastpath_delta_compactions: int = 0
    delta_bytes_shipped: int = 0
    delta_bytes_saved: int = 0
    # -- degrade-ladder counters (all zero while the ladder is off) --
    ladder_escalations: int = 0
    ladder_deescalations: int = 0
    ladder_compress_local: int = 0
    ladder_drop_clean: int = 0
    oom_kills: int = 0
    oom_kills_foreground: int = 0
    # -- topology counters (all zero while topology is disabled) --
    shard_reparents: int = 0
    cell_outages: int = 0
    cell_recoveries: int = 0
    topology_rebuilds: int = 0


#: Per swap-out tier: the ``ManagerStats`` counter it bumps (a classic
#: ``full`` swap-out bumps none) and its under-replication warning.
_TIERS = {
    "noop": ("fastpath_noops", "clean swap-out"),
    "dropclean": ("ladder_drop_clean", "clean swap-out"),
    "delta": ("fastpath_delta_ships", "delta swap-out placement short"),
    "reship": ("fastpath_reships", "swap-out placement short"),
    "full": (None, "swap-out placement short"),
}


def _outbound_collector(
    seed: Iterable[Any] = (),
) -> Tuple[List[Any], Callable[[Any], int]]:
    """The replacement array (outbound proxies in encoder order, after
    ``seed``'s) and the ``outbound_index_of`` callback that fills it."""
    outbound: List[Any] = list(seed)
    index_by_proxy: Dict[int, int] = {
        id(proxy): index for index, proxy in enumerate(outbound)
    }

    def outbound_index_of(proxy: Any) -> int:
        marker = id(proxy)
        index = index_by_proxy.get(marker)
        if index is None:
            index = len(outbound)
            index_by_proxy[marker] = index
            outbound.append(proxy)
        return index

    return outbound, outbound_index_of


def _stale_keys(
    chain: Optional[DeltaChain], key: Optional[str], skip: Optional[str] = None
) -> List[str]:
    """Store keys of a cluster's dead copies: its delta chain tip first,
    with ``key`` in front when the chain does not hold it, and without
    ``skip`` (a copy that stays live or was already dropped)."""
    stale = list(reversed(chain.keys)) if chain is not None else []
    if key is not None and key not in stale:
        stale.insert(0, key)
    if skip is not None:
        return [old for old in stale if old != skip]
    return stale


def _drop_copies(holders: List[SwapStore], keys: Iterable[str]) -> None:
    """Drop every key from every holder, key by key; an unreachable or
    missing copy is left orphaned (epochs in the keys prevent reuse)."""
    for key in keys:
        for holder in holders:
            try:
                holder.drop(key)
            except (TransportError, UnknownKeyError):
                pass


def _with_room(
    stores: Iterable[SwapStore], nbytes: int, count: int, chosen: List[SwapStore]
) -> List[SwapStore]:
    """``chosen`` topped up to ``count`` stores with those of ``stores``
    that admit ``nbytes`` (a store that cannot answer is skipped)."""
    for store in stores:
        if len(chosen) >= count:
            break
        if store in chosen:
            continue
        try:
            if store.has_room(nbytes):
                chosen.append(store)
        except TransportError:
            continue
    return chosen


def _frames(data: bytes) -> List[bytes]:
    """``data`` cut into link frames (one empty frame for no data)."""
    return [
        data[offset : offset + FRAME_BYTES]
        for offset in range(0, len(data), FRAME_BYTES)
    ] or [b""]


class _Handoff:
    """One swap-out hand-off: the payload's identity, the stores holding
    it (``stored_on``) and its journal guard.  With resilience on, the
    journal entry is begun here and each store that lands the payload is
    recorded; if the hand-off raises before the detach, the landed copies
    are dropped and the entry aborted.  Copies already in place (a clean
    swap-out, ``stored_on`` given) are not journaled."""

    __slots__ = (
        "stored_on", "sid", "key", "epoch", "digest", "xml_bytes",
        "_manager", "_journal", "_entry",
    )

    def __init__(
        self,
        manager: "SwappingManager",
        sid: Sid,
        key: str,
        epoch: int,
        xml_bytes: int,
        digest: str,
        base_epoch: Optional[int] = None,
        stored_on: Optional[List[SwapStore]] = None,
    ) -> None:
        self.stored_on: List[SwapStore] = stored_on or []
        self.sid, self.key, self.epoch = sid, key, epoch
        self.digest, self.xml_bytes = digest, xml_bytes
        self._manager = manager
        self._journal = self._entry = None
        resilience = manager.resilience
        if resilience is not None and stored_on is None:
            self._journal = resilience.journal
            with manager._obs_span("swap.out.journal", op="begin", sid=sid):
                self._entry = self._journal.begin(
                    sid, key, epoch, xml_bytes, digest, base_epoch,
                    base_epoch is not None,
                )

    def __enter__(self) -> "_Handoff":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> bool:
        if exc_type is not None and self._entry is not None:
            # nothing was detached: any copies that did land are orphans
            _drop_copies(self.stored_on, [self.key])
            self.abort()
        return False

    def landed(self, holder: SwapStore) -> None:
        """``holder`` acknowledged the payload."""
        self.stored_on.append(holder)
        if self._entry is not None:
            self._journal.record_write(self._entry, holder.device_id)

    def abort(self) -> None:
        """The hand-off gave up before the detach."""
        if self._entry is not None:
            self._journal.abort(self._entry)

    def commit(self) -> None:
        """The cluster detached after a store acknowledged the payload."""
        if self._entry is not None:
            with self._manager._obs_span(
                "swap.out.journal", op="commit", sid=self.sid
            ):
                self._journal.commit(self._entry)


class SwappingManager:
    """Per-space swapping engine."""

    def __init__(self, space: Any) -> None:
        self._space = space
        self._stores: List[SwapStore] = []
        self._store_provider: Optional[Callable[[], Iterable[SwapStore]]] = None
        #: Stores holding each swapped cluster's XML (primary first,
        #: then mirrors when ``replication_factor`` > 1).
        self._bindings: Dict[Sid, List[SwapStore]] = {}
        self._loading: set[Sid] = set()
        #: Keep the stored XML after a successful swap-in (versioning /
        #: reconciliation use, paper Section 3 "set-aside").
        self.keep_swapped_copies = False
        #: How many nearby devices should hold each swapped cluster.
        #: The paper envisions "a myriad of small memory-enabled devices
        #: ... scattered all-over"; mirrors make a departing device a
        #: non-event.  Best-effort: fewer devices in range means fewer
        #: copies, never a failed swap.
        self.replication_factor = 1
        #: Victim policy used by :meth:`ensure_room`.
        self.victim_selector: VictimSelector = _default_selector()
        #: When True, heap exhaustion automatically runs the victim loop.
        self.auto_swap = True
        #: When True, reloaded documents are structurally validated
        #: (repro.wire.schema) after the digest check, for precise
        #: diagnostics on archives or hand-provisioned stores.
        self.validate_documents = False
        self.stats = ManagerStats()
        #: Optional resilience coordinator (retry/circuit/journal/degrade).
        #: ``None`` keeps the pipeline exactly as fast as before.
        self.resilience: Optional["Resilience"] = None
        #: Optional swap fast path (dirty tracking + payload cache +
        #: metadata-only clean swap-outs).  ``None`` = classic pipeline.
        self.fastpath: Optional[FastPathState] = None
        #: Optional observability runtime (tracing + metrics + profiling).
        #: ``None`` = every span site costs one attribute test.
        self.obs: Optional["Observability"] = None
        #: Optional degrade ladder (see :mod:`repro.core.degrade`).
        #: ``None`` = no pressure assessment anywhere on the hot path.
        self.ladder: Optional[Any] = None
        #: Optional event-driven swap scheduler (see
        #: :mod:`repro.core.sched`).  ``None`` = the classic blocking
        #: fault path.
        self.sched: Optional[Any] = None
        #: Optional sharded topology service (see :mod:`repro.topology`).
        #: ``None`` = placement stays per-key via ``plan_placement``.
        self.topology: Optional[Any] = None
        #: Temporary replication-target override (the COMPRESS_LOCAL
        #: rung hibernates exactly one copy into the pool).
        self._replicas_override: Optional[int] = None
        space.bus.subscribe(ClusterReplicatedEvent, self._on_cluster_replicated)
        space.bus.subscribe(ClusterCollectedEvent, self._on_cluster_collected)

    # -- resilience --------------------------------------------------------------

    def enable_resilience(
        self, config: Optional["ResilienceConfig"] = None
    ) -> "Resilience":
        """Turn on the resilient swap pipeline (retry, circuit breaker,
        write-ahead journal, failover, degrade-to-local).

        Idempotent in effect: calling again replaces the coordinator
        (fresh health/journal state) with the new ``config``.
        """
        from repro.resilience import Resilience, ResilienceConfig

        self.resilience = Resilience(
            config if config is not None else ResilienceConfig(), self
        )
        return self.resilience

    # -- fast path ---------------------------------------------------------------

    def enable_fastpath(
        self, config: Optional[FastPathConfig] = None
    ) -> FastPathState:
        """Turn on the swap fast path (see :mod:`repro.core.fastpath`).

        Calling again replaces the state (fresh cache and retention
        tables) with the new ``config``;
        ``enable_fastpath(FastPathConfig(delta=True))`` also ships
        object-granular deltas.  Overlapped replica ships come from the
        async scheduler: ``enable_async_scheduler(channels=n,
        prefetch=False)``.
        """
        self.fastpath = FastPathState(
            config if config is not None else FastPathConfig()
        )
        return self.fastpath

    # -- degrade ladder ----------------------------------------------------------

    def enable_degrade_ladder(self) -> Any:
        """Turn on the pressure-tiered degrade ladder (see
        :mod:`repro.core.degrade`).

        This also installs the ``responsiveness`` victim strategy, so
        eviction order and the emergency rung agree about priorities.
        Calling again replaces the ladder (fresh pressure/SLO state).
        """
        from repro.core.degrade import DegradeLadder
        from repro.policy.victims import make_selector

        self.ladder = DegradeLadder(self)
        self.victim_selector = make_selector("responsiveness")
        return self.ladder

    # -- async scheduler ---------------------------------------------------------

    def enable_async_scheduler(
        self,
        config: Optional[Any] = None,
        *,
        channels: Optional[int] = None,
        prefetch: Optional[bool] = None,
        prefetch_depth: Optional[int] = None,
    ) -> Any:
        """Turn on event-driven asynchronous swap scheduling (see
        :mod:`repro.core.sched`): demand fetches, speculative prefetches
        and victim write-back become scheduled ops on transfer channels,
        and the fault path stalls only for time not hidden behind other
        in-flight work.

        The keyword shortcuts overlay the config:
        ``enable_async_scheduler(channels=1, prefetch=False)`` is one
        transfer channel with no speculation; write-back and stale-copy
        drops still ride that channel.  Calling again retires the old
        scheduler as :meth:`disable_async_scheduler` does, then installs
        a fresh one (new op ledger and prefetch history).
        """
        from repro.core.sched import AsyncSchedConfig, AsyncSwapScheduler

        config = config if config is not None else AsyncSchedConfig()
        overrides: Dict[str, Any] = {}
        if channels is not None:
            overrides["channels"] = channels
        if prefetch is not None:
            overrides["prefetch"] = prefetch
        if prefetch_depth is not None:
            overrides["prefetch_depth"] = prefetch_depth
        if overrides:
            config = replace(config, **overrides)
        self.disable_async_scheduler()
        self.sched = AsyncSwapScheduler(self, config)
        return self.sched

    def disable_async_scheduler(self) -> None:
        """Back to the blocking fault path.

        In-flight op windows are drained first, so simulated reality
        owes nothing when the scheduler goes away; speculative payloads
        still buffered count as prefetch waste.
        """
        if self.sched is not None:
            self.sched.close()
            self.sched = None

    # -- topology ----------------------------------------------------------------

    def enable_topology(self, shards: int = 16) -> Any:
        """Turn on the sharded topology service (see :mod:`repro.topology`):
        the sid space is folded onto hash shards, each with a primary
        store and replicas spread across cells (``placement_group``s),
        per-cell replication records track every replica-set change, and
        a dead/browned-out/detached primary is *reparented* to the
        healthiest in-sync replica.  Each shard is held by
        :meth:`target_replicas` stores.

        Requires the resilience pipeline (the topology elects by health
        history and repairs through the scrubber); raises
        :class:`~repro.errors.SwapError` otherwise.  Calling again
        replaces the service (fresh shard table and cell records).
        """
        from repro.topology import TopologyService

        self.topology = TopologyService(self, shards)
        self.resilience.placement.observer = self.topology
        return self.topology

    def rebuild_topology(self) -> Dict[str, int]:
        """Recover placement *and* topology after a crash or cell loss.

        Extends :meth:`recover_placement`: first the per-key placement
        ledger is rebuilt from the journal plus store inventory, then
        the topology service reconstructs shard records and per-cell
        replication records from the surviving cells and the same
        inventory (see :meth:`repro.topology.TopologyService.rebuild`).
        """
        if self.topology is None:
            raise SwapError("topology is not enabled; call enable_topology()")
        recovered = self.recover_placement()
        result = self.topology.rebuild()
        result["placement_records"] = recovered
        return result

    # -- observability -----------------------------------------------------------

    def enable_observability(self) -> "Observability":
        """Turn on unified observability (see :mod:`repro.obs`): span
        tracing through the swap pipeline, a metrics registry, per-phase
        profiling, and event/trace correlation.

        Calling again replaces the runtime (fresh tracer and registry).
        While off (the default) every instrumented site costs one
        ``None`` check.
        """
        from repro.obs import Observability

        if self.obs is not None:
            self.obs.detach()
        self.obs = Observability(self)
        self.obs.attach()
        return self.obs

    def _obs_span(self, name: str, **tags: Any):
        """A live span when observability is on, :data:`NULL_SPAN` when off."""
        obs = self.obs
        if obs is None:
            return NULL_SPAN
        return obs.tracer.span(name, **tags)

    def _obs_tag(self, key: str, value: Any) -> None:
        """Tag the innermost open span, if any."""
        obs = self.obs
        if obs is not None:
            span = obs.tracer.current_span()
            if span is not None:
                span.set_tag(key, value)

    # -- store management -------------------------------------------------------

    def add_store(self, store: SwapStore) -> None:
        if store not in self._stores:
            self._stores.append(store)
            if self.obs is not None:
                self.obs.instrument_store(store)

    def remove_store(self, store: SwapStore) -> None:
        if store in self._stores:
            self._stores.remove(store)

    def set_store_provider(
        self, provider: Optional[Callable[[], Iterable[SwapStore]]]
    ) -> None:
        """Install a dynamic source of nearby stores (e.g. discovery)."""
        self._store_provider = provider

    def available_stores(self) -> List[SwapStore]:
        stores = list(self._stores)
        if self._store_provider is not None:
            for store in self._store_provider():
                if store not in stores:
                    stores.append(store)
        if self.resilience is not None:
            stores = [
                store
                for store in stores
                if self.resilience.admits(store.device_id)
            ]
        return stores

    def select_store(self, nbytes: int) -> SwapStore:
        """First nearby store that admits ``nbytes`` of XML."""
        return self.select_stores(nbytes, 1)[0]

    def select_stores(
        self, nbytes: int, count: int, *, sid: Optional[Sid] = None
    ) -> List[SwapStore]:
        """Up to ``count`` distinct stores that admit ``nbytes`` each.

        At least one is required; extras are best-effort mirrors.  With
        resilience enabled, selection is placement-aware: healthier
        stores first, more free space first, and anti-affinity across
        ``placement_group``s (two replicas share a rack/owner only when
        no other group has room).  With topology enabled and a ``sid``
        given, the cluster's shard routes instead — primary store first,
        then the shard's cross-cell replicas — an O(1) lookup however
        many clusters are swapped.
        """
        if sid is not None and self.topology is not None:
            chosen = self.topology.select_for(sid, nbytes, count)
            if chosen:
                return chosen
            raise NoSwapDeviceError(
                f"no shard holder or fallback store has room for "
                f"{nbytes} bytes (sid {sid})"
            )
        stores = self.available_stores()
        if self.resilience is not None:
            from repro.resilience.placement import plan_placement

            chosen = plan_placement(
                stores,
                nbytes,
                count,
                health=self.resilience.health,
                on_probe_failure=lambda store: self.resilience.record_failure(
                    store.device_id
                ),
            )
        else:
            chosen = _with_room(stores, nbytes, count, [])
        if chosen:
            return chosen
        if not stores:
            raise NoSwapDeviceError("no nearby device available to receive swap")
        raise NoSwapDeviceError(
            f"no nearby device has room for {nbytes} bytes "
            f"({len(stores)} device(s) in range)"
        )

    def target_replicas(self) -> int:
        """How many distinct stores should hold each swapped cluster."""
        if self._replicas_override is not None:
            return self._replicas_override
        factor = max(1, self.replication_factor)
        if self.resilience is not None:
            factor = max(factor, self.resilience.config.replication_factor)
        return factor

    # -- swap-out -----------------------------------------------------------------
    # every path ends in ``_commit_swap_out``; DESIGN.md lists the stages

    def swap_out(self, sid: Sid, store: SwapStore | None = None) -> SwapLocation:
        """Detach swap-cluster ``sid`` and ship it to a nearby store.

        With the fast path enabled and the cluster *clean* (unmutated
        since its last serialization), the encode-and-ship pipeline is
        bypassed: see :meth:`_swap_out_clean`.
        """
        space = self._space
        cluster: SwapCluster = space._cluster(sid)
        cluster.ensure_swappable()
        if sid in self._loading:
            raise SwapError(f"swap-cluster {sid} is being loaded; cannot swap out")

        with self._obs_span("swap.out", sid=sid):
            ladder = self.ladder
            rung = ladder.update() if ladder is not None else None
            if (
                self.fastpath is not None
                and not cluster.dirty
                and cluster.clean_digest is not None
                and cluster.clean_outbound is not None
            ):
                location = self._swap_out_clean(
                    cluster,
                    store,
                    trust_ledger=rung is not None and rung >= 2,  # DROP_CLEAN
                )
                if location is not None:
                    return location
            if rung is not None and rung >= 1 and store is None:
                # COMPRESS_LOCAL and above: hibernate into the local
                # pool first; remote shipping is the fallback
                location = self._swap_out_local(cluster)
                if location is not None:
                    return location
            if (
                self.fastpath is not None
                and self.fastpath.config.delta
                and cluster.delta_eligible()
                and (rung is None or rung == 0)
            ):
                location = self._swap_out_delta(cluster, store)
                if location is not None:
                    return location
            return self._swap_out_full(cluster, store)

    def _swap_out_clean(
        self,
        cluster: SwapCluster,
        chosen: SwapStore | None,
        *,
        trust_ledger: bool = False,
    ) -> Optional[SwapLocation]:
        """Swap out a clean cluster without re-encoding it.

        Tier 1 (metadata-only no-op): a store already retaining the
        payload under the clean key answers a 64-byte ``contains`` probe
        — nothing is encoded, nothing is shipped.  Tier 2 (re-ship): the
        cached canonical text is shipped as-is.  Returns ``None`` when
        neither tier applies (cache evicted, no retained copy); the
        caller falls back to the full pipeline.

        ``trust_ledger`` is the degrade ladder's DROP_CLEAN rung: the
        retained copies are taken at the ledger's word — no probes at
        all, zero link traffic — and the scrubber re-verifies them once
        pressure subsides (the verified epoch is deliberately *not*
        refreshed here).
        """
        fastpath = self.fastpath
        sid = cluster.sid
        key = cluster.clean_key
        digest = cluster.clean_digest
        outbound = list(cluster.clean_outbound)

        retained = fastpath.retained.get(sid)
        if retained is not None and retained[0] == key:
            verified = self._verify_retained(
                sid, key, retained[1], chosen, trust_ledger
            )
            if verified:
                tier = "dropclean" if trust_ledger else "noop"
                self._obs_tag("tier", tier)
                # content unchanged -> same epoch, same key, same digest;
                # the verified copies are in place, so nothing is journaled
                handoff = _Handoff(
                    self,
                    sid,
                    key,
                    cluster.clean_epoch,
                    cluster.clean_xml_bytes,
                    digest,
                    None,
                    verified,
                )
                return self._commit_swap_out(cluster, handoff, outbound, tier, 0)

        text = fastpath.cache.get(digest)
        if text is None:
            return None  # cache evicted and no retained copy: full path
        try:
            return self._ship_payload(
                cluster,
                text,
                key=key,
                epoch=cluster.clean_epoch,
                digest=digest,
                outbound=outbound,
                chosen=chosen,
                tier="reship",
            )
        except BaseException:
            # shipping failed; retained bookkeeping may name stores the
            # abort path just dropped from
            fastpath.retained.pop(sid, None)
            raise

    def _verify_retained(
        self,
        sid: Sid,
        key: str,
        retained: List[SwapStore],
        chosen: SwapStore | None,
        trust_ledger: bool,
    ) -> List[SwapStore]:
        """The retained holders a clean swap-out may leave its copy on:
        those answering a ``contains`` probe (the rest leave the retained
        set), or under ``trust_ledger`` every holder not known dead."""
        candidates = (
            retained
            if chosen is None
            else [holder for holder in retained if holder is chosen]
        )
        want = self.target_replicas() if chosen is None else 1
        if trust_ledger:
            # DROP_CLEAN: evict on the strength of the ledger alone.
            # No contains probes — zero control traffic toward a
            # neighborhood the pressure signal says is struggling.
            return [
                holder
                for holder in candidates
                if not getattr(holder, "is_dead", False)
            ][:want]
        verified: List[SwapStore] = []
        lost: List[SwapStore] = []
        for holder in candidates:
            probe = getattr(holder, "contains", None)
            if probe is None:
                continue  # legacy store: cannot answer key probes
            probe_span = self._obs_span("fastpath.probe", device=holder.device_id)
            try:
                with probe_span:
                    if probe(key):
                        probe_span.set_tag("hit", True)
                        verified.append(holder)
                    else:
                        probe_span.set_tag("hit", False)
                        lost.append(holder)  # evicted behind our back
            except (TransportError, RetryExhaustedError):
                lost.append(holder)
            if len(verified) >= want:
                break
        if lost:
            self.fastpath.retained[sid] = (
                key,
                [holder for holder in retained if holder not in lost],
            )
        return verified

    @contextmanager
    def _victim_loop_frozen(self, replicas: Optional[int] = None):
        """The local pool compresses into the SAME heap: freeze the victim
        loop so a tight heap cannot recurse into this swap-out, and pin
        replication to ``replicas`` copies when given."""
        previous_auto = self.auto_swap
        previous_override = self._replicas_override
        self.auto_swap = False
        if replicas is not None:
            self._replicas_override = replicas
        try:
            yield
        finally:
            self.auto_swap = previous_auto
            self._replicas_override = previous_override

    def _swap_out_local(self, cluster: SwapCluster) -> Optional[SwapLocation]:
        """COMPRESS_LOCAL rung: hibernate into the local compressed pool.

        Reuses the full pipeline (journal, placement, chain bookkeeping)
        with the pool as the chosen store and replication pinned to one
        copy — mirroring a CPU-only hibernation onto remote stores would
        defeat the point of the rung.  Returns ``None`` when the pool is
        full or the heap cannot even hold the compressed payload; the
        caller falls through to remote shipping.
        """
        space = self._space
        heap = space.heap
        fallback = self.ladder.fallback_store()
        with self._victim_loop_frozen(replicas=1):
            # Displacement (the zswap trick): the victim's own bytes are
            # about to be freed by the detach, so let the compressed copy
            # occupy them now — otherwise the pool could never grow at
            # exactly the moment it exists for, a full heap.  The
            # accounting is released up front (the objects stay live for
            # the serializer) and restored if the hibernation fails.
            displaced = {
                oid: heap.size_of(oid)
                for oid in cluster.oids
                if heap.holds(oid)
            }
            heap.free_cluster(displaced)
            try:
                location = self._swap_out_full(cluster, fallback)
            except (StoreFullError, HeapExhaustedError):
                heap.allocate_cluster(displaced)
                return None
        self.stats.ladder_compress_local += 1
        space.bus.emit(
            SwapDegradedEvent(
                space=space.name,
                sid=cluster.sid,
                fallback_device_id=fallback.device_id,
                reason="degrade ladder: compress-local",
            )
        )
        return location

    def _swap_out_delta(
        self, cluster: SwapCluster, chosen: SwapStore | None
    ) -> Optional[SwapLocation]:
        """Swap out a mutated cluster by shipping only its dirty objects.

        Applies when every staleness source since the last payload is
        attributed (:meth:`~repro.core.swap_cluster.SwapCluster.
        delta_eligible`), the base payload text is still cached locally,
        and at least one retained store holds the delta-chain tip.  Each
        holder receives a ``<swap-delta>`` document (:meth:`_ship_delta`).
        Returns ``None`` when the delta path cannot apply, would not pay
        (chain/byte compaction thresholds, a delta bigger than the
        payload itself) or no holder took it; the caller then falls
        back to the classic full pipeline, which also rewrites the stale
        chain.
        """
        fastpath = self.fastpath
        config = fastpath.config
        sid = cluster.sid
        base_key = cluster.base_key

        retained = fastpath.retained.get(sid)
        if retained is None or retained[0] != base_key or not retained[1]:
            return None  # no store known to hold the base: full path
        base_text = fastpath.cache.get(cluster.base_digest)
        if base_text is None:
            return None  # cannot build/verify a delta without the base
        chain = fastpath.chains.get(sid)
        if chain is None or not chain.keys or chain.keys[-1] != base_key:
            return None  # chain bookkeeping diverged from the cluster
        if chain.length + 1 > config.delta_max_chain:
            self.stats.fastpath_delta_compactions += 1
            return None  # chain too long: a full rewrite compacts it

        epoch = cluster.epoch + 1
        encoded = self._encode_delta(cluster, epoch, base_text)
        if encoded is None:
            return None  # our own delta must apply; be safe, not sorry
        delta_text, applied_text, outbound = encoded
        digest = digest_of_canonical(applied_text)
        xml_bytes = utf8_len(applied_text)
        delta_nbytes = utf8_len(delta_text)
        if delta_nbytes >= xml_bytes:
            return None  # the delta would cost more than the payload
        if (
            chain.base_bytes > 0
            and chain.delta_bytes + delta_nbytes
            > config.delta_max_ratio * chain.base_bytes
        ):
            self.stats.fastpath_delta_compactions += 1
            return None  # accumulated deltas outweigh the base: compact

        holders = (
            list(retained[1])
            if chosen is None
            else [holder for holder in retained[1] if holder is chosen]
        )
        if not holders:
            return None  # the caller-chosen store holds no base copy
        key = format_swap_key(self._space.name, sid, epoch)
        self._obs_tag("tier", "delta")
        if self.obs is not None:
            self.obs.observe_payload(delta_nbytes)

        base_epoch = cluster.base_epoch
        with _Handoff(
            self, sid, key, epoch, xml_bytes, digest, base_epoch
        ) as handoff:
            copies = self._ship_delta(
                handoff, holders, base_key, base_epoch, delta_text, applied_text
            )
            if not handoff.stored_on:
                # no retained holder reachable: the classic pipeline's
                # failover/degrade machinery takes over
                handoff.abort()
                return None

        self.stats.delta_bytes_shipped += delta_nbytes * copies
        self.stats.delta_bytes_saved += (xml_bytes - delta_nbytes) * copies
        # the payload extends the chain, so the commit stage keeps it
        chain.keys.append(key)
        chain.delta_bytes += delta_nbytes
        shipped = delta_nbytes if copies else xml_bytes
        return self._commit_swap_out(
            cluster, handoff, outbound, "delta", shipped, applied_text
        )

    def _encode_delta(
        self, cluster: SwapCluster, epoch: int, base_text: str
    ) -> Optional[Tuple[str, str, List[Any]]]:
        """The delta document of a cluster's dirty and dead members, the
        full payload it applies to, and the outbound proxy array; ``None``
        when the delta does not apply to ``base_text``."""
        space = self._space
        sid = cluster.sid
        members = {
            oid: space._objects[oid]
            for oid in cluster.dirty_oids
            if oid in cluster.oids
        }
        # Outbound indices must stay consistent with the base payload's
        # replacement array: seed from the base order, append new proxies.
        outbound, outbound_index_of = _outbound_collector(
            cluster.base_outbound or ()
        )
        with self._obs_span(
            "swap.out.delta.encode", sid=sid, objects=len(members)
        ):
            delta_text, _ = encode_cluster_delta(
                sid=sid,
                space=space.name,
                base_epoch=cluster.base_epoch,
                epoch=epoch,
                objects=members,
                dead_oids=cluster.dead_oids,
                member_oids=set(cluster.oids),
                oid_of=lambda obj: obj._obi_oid,
                outbound_index_of=outbound_index_of,
            )
        with self._obs_span("swap.out.delta.apply", sid=sid):
            try:
                applied_text = apply_cluster_delta(base_text, delta_text)
            except CodecError:
                return None
        return delta_text, applied_text, outbound

    def _ship_delta(
        self,
        handoff: _Handoff,
        holders: List[SwapStore],
        base_key: str,
        base_epoch: int,
        delta_text: str,
        applied_text: str,
    ) -> int:
        """Ship each holder the ``<swap-delta>`` document, or the applied
        full payload when it has no ``store_delta`` or refuses the delta
        (its base diverged or is lost); returns how many took the delta."""
        sid, key = handoff.sid, handoff.key
        fastpath = self.fastpath
        resilience = self.resilience
        copies = 0
        for holder in holders:
            sink = getattr(holder, "store_delta", None)
            if sink is not None:
                compression = fastpath.negotiate_for(holder)
                frames = _frames(compress_payload(delta_text, compression))
                ship = partial(
                    sink,
                    key,
                    base_epoch,
                    frames,
                    base_key=base_key,
                    compression=compression,
                )
                try:
                    with self._obs_span(
                        "swap.out.delta.store", device=holder.device_id
                    ), self._channel(holder, kind="delta"):
                        if resilience is None:
                            ship()
                        else:
                            resilience.run(
                                ship,
                                sid=sid,
                                device_id=holder.device_id,
                                op_name="store-delta",
                            )
                except (
                    CodecError,
                    UnknownKeyError,
                    StoreFullError,
                    TransportError,
                    RetryExhaustedError,
                ):
                    pass  # diverged/lost base: ship it whole
                else:
                    handoff.landed(holder)
                    copies += 1
                    continue
            try:
                with self._obs_span(
                    "swap.out.store",
                    device=holder.device_id,
                    stage="delta-fallback",
                ), self._channel(holder):
                    self._store_payload(holder, key, applied_text, sid)
            except (StoreFullError, TransportError, RetryExhaustedError):
                continue
            self.stats.fastpath_delta_fallbacks += 1
            handoff.landed(holder)
        return copies

    def _channel(self, holder: Any, kind: str = "ship"):
        """A scheduler channel for ``holder``'s link: with the async
        scheduler active the ship rides its channel pool as a
        SHIP/DELTA-SHIP op; without one it runs inline."""
        if self.sched is not None:
            return self.sched.ship_channel(holder, kind)
        return nullcontext()

    def _swap_out_full(
        self, cluster: SwapCluster, chosen: SwapStore | None
    ) -> SwapLocation:
        """The classic pipeline: encode, ship, detach (epoch bump)."""
        space = self._space
        sid = cluster.sid
        members = {oid: space._objects[oid] for oid in cluster.oids}
        outbound, outbound_index_of = _outbound_collector()
        # one pass: canonical text and its digest come out together
        with self._obs_span("swap.out.encode", sid=sid, objects=len(members)):
            xml_text, digest = encode_cluster_canonical(
                sid=sid,
                space=space.name,
                epoch=cluster.epoch + 1,
                objects=members,
                oid_of=lambda obj: obj._obi_oid,
                outbound_index_of=outbound_index_of,
            )
        self.stats.encode_calls += 1
        key = format_swap_key(space.name, sid, cluster.epoch + 1)
        return self._ship_payload(
            cluster,
            xml_text,
            key=key,
            epoch=cluster.epoch + 1,
            digest=digest,
            outbound=outbound,
            chosen=chosen,
            tier="full",
        )

    def _ship_payload(
        self,
        cluster: SwapCluster,
        xml_text: str,
        *,
        key: str,
        epoch: int,
        digest: str,
        outbound: List[Any],
        chosen: SwapStore | None,
        tier: str,
    ) -> SwapLocation:
        """Ship one serialized payload (with mirrors, failover, degrade)
        and commit the swap-out.  The payload is encoded exactly once by
        the caller; retries and alternate stores all reuse ``xml_text``.
        """
        sid = cluster.sid
        xml_bytes = utf8_len(xml_text)
        self._obs_tag("tier", tier)
        if self.obs is not None:
            self.obs.observe_payload(xml_bytes)

        resilience = self.resilience
        holders = self._plan_holders(sid, xml_bytes, chosen)
        with _Handoff(self, sid, key, epoch, xml_bytes, digest) as handoff:
            tried: List[SwapStore] = []
            first_failure: Optional[BaseException] = None
            for holder in holders:
                tried.append(holder)
                try:
                    with self._obs_span(
                        "swap.out.store",
                        device=holder.device_id,
                        stage="mirror" if handoff.stored_on else "primary",
                    ), self._channel(holder):
                        self._store_payload(holder, key, xml_text, sid)
                except StoreFullError:
                    # a caller-chosen store that refuses is the caller's
                    # problem; auto-selected mirrors are best-effort
                    if holder is chosen:
                        raise
                    continue
                except (TransportError, RetryExhaustedError) as exc:
                    if first_failure is None:
                        first_failure = exc
                    continue
                handoff.landed(holder)

            if (
                not handoff.stored_on
                and resilience is not None
                and chosen is None
            ):
                first_failure = self._ship_fallback(
                    handoff, xml_text, holders, tried, first_failure
                )
            if not handoff.stored_on:
                if resilience is not None:
                    raise AllStoresUnreachableError(
                        f"swap-out of cluster {sid}: no device accepted the "
                        f"payload ({len(tried)} tried, retries exhausted)"
                    ) from first_failure
                raise SwapStoreUnavailableError(
                    "no selected device accepted the swapped cluster"
                ) from first_failure
        return self._commit_swap_out(
            cluster, handoff, outbound, tier, xml_bytes, xml_text
        )

    def _plan_holders(
        self, sid: Sid, xml_bytes: int, chosen: SwapStore | None
    ) -> List[SwapStore]:
        """The stores a full payload ships to: a caller-chosen store plus
        mirrors with room, or placement.  With degrade-to-local on, an
        empty neighborhood plans no holders."""
        if chosen is not None:
            replicas = self.target_replicas()
            if replicas > 1:
                stores = self.available_stores()
                return _with_room(stores, xml_bytes, replicas, [chosen])
            return [chosen]
        try:
            return self.select_stores(
                xml_bytes, self.target_replicas(), sid=sid
            )
        except NoSwapDeviceError:
            # with local degradation available an empty neighborhood
            # is not fatal: fall through to the compressed pool
            resilience = self.resilience
            if resilience is None or not resilience.config.degrade_to_local:
                raise
            return []

    def _ship_fallback(
        self,
        handoff: _Handoff,
        xml_text: str,
        holders: List[SwapStore],
        tried: List[SwapStore],
        first_failure: Optional[BaseException],
    ) -> Optional[BaseException]:
        """No planned holder took the payload: fail over to a store the
        plan skipped, then degrade to the local compressed pool.
        Returns the failure to report when neither takes it."""
        space = self._space
        sid, key, xml_bytes = handoff.sid, handoff.key, handoff.xml_bytes
        for candidate in self.available_stores():
            if candidate in tried:
                continue
            tried.append(candidate)
            try:
                if not candidate.has_room(xml_bytes):
                    continue
                with self._obs_span(
                    "swap.out.store",
                    device=candidate.device_id,
                    stage="failover",
                ):
                    self._store_payload(candidate, key, xml_text, sid)
            except (StoreFullError, TransportError, RetryExhaustedError):
                continue
            handoff.landed(candidate)
            self.stats.failovers += 1
            space.bus.emit(
                SwapFailoverEvent(
                    space=space.name,
                    sid=sid,
                    operation="swap-out",
                    from_device=holders[0].device_id if holders else "(none)",
                    to_device=candidate.device_id,
                )
            )
            return first_failure
        if not self.resilience.config.degrade_to_local:
            return first_failure
        fallback = self.resilience.fallback_store()
        try:
            with self._victim_loop_frozen(), self._obs_span(
                "swap.out.store",
                device=fallback.device_id,
                stage="degrade",
            ):
                fallback.store(key, xml_text)
        except (StoreFullError, HeapExhaustedError) as exc:
            return first_failure if first_failure is not None else exc
        handoff.landed(fallback)
        self.stats.degraded_swaps += 1
        space.bus.emit(
            SwapDegradedEvent(
                space=space.name,
                sid=sid,
                fallback_device_id=fallback.device_id,
                reason=str(first_failure)
                if first_failure is not None
                else "no nearby store reachable",
            )
        )
        return first_failure

    def _commit_swap_out(
        self,
        cluster: SwapCluster,
        handoff: _Handoff,
        outbound: List[Any],
        tier: str,
        shipped: int,
        text: Optional[str] = None,
    ) -> SwapLocation:
        """The stage every swap-out ends in: detach the cluster, whose
        payload ``handoff.stored_on`` holds, and record the hand-off.
        ``tier`` names the path (see ``_TIERS``), ``shipped`` the bytes
        it put on the wire, and ``text`` the payload (``None`` for a
        clean swap-out, which shipped nothing and keeps its fast-path
        state)."""
        space = self._space
        sid, key, epoch = cluster.sid, handoff.key, handoff.epoch
        stored_on = handoff.stored_on
        stats = self.stats
        if text is not None:
            stats.mirror_writes += max(0, len(stored_on) - 1)
        object_count = len(cluster.oids)
        location, bytes_freed = self._detach(cluster, outbound, handoff)
        cluster.epoch = epoch
        handoff.commit()
        counter, reason = _TIERS[tier]
        resilience = self.resilience
        if resilience is not None:
            placement = resilience.placement
            record = placement.record_swap_out(
                sid,
                key=key,
                digest=handoff.digest,
                epoch=epoch,
                xml_bytes=handoff.xml_bytes,
                device_ids=[holder.device_id for holder in stored_on],
            )
            for holder in stored_on:
                record.applied_epochs[holder.device_id] = epoch
            if tier == "noop":
                # the contains probes just re-verified these copies: bump
                # the verified epoch so the scrubber does not re-fetch an
                # unmodified cluster.  DROP_CLEAN skipped the probes, so
                # its verified epoch stays stale on purpose and the
                # scrubber re-checks once pressure subsides.
                placement.record_verified(sid, epoch, space.clock.now())
            self._warn_if_under_replicated(sid, reason)
        stats.swap_outs += 1
        stats.bytes_shipped += shipped
        if counter is not None:
            setattr(stats, counter, getattr(stats, counter) + 1)

        fastpath = self.fastpath
        if fastpath is not None and text is not None:
            previous = (
                None if tier == "delta" else fastpath.retained.pop(sid, None)
            )
            if previous is not None and previous[0] != key:
                # the content changed: stale copies under the old keys —
                # the whole delta chain, tip first — are dead weight
                chain = fastpath.chains.pop(sid, None)
                _drop_copies(previous[1], _stale_keys(chain, previous[0], key))
            fastpath.cache.put(handoff.digest, text)
            cluster.mark_clean(
                digest=handoff.digest,
                key=key,
                epoch=epoch,
                xml_bytes=handoff.xml_bytes,
                outbound=list(outbound),
            )
            fastpath.retained[sid] = (key, list(stored_on))
            chain = fastpath.chains.get(sid)
            if fastpath.config.delta and (
                chain is None or not chain.keys or chain.keys[-1] != key
            ):
                # this payload starts a fresh chain (full rewrite)
                fastpath.chains[sid] = DeltaChain(
                    keys=[key], base_bytes=handoff.xml_bytes
                )

        if tier != "full":
            space.bus.emit(
                SwapFastPathEvent(space=space.name, sid=sid, tier=tier, key=key)
            )
        space.bus.emit(
            SwapOutEvent(
                space=space.name,
                sid=sid,
                device_id=location.device_id,
                key=key,
                object_count=object_count,
                bytes_freed=bytes_freed,
                xml_bytes=shipped,
            )
        )
        return location

    def _detach(
        self, cluster: SwapCluster, outbound: List[Any], handoff: _Handoff
    ) -> Tuple[SwapLocation, int]:
        """Patch inbound proxies to a replacement-object recording where
        the payload lives, and free the members; returns that location
        and the bytes freed."""
        space = self._space
        sid = cluster.sid
        location = SwapLocation(
            device_id=handoff.stored_on[0].device_id,
            key=handoff.key,
            digest=handoff.digest,
            xml_bytes=handoff.xml_bytes,
            epoch=handoff.epoch,
        )
        replacement_oid = space._ids.oids.next()
        replacement = ReplacementObject(
            sid=sid, oid=replacement_oid, outbound=outbound, location=location
        )
        for proxy in space.proxies_targeting(sid).values():
            proxy._obi_detach(replacement)

        # Release the members; they become eligible for local collection.
        # (compress-local pre-releases the accounting so the pool can
        # displace the victim's own bytes; ``free_cluster`` skips oids
        # the heap no longer holds)
        bytes_freed = space.heap.free_cluster(cluster.oids)
        objects = space._objects
        for oid in cluster.oids:
            del objects[oid]
        space.heap.allocate(
            replacement_oid, space.size_model.replacement_size(len(outbound))
        )

        space._set_cluster_state(cluster, SwapClusterState.SWAPPED)
        cluster.location = location
        cluster.replacement = replacement
        cluster.swap_out_count += 1
        self._bindings[sid] = handoff.stored_on
        if self.sched is not None:
            # any speculative payload buffered for this cluster predates
            # the epoch that just shipped: it can never be consumed
            self.sched.invalidate(sid, "swap-out")
        return location, bytes_freed

    # -- swap-in ---------------------------------------------------------------------

    def swap_in(self, sid: Sid) -> int:
        """Reload swap-cluster ``sid`` as a whole; returns bytes restored."""
        space = self._space
        cluster: SwapCluster = space._cluster(sid)
        if cluster.state is not SwapClusterState.SWAPPED:
            raise ClusterNotSwappedError(f"swap-cluster {sid} is resident")
        if sid in self._loading:
            raise SwapError(
                f"recursive swap-in of swap-cluster {sid} (reentrant access "
                f"during its own reload)"
            )
        location = cluster.location
        replacement = cluster.replacement
        assert location is not None and replacement is not None

        holders = self._bindings.get(sid, [])
        if self.resilience is not None and len(holders) > 1:
            # fastest admitted replica first: healthy circuits before
            # open ones, then best history, then lowest link latency
            holders = self.resilience.rank_replicas(holders)
        fastpath = self.fastpath
        cached: Optional[str] = None
        if fastpath is not None and fastpath.config.serve_swap_in_from_cache:
            # the canonical payload may still be held locally; its digest
            # is in the (trusted) location record, so no verification or
            # fetch is needed at all
            cached = fastpath.cache.get(location.digest)
        if cached is None and not holders:
            raise SwapStoreUnavailableError(
                f"no binding for device {location.device_id}"
            )

        root_span = self._obs_span("swap.in", sid=sid)
        self._loading.add(sid)
        cluster.pins += 1
        stall_started = space.clock.now()
        try:
            corrupt_holders: List[SwapStore] = []
            if cached is not None:
                xml_text = cached
                self.stats.swapin_cache_hits += 1
                root_span.set_tag("source", "cache")
            else:
                xml_text, corrupt_holders = self._fetch_payload(
                    sid, location, holders, root_span
                )
            object_count, total = self._install_payload(cluster, xml_text)
            if corrupt_holders:
                # a corrupt copy must never be retained for fast-path
                # probes (contains cannot see bitrot): drop it now
                _drop_copies(corrupt_holders, [location.key])
                holders = [
                    holder for holder in holders if holder not in corrupt_holders
                ]
                self._bindings[sid] = list(holders)
            if self.resilience is not None:
                self.resilience.placement.forget(sid)
            self._retain_or_drop(sid, location, holders)
            if fastpath is not None:
                fastpath.cache.put(location.digest, xml_text)
                # the replicas were just decoded from this payload: the
                # cluster re-enters residency *clean*
                cluster.mark_clean(
                    digest=location.digest,
                    key=location.key,
                    epoch=location.epoch,
                    xml_bytes=location.xml_bytes,
                    outbound=list(replacement.outbound),
                )
            space.bus.emit(
                SwapInEvent(
                    space=space.name,
                    sid=sid,
                    device_id=location.device_id,
                    key=location.key,
                    object_count=object_count,
                    bytes_restored=total,
                )
            )
            if self.ladder is not None:
                # the simulated seconds this access spent blocked on the
                # reload — the headline responsiveness SLO sample
                self.ladder.record_fault_stall(
                    space.clock.now() - stall_started, cluster.priority
                )
            return total
        except BaseException as exc:
            root_span.fail(exc)
            raise
        finally:
            root_span.finish()
            cluster.pins -= 1
            self._loading.discard(sid)

    def _fetch_payload(
        self,
        sid: Sid,
        location: SwapLocation,
        holders: List[SwapStore],
        root_span: Any,
    ) -> Tuple[str, List[SwapStore]]:
        """A verified copy of the payload, through the scheduler or from
        the first holder in rank order that has one, and the holders
        whose copy failed the digest check."""
        if self.sched is not None:
            (
                xml_text,
                source_device,
                attempt_index,
                fetch_errors,
                corrupt,
                corrupt_holders,
            ) = self.sched.acquire(sid, location, holders, root_span)
            if xml_text is not None:
                self._note_swapin_source(
                    sid, holders, source_device, attempt_index, root_span
                )
                return xml_text, corrupt_holders
        else:
            fetch_errors: List[str] = []
            corrupt: Optional[CodecError] = None
            corrupt_holders: List[SwapStore] = []
            for attempt_index, holder in enumerate(holders):
                candidate, error, corrupt_exc = self._fetch_one(
                    holder, location, sid
                )
                if candidate is None:
                    fetch_errors.append(error)
                    if corrupt_exc is not None:
                        corrupt = corrupt_exc
                        corrupt_holders.append(holder)
                    continue
                self._note_swapin_source(
                    sid, holders, holder.device_id, attempt_index, root_span
                )
                return candidate, corrupt_holders
        if corrupt is not None and all(
            "digest" in message for message in fetch_errors
        ):
            # every copy was retrieved but corrupted: a codec
            # problem, not an availability one
            raise corrupt
        raise AllStoresUnreachableError(
            f"cannot fetch {location.key} from any of "
            f"{len(holders)} device(s): {'; '.join(fetch_errors)}"
        )

    def _install_payload(
        self, cluster: SwapCluster, xml_text: str
    ) -> Tuple[int, int]:
        """Decode a fetched payload and bring the cluster back resident:
        replicas installed under their old oids, inbound proxies patched
        back to them, the replacement-object freed.  Returns the object
        count and the bytes restored."""
        space = self._space
        sid = cluster.sid
        replacement = cluster.replacement
        if self.validate_documents:
            from repro.wire.schema import ensure_valid_cluster

            ensure_valid_cluster(xml_text)
        resolve_extern = None
        if space.extern_resolver is not None:
            resolve_extern = lambda attrs: space.extern_resolver(attrs, sid)  # noqa: E731
        with self._obs_span(
            "swap.in.decode", sid=sid, objects=len(cluster.oids)
        ):
            document = decode_cluster(
                xml_text,
                registry=space._registry,
                resolve_out=replacement.outbound_at,
                resolve_extern=resolve_extern,
            )
        if set(document.objects) != cluster.oids:
            raise CodecError(
                f"swap-cluster {sid}: stored membership does not match "
                f"the manager's tables"
            )

        # Make room before adopting (the replacement's bytes come back
        # once the reload succeeds).  Replicas are sized afresh: a
        # write through a proxy does not resize its target.
        replicas = {
            oid: document.objects[oid] for oid in sorted(document.objects)
        }
        size_of = space.size_model.size_of
        sizes = {oid: size_of(obj) for oid, obj in replicas.items()}
        total = sum(sizes.values())
        if not space.heap.would_fit(total):
            self.ensure_room(total)
        if not space.heap.would_fit(total):
            raise HeapExhaustedError(
                f"cannot reload swap-cluster {sid}: needs {total} bytes, "
                f"{space.heap.free} free"
            )

        space._install_replicas(sid, replicas)
        space.heap.allocate_cluster(sizes)

        # Patch all inbound proxies back to the replicas.
        for proxy in space.proxies_targeting(sid).values():
            proxy._obi_patch(replicas[proxy._obi_target_oid])

        space.heap.free_oid(replacement.oid)
        space._set_cluster_state(cluster, SwapClusterState.RESIDENT)
        cluster.replacement = None
        cluster.location = None
        cluster.swap_in_count += 1
        self.stats.swap_ins += 1
        self.stats.bytes_restored += total
        if self.sched is not None:
            # decode + install + proxy patch is the RELOAD-VERIFY
            # stage of the op — pure CPU, completes at the instant
            self.sched.note_reload(sid)
        return len(document.objects), total

    def _retain_or_drop(
        self, sid: Sid, location: SwapLocation, holders: List[SwapStore]
    ) -> None:
        """After a reload: keep the store copies for the fast path, or
        drop them with the rest of the delta chain."""
        fastpath = self.fastpath
        if fastpath is not None and holders:
            # leave the copies in place: if the cluster comes back
            # clean, the next swap-out is a metadata-only no-op (and
            # the delta chain stays valid for a later delta ship)
            fastpath.retained[sid] = (location.key, list(holders))
            return
        chain = fastpath.chains.pop(sid, None) if fastpath is not None else None
        if self.keep_swapped_copies:
            return
        stale = _stale_keys(chain, location.key)
        if self.sched is not None:
            # invalidations ride the transfer channels
            self.sched.defer_drops(sid, stale, list(holders))
        else:
            _drop_copies(holders, stale)

    # -- resilient store I/O ------------------------------------------------------

    def _store_payload(
        self, holder: SwapStore, key: str, xml_text: str, sid: Sid
    ) -> None:
        """Ship one payload; retried under the resilience policy if enabled.

        With the fast path on and a batching-capable store, the payload
        travels as compressed frames over one connection
        (``store_stream``): one link latency for the whole batch instead
        of one per payload-sized transfer, and fewer bytes on the wire
        when a codec was negotiated.  Retries re-chunk but never
        re-encode — the serialized text is produced once by the caller.
        """
        ship = self._shipper(holder, key, xml_text)
        if self.resilience is None:
            ship()
            return
        self.resilience.run(
            ship,
            sid=sid,
            device_id=holder.device_id,
            op_name="store",
        )

    def _shipper(
        self, holder: SwapStore, key: str, xml_text: str
    ) -> Callable[[], None]:
        fastpath = self.fastpath
        stream = getattr(holder, "store_stream", None)
        if fastpath is None or stream is None:
            return lambda: holder.store(key, xml_text)
        compression = fastpath.negotiate_for(holder)
        frames = _frames(compress_payload(xml_text, compression))
        return lambda: stream(key, frames, compression)

    def _fetch_verified(
        self, holder: SwapStore, location: SwapLocation, sid: Sid
    ) -> str:
        """Fetch + digest-check one copy; retried (transport failures
        *and* transient corruption) under the resilience policy."""

        def attempt() -> str:
            text = holder.fetch(location.key)
            # verify_payload hashes the raw text first (payloads are
            # canonical on the wire) and only falls back to the full
            # canonicalization pass for foreign text
            with self._obs_span("swap.in.verify", device=holder.device_id):
                if not verify_payload(text, location.digest):
                    raise CorruptPayloadError(
                        f"device {holder.device_id} returned corrupted XML "
                        f"for {location.key} (digest mismatch)"
                    )
            return text

        if self.resilience is None:
            return attempt()
        return self.resilience.run(
            attempt,
            sid=sid,
            device_id=holder.device_id,
            op_name="fetch",
            retry_on=(TransportError, CorruptPayloadError),
        )

    def _fetch_one(
        self, holder: SwapStore, location: SwapLocation, sid: Sid
    ) -> tuple[Optional[str], Optional[str], Optional[CodecError]]:
        """One demand-fetch attempt against one holder.

        Wraps :meth:`_fetch_verified` with the per-attempt span, the
        corrupt-copy quarantine, and the error-message formatting shared
        by the legacy blocking loop and the async scheduler's FETCH ops.
        Returns ``(text, error, corrupt)``: exactly one of ``text`` /
        ``error`` is set; ``corrupt`` carries the digest-mismatch
        exception when that is what failed the attempt.
        """
        fetch_span = self._obs_span("swap.in.fetch", device=holder.device_id)
        try:
            with fetch_span:
                return self._fetch_verified(holder, location, sid), None, None
        except CorruptPayloadError as exc:
            self._quarantine_corrupt(sid, holder, location)
            return (
                None,
                f"{holder.device_id}: digest mismatch",
                CodecError(str(exc)),
            )
        except RetryExhaustedError as exc:
            if isinstance(exc.__cause__, CorruptPayloadError):
                self._quarantine_corrupt(sid, holder, location)
                return (
                    None,
                    f"{holder.device_id}: digest mismatch",
                    CodecError(str(exc.__cause__)),
                )
            return None, f"{holder.device_id}: {exc}", None
        except (TransportError, UnknownKeyError) as exc:
            return None, f"{holder.device_id}: {exc}", None

    def _note_swapin_source(
        self,
        sid: Sid,
        holders: List[SwapStore],
        device_id: str,
        attempt_index: int,
        root_span: Any,
    ) -> None:
        """Record where a swap-in payload came from (failover included)."""
        root_span.set_tag("source", device_id)
        if attempt_index > 0:
            root_span.set_tag("failover", True)
            self.stats.mirror_failovers += 1
            if self.resilience is not None:
                space = self._space
                space.bus.emit(
                    SwapFailoverEvent(
                        space=space.name,
                        sid=sid,
                        operation="swap-in",
                        from_device=holders[0].device_id,
                        to_device=device_id,
                    )
                )

    def _stores_by_id(self) -> Dict[str, SwapStore]:
        """The stores a journal entry may name, by device id: every
        nearby store plus the resilience pipeline's local pool."""
        fallback = self.resilience._fallback
        stores = {holder.device_id: holder for holder in self.available_stores()}
        if fallback is not None:
            stores.setdefault(fallback.device_id, fallback)
        return stores

    def recover_journal(self) -> int:
        """Clean up after interrupted swap-outs; returns entries recovered.

        A pending journal entry whose cluster never detached names the
        store copies that were acknowledged before the operation died —
        orphans that would otherwise sit on nearby devices forever.
        Each named copy is dropped (best-effort) and the entry aborted.
        Entries whose hand-off actually completed (cluster swapped at
        the entry's epoch) are committed instead — their copies are the
        live data.
        """
        resilience = self.resilience
        if resilience is None:
            return 0
        recovered = 0
        stores_by_id = self._stores_by_id()
        for entry in resilience.journal.pending():
            cluster = self._space._clusters.get(entry.sid)
            if (
                cluster is not None
                and cluster.state is SwapClusterState.SWAPPED
                and cluster.epoch == entry.epoch
            ):
                resilience.journal.commit(entry)
                continue
            _drop_copies(
                [
                    stores_by_id[device_id]
                    for device_id in entry.writes
                    if device_id in stores_by_id
                ],
                [entry.key],
            )
            resilience.journal.abort(entry)
            resilience.journal.stats.recoveries += 1
            self.stats.journal_recoveries += 1
            recovered += 1
        return recovered

    def recover_placement(self) -> int:
        """Rebuild the placement map after a restart; returns records rebuilt.

        The in-memory map is gone after a crash; what survives is the
        write-ahead journal (committed entries name the acknowledged
        replica set per epoch) and the stores' own inventory.  For every
        cluster still swapped, the two are reconciled: journal-named
        copies confirmed by a key probe come back ``ACTIVE``, journal-
        named copies on unreachable stores come back ``SUSPECT`` (the
        scrubber re-verifies them), and inventory copies the (possibly
        truncated) journal forgot are re-adopted.
        """
        from repro.resilience.journal import JournalEntryState
        from repro.resilience.placement import ReplicaState

        resilience = self.resilience
        if resilience is None:
            return 0
        stores_by_id = self._stores_by_id()
        committed: Dict[tuple, Any] = {}
        for entry in reversed(resilience.journal.history()):
            if entry.state is JournalEntryState.COMMITTED:
                committed.setdefault((entry.sid, entry.epoch), entry)

        rebuilt = 0
        for sid, cluster in self._space._clusters.items():
            if cluster.state is not SwapClusterState.SWAPPED:
                continue
            location = cluster.location
            if location is None:
                continue
            entry = committed.get((sid, location.epoch))
            named = list(entry.writes) if entry is not None else []
            suspects: List[str] = []
            active: List[str] = []
            holders: List[SwapStore] = []
            for device_id, holder in stores_by_id.items():
                if device_id in named:
                    continue
                # inventory scan: copies the truncated journal lost
                probe = getattr(holder, "contains", None)
                if probe is None:
                    continue
                try:
                    if probe(location.key):
                        named.append(device_id)
                except (TransportError, RetryExhaustedError):
                    continue
            for device_id in named:
                holder = stores_by_id.get(device_id)
                if holder is None:
                    suspects.append(device_id)  # departed: may rejoin
                    continue
                probe = getattr(holder, "contains", None)
                try:
                    present = True if probe is None else probe(location.key)
                except (TransportError, RetryExhaustedError):
                    suspects.append(device_id)
                    continue
                if present:
                    active.append(device_id)
                    holders.append(holder)
            record = resilience.placement.record_swap_out(
                sid,
                key=location.key,
                digest=location.digest,
                epoch=location.epoch,
                xml_bytes=location.xml_bytes,
                device_ids=active,
            )
            for device_id in suspects:
                record.replicas[device_id] = ReplicaState.SUSPECT
            self._bindings[sid] = holders
            resilience.placement.stats.recoveries += 1
            self.stats.placement_recoveries += 1
            rebuilt += 1
        return rebuilt

    # -- store churn --------------------------------------------------------------

    def detach_store(self, store: SwapStore, *, dead: bool = False) -> List[Sid]:
        """A store is leaving the neighborhood; returns affected sids.

        ``dead=False`` (planned departure / out of range): its replicas
        are marked ``SUSPECT`` — the copies may still exist and will be
        re-verified, not re-shipped, if the store rejoins.  ``dead=True``
        (battery pulled, storage wiped): the replicas are struck from
        the map outright.  Either way, affected swapped clusters become
        under-replicated and the scrubber re-replicates them.
        """
        self.remove_store(store)
        device_id = store.device_id
        resilience = self.resilience
        affected: List[Sid] = []
        if resilience is not None:
            if dead:
                affected = resilience.placement.mark_device_lost(device_id)
                for sid in affected:
                    self._warn_if_under_replicated(
                        sid, f"{device_id}: store died"
                    )
            else:
                affected = resilience.mark_device_suspect(
                    device_id, reason="store detached"
                )
        # swap-in must not waste its first fetch on the departed store
        for sid, bound in list(self._bindings.items()):
            pruned = [holder for holder in bound if holder is not store]
            if len(pruned) != len(bound):
                self._bindings[sid] = pruned
                if sid not in affected:
                    affected.append(sid)
        if self.fastpath is not None:
            for sid, (key, retained) in list(self.fastpath.retained.items()):
                if store in retained:
                    self.fastpath.retained[sid] = (
                        key,
                        [holder for holder in retained if holder is not store],
                    )
        self._space.bus.emit(
            StoreDetachedEvent(
                space=self._space.name,
                device_id=device_id,
                dead=dead,
                affected_clusters=len(affected),
            )
        )
        if self.topology is not None:
            self.topology.on_store_removed(
                device_id,
                dead=dead,
                reason="store died" if dead else "store detached",
            )
        return affected

    def attach_store(self, store: SwapStore) -> None:
        """A store (re)joined the neighborhood.

        Rejoining is evidence of reachability: the store's circuit is
        closed so selection admits it immediately.  Suspect replicas it
        may still hold are re-verified by the next scrub pass, not
        trusted blindly.
        """
        self.add_store(store)
        if self.resilience is not None:
            self.resilience.record_success(store.device_id)
        if self.topology is not None:
            self.topology.on_store_attached(store)
        self._space.bus.emit(
            StoreRejoinedEvent(space=self._space.name, device_id=store.device_id)
        )

    def _quarantine_corrupt(
        self, sid: Sid, holder: SwapStore, location: SwapLocation
    ) -> None:
        """A fetched copy failed the end-to-end digest check."""
        self.stats.replicas_quarantined += 1
        if self.resilience is not None:
            self.resilience.placement.quarantine(sid, holder.device_id)
        self._space.bus.emit(
            ReplicaCorruptEvent(
                space=self._space.name,
                sid=sid,
                device_id=holder.device_id,
                key=location.key,
                source="swap-in",
            )
        )

    def _warn_if_under_replicated(self, sid: Sid, reason: str) -> None:
        resilience = self.resilience
        if resilience is None:
            return
        record = resilience.placement.get(sid)
        rf = self.target_replicas()
        if record is not None and record.live_count < rf:
            self._space.bus.emit(
                ClusterUnderReplicatedEvent(
                    space=self._space.name,
                    sid=sid,
                    live_replicas=record.live_count,
                    target_replicas=rf,
                    reason=reason,
                )
            )

    # -- memory pressure ----------------------------------------------------------------

    def ensure_room(self, need_bytes: int) -> int:
        """Swap out victims until ``need_bytes`` fit (or nothing is left).

        Returns the number of bytes actually freed.  Swallows
        device-availability errors: memory pressure with no nearby device
        simply cannot be relieved, and the caller's allocation will fail
        with :class:`HeapExhaustedError`.
        """
        space = self._space
        ladder = self.ladder
        started = space.clock.now()
        if ladder is not None:
            rung = ladder.update()
            if self.sched is not None:
                # rising pressure reclaims speculative buffers first
                self.sched.on_pressure(int(rung))
        freed = 0
        while not space.heap.would_fit(need_bytes):
            victim = self.victim_selector(space)
            if victim is None:
                break
            before = space.heap.used
            try:
                self.swap_out(victim)
            except (NoSwapDeviceError, SwapStoreUnavailableError):
                break
            freed += before - space.heap.used
        if ladder is not None and not space.heap.would_fit(need_bytes):
            # the victim loop could not make room — the moment a real
            # OOM killer fires, whatever the signal estimated
            ladder.force_emergency(
                f"reclaim failed: {need_bytes} bytes still needed"
            )
            freed += self._emergency_evict(need_bytes)
        if ladder is not None:
            ladder.record_alloc_stall(space.clock.now() - started)
        return freed

    def _emergency_evict(self, need_bytes: int) -> int:
        """EMERGENCY rung: OOM-kill clusters until the bytes fit.

        Victims are taken lowest-priority-first (idle before background),
        least-recently-crossed within a priority band.  Two kinds of
        cluster are killable: resident swappable ones (their members are
        evicted outright) and clusters hibernating in the local
        compressed pool (their pool bytes live in this same heap, so
        dropping them is reclamation too).  Foreground clusters are
        never killed: a space whose remaining candidates are all
        foreground simply stays full and the allocation fails, which
        the benchmark counts as an SLO breach rather than a kill.
        """
        space = self._space
        ladder = self.ladder
        pool_device = None
        if ladder.has_fallback():
            pool_device = ladder.fallback_store().device_id
        freed = 0
        while not space.heap.would_fit(need_bytes):
            candidates = [
                cluster
                for cluster in space._clusters.values()
                if cluster.priority < FOREGROUND_PRIORITY
                and cluster.sid not in self._loading  # never the one being reloaded
                and (
                    cluster.swappable()
                    or (
                        cluster.is_swapped
                        and pool_device is not None
                        and any(
                            holder.device_id == pool_device
                            for holder in self._bindings.get(cluster.sid, [])
                        )
                    )
                )
            ]
            if not candidates:
                break  # nothing left but foreground: refuse to kill it
            victim = min(
                candidates,
                key=lambda c: (c.priority, c.last_crossing_tick, c.sid),
            )
            freed += self._oom_kill(victim)
        return freed

    def _oom_kill(self, cluster: SwapCluster) -> int:
        """Discard a cluster outright — no encode, no ship.

        The nuclear option: a resident victim has every member evicted
        from the heap; a pool-hibernated one has its stored copies (and
        their compressed heap bytes) dropped.  Either way the cluster
        record goes, tombstoning any proxies that still point at it
        (later access raises ``IntegrityError``).  Returns the heap
        bytes freed.
        """
        space = self._space
        sid = cluster.sid
        priority = cluster.priority
        object_count = len(cluster.oids)
        freed = 0
        if cluster.is_swapped:
            # pool-hibernated victim: dropping the stored copies frees
            # their compressed bytes from this same heap
            before = space.heap.used
            self.drop_swapped(cluster)
            freed += before - space.heap.used
        else:
            freed += space._evict_cluster(cluster)
        # drops retained store copies too, via _on_cluster_collected
        space._drop_cluster_record(sid)
        self.stats.oom_kills += 1
        if priority >= FOREGROUND_PRIORITY:
            self.stats.oom_kills_foreground += 1
        space.bus.emit(
            ClusterOomKilledEvent(
                space=space.name,
                sid=sid,
                priority=priority,
                object_count=object_count,
                bytes_freed=freed,
            )
        )
        return freed

    def on_heap_exhausted(self, heap: Any, need_bytes: int) -> None:
        """Callback wired to ``heap.on_exhausted`` by the space."""
        if self.auto_swap:
            self.ensure_room(need_bytes)

    # -- GC cooperation -------------------------------------------------------------------

    def drop_swapped(self, cluster: SwapCluster) -> None:
        """A swapped cluster became unreachable: tell the store to drop it.

        Paper, Section 3: "when a replacement-object, standing in for a
        swap-cluster that has been swapped-out, becomes unreachable ...
        the swapping device may be instructed to discard the XML text".
        """
        space = self._space
        location = cluster.location
        holders = self._bindings.pop(cluster.sid, [])
        if self.sched is not None:
            self.sched.invalidate(cluster.sid, "dropped")
        if self.resilience is not None:
            self.resilience.placement.forget(cluster.sid)
        if location is not None:
            _drop_copies(holders, [location.key])
        if self.fastpath is not None:
            # the primary copies are already dropped
            self._drop_retained(
                cluster.sid, holders, location.key if location else None
            )
        if cluster.replacement is not None:
            space.heap.free_oid(cluster.replacement.oid)
            cluster.replacement = None
        self.stats.drops += 1
        if location is not None:
            space.bus.emit(
                SwapDroppedEvent(
                    space=space.name,
                    sid=cluster.sid,
                    device_id=location.device_id,
                    key=location.key,
                )
            )

    # -- events ------------------------------------------------------------------------------

    def _on_cluster_replicated(self, event: Any) -> None:
        if event.space == self._space.name:
            self.stats.replicated_clusters += 1

    def _on_cluster_collected(self, event: Any) -> None:
        """A cluster was reclaimed by the local collector: the scheduler
        forgets it, and its retained store copies (left behind for
        fast-path no-ops) are unreachable through any replacement-object,
        so drop them."""
        if event.space != self._space.name:
            return
        if self.sched is not None:
            self.sched.on_cluster_collected(event.sid)
        if self.fastpath is not None:
            self._drop_retained(event.sid)

    def _drop_retained(
        self,
        sid: Sid,
        holders: Iterable[SwapStore] = (),
        skip: Optional[str] = None,
    ) -> None:
        """Forget a cluster's retained copies and delta chain, and drop
        them from their holders and ``holders`` (all but ``skip``)."""
        chain = self.fastpath.chains.pop(sid, None)
        retained = self.fastpath.retained.pop(sid, None)
        drop_from: List[SwapStore] = list(holders)
        if retained is not None:
            for holder in retained[1]:
                if holder not in drop_from:
                    drop_from.append(holder)
        key = retained[0] if retained is not None else None
        _drop_copies(drop_from, _stale_keys(chain, key, skip))

    def binding_for(self, sid: Sid) -> Optional[SwapStore]:
        """The primary store holding a swapped cluster (None if resident)."""
        holders = self._bindings.get(sid)
        return holders[0] if holders else None

    def bindings_for(self, sid: Sid) -> List[SwapStore]:
        """All stores holding copies of a swapped cluster."""
        return list(self._bindings.get(sid, []))
