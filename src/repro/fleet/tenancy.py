"""Tenancy: budgets, fair shares and per-tenant pressure.

A :class:`TenantSpec` binds a tenant id to three limits — a heap
budget, a store-byte quota, and a guaranteed share of the fleet's
store capacity — plus a priority class.  The
:class:`TenantRegistry` holds every tenant over one shared set of
swap stores and arbitrates between them:

* **Quota** is absolute: a ship that would push the tenant's store
  footprint past ``store_quota_bytes`` is denied outright, whatever
  the fleet looks like.
* **Fair share** only bites under *global* store pressure (fleet free
  space at or below :attr:`FleetConfig.pressure_free_fraction`).
  Each tenant's fair share is its guaranteed slice of capacity plus
  an equal split of the unguaranteed remainder.  Under pressure an
  over-share tenant's ships are denied (they fall down the existing
  degrade-to-local path), while an under-share tenant's ships are
  admitted and the registry claws back room by dropping *redundant*
  copies — retained clean copies and extra mirrors — from whoever is
  furthest over share (see
  :meth:`~repro.core.manager.SwappingManager.reclaim_store_copies`).
  Nobody is ever reclaimed below their fair share, so one tenant's
  burst cannot push another below its guarantee.
* **Pressure** is per tenant: each tenant feeds a
  :class:`~repro.policy.pressure.PressureSignal` overlay into its
  managers' degrade ladders, so rungs escalate for the tenant that is
  over share while its neighbors stay at ``NORMAL``.

Denials and reclaims are *advisory erosion*, not hard failure: a
denied ship raises :class:`~repro.errors.NoSwapDeviceError` only when
the manager has no degrade-to-local fallback, and a reclaimed copy is
always one the runtime can re-create (the last copy of swapped state
is never touched).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ObiError
from repro.events import TenantEvictedEvent, TenantRegisteredEvent
from repro.policy.pressure import PressureLevel, PressureSignal, classify


class FleetError(ObiError):
    """An invalid tenancy or control-plane operation."""


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-wide arbitration knobs."""

    #: The fleet is under *global* store pressure when its free space,
    #: as a fraction of total store capacity, is at or below this.
    #: Fair-share arbitration (denials, reclaims, per-tenant ladder
    #: bumps) only engages under pressure; above it every admitted
    #: tenant ships freely.
    pressure_free_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.pressure_free_fraction < 1.0:
            raise FleetError(
                "pressure_free_fraction must be in [0, 1), got "
                f"{self.pressure_free_fraction}"
            )


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's limits.  Immutable; the control plane replaces the
    whole spec when a validated config change lands."""

    tenant_id: str
    #: Ceiling on the summed heap capacity of the tenant's spaces
    #: (checked at bind time — a space whose heap would blow the
    #: budget is refused).
    heap_budget_bytes: int
    #: Absolute ceiling on the tenant's store footprint (all copies of
    #: all its clusters on fleet stores).
    store_quota_bytes: int
    #: Slice of fleet store capacity this tenant can never be reclaimed
    #: or denied below.  Guarantees across tenants must sum to <= 1.
    guaranteed_share: float = 0.0
    #: Higher keeps its copies longer when two tenants are equally
    #: over share (mirrors ``repro.policy.priority`` semantics).
    priority_class: int = 1

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise FleetError("tenant_id must be non-empty")
        if self.heap_budget_bytes <= 0:
            raise FleetError(
                f"heap_budget_bytes must be positive, got "
                f"{self.heap_budget_bytes}"
            )
        if self.store_quota_bytes <= 0:
            raise FleetError(
                f"store_quota_bytes must be positive, got "
                f"{self.store_quota_bytes}"
            )
        if not 0.0 <= self.guaranteed_share <= 1.0:
            raise FleetError(
                f"guaranteed_share must be in [0, 1], got "
                f"{self.guaranteed_share}"
            )
        if self.priority_class < 0:
            raise FleetError(
                f"priority_class must be >= 0, got {self.priority_class}"
            )


def manager_store_bytes(manager: Any, stores: List[Any]) -> int:
    """One manager's *physical* footprint on the given stores.

    Swap keys are namespaced per space
    (:func:`~repro.core.manager.format_swap_key` produces
    ``"{space}/sc-{sid}/e{epoch}"``), so a prefix scan over the fleet
    devices charges exactly what is at rest for this space — every
    copy, retained caches, delta chains and negotiated compression
    included — and the figure adds up with the devices' own
    ``used`` / ``capacity`` that fair shares are cut from.
    """
    prefix = f"{manager._space.name}/"
    return sum(store.used_by_prefix(prefix) for store in stores)


class Tenant:
    """One tenant: a spec plus the managers bound under it.

    Created by :meth:`TenantRegistry.register`; the same tenant id may
    bind several spaces (each brings its own manager), and their heap
    capacities must fit the tenant's heap budget together.
    """

    def __init__(self, spec: TenantSpec, registry: "TenantRegistry") -> None:
        self.spec = spec
        self._registry = registry
        self.managers: List[Any] = []
        #: Copies / bytes the fair-share reclaimer took *from* this
        #: tenant (involuntary erosion — the isolation bench scores it).
        self.evicted_copies = 0
        self.evicted_bytes = 0
        #: Ladder escalations this tenant's overlay injected.
        self.pressure_bumps = 0

    @property
    def tenant_id(self) -> str:
        return self.spec.tenant_id

    # -- binding -----------------------------------------------------------

    def bind(self, manager: Any) -> None:
        """Bind a space's manager to this tenant (idempotent)."""
        if manager in self.managers:
            return
        if manager.tenant is not None and manager.tenant is not self:
            raise FleetError(
                f"space {manager._space.name!r} is already bound to tenant "
                f"{manager.tenant.tenant_id!r}"
            )
        heap_total = manager._space.heap.capacity + sum(
            m._space.heap.capacity for m in self.managers
        )
        if heap_total > self.spec.heap_budget_bytes:
            raise FleetError(
                f"tenant {self.tenant_id!r} heap budget exceeded: "
                f"{heap_total} > {self.spec.heap_budget_bytes} bytes"
            )
        self.managers.append(manager)
        manager.tenant = self
        if manager.ladder is not None:
            self.bind_ladder(manager.ladder)
        if manager.obs is not None:
            manager.obs.set_tenant_label(self.tenant_id)
        space = manager._space
        space.bus.emit(
            TenantRegisteredEvent(
                space=space.name,
                tenant_id=self.tenant_id,
                store_quota_bytes=self.spec.store_quota_bytes,
                guaranteed_share=self.spec.guaranteed_share,
                priority_class=self.spec.priority_class,
            )
        )

    def unbind(self, manager: Any) -> None:
        if manager in self.managers:
            self.managers.remove(manager)
        if manager.tenant is self:
            manager.tenant = None
        if manager.ladder is not None:
            manager.ladder.pressure_overlay = None

    def bind_ladder(self, ladder: Any) -> None:
        """Install this tenant's pressure overlay on a degrade ladder.

        Called both at bind time and from
        :meth:`~repro.core.manager.SwappingManager.enable_degrade_ladder`
        when the ladder is (re-)created after binding.
        """
        manager = ladder._manager

        def overlay(signal: PressureSignal) -> PressureSignal:
            return self._adjust_signal(signal, manager)

        ladder.pressure_overlay = overlay

    def _adjust_signal(
        self, signal: PressureSignal, manager: Any
    ) -> PressureSignal:
        """Fold fleet fair-share standing into one ladder reading.

        An over-share tenant under global store pressure is escalated
        one level; everyone else's signals pass through untouched, so
        rungs climb for the tenant causing the squeeze and only for it.
        """
        if not self._registry.under_pressure():
            return signal
        share = self.fair_share_bytes()
        if share <= 0 or self.store_bytes() <= share:
            return signal
        bumped = min(int(PressureLevel.CRITICAL), int(signal.level) + 1)
        if bumped == int(signal.level):
            return signal
        self.pressure_bumps += 1
        manager.stats.tenant_pressure_bumps += 1
        return replace(signal, level=PressureLevel(bumped))

    # -- accounting --------------------------------------------------------

    def store_bytes(self) -> int:
        """This tenant's total physical footprint on fleet stores."""
        stores = self._registry._stores
        return sum(manager_store_bytes(m, stores) for m in self.managers)

    def heap_capacity_bytes(self) -> int:
        return sum(m._space.heap.capacity for m in self.managers)

    def fair_share_bytes(self) -> int:
        return self._registry.fair_share_bytes(self)

    def guaranteed_bytes(self) -> int:
        return int(
            self.spec.guaranteed_share * self._registry.capacity_bytes()
        )

    def denials(self) -> int:
        return sum(m.stats.fleet_admission_denials for m in self.managers)

    # -- the manager-facing hooks ------------------------------------------

    def admit_ship(self, nbytes: int, replicas: int) -> Tuple[bool, str]:
        """May this tenant ship ``nbytes`` to ``replicas`` stores now?

        Called by ``_plan_holders`` before store selection.  Returns
        ``(admitted, denial_reason)``; a denial sends the swap-out down
        the degrade-to-local path instead of onto the fleet.
        """
        return self._registry.admit(self, nbytes * max(1, replicas))

    def prepare_room(self, need_bytes: int) -> None:
        """Heap-pressure hook (``ensure_room``): an under-share tenant
        about to evict may pull redundant fleet copies back from
        over-share tenants so its victim ships have somewhere to land."""
        registry = self._registry
        if not registry.under_pressure():
            return
        if self.store_bytes() >= self.fair_share_bytes():
            return
        registry.reclaim(need_bytes, requester=self)

    def pressure(self) -> PressureSignal:
        """This tenant's current fleet-relative pressure reading."""
        return self._registry.tenant_pressure(self)


class TenantRegistry:
    """Every tenant over one shared store fleet, plus the arbiter.

    The registry never touches stores directly — capacity and usage
    are read from the devices (``capacity`` / ``used``, passed through
    fault wrappers), and reclaiming goes through each victim manager's
    :meth:`~repro.core.manager.SwappingManager.reclaim_store_copies`
    so placement ledgers and retained-copy indexes stay consistent.
    """

    def __init__(
        self, stores: List[Any], *, config: Optional[FleetConfig] = None
    ) -> None:
        if not stores:
            raise FleetError("a tenant registry needs at least one store")
        self.config = config if config is not None else FleetConfig()
        self._stores = list(stores)
        self.tenants: Dict[str, Tenant] = {}

    def store_ids(self) -> Set[str]:
        return {store.device_id for store in self._stores}

    # -- membership --------------------------------------------------------

    def register(self, spec: TenantSpec, manager: Any) -> Tenant:
        """Register (or extend) a tenant and bind ``manager`` under it.

        Re-registering an existing tenant id with an *identical* spec
        binds another space to the same tenant; a differing spec is an
        error (specs change through the control plane, not re-register).
        """
        tenant = self.tenants.get(spec.tenant_id)
        if tenant is None:
            self._check_guarantees(adding=spec)
            tenant = Tenant(spec, self)
            self.tenants[spec.tenant_id] = tenant
        elif tenant.spec != spec:
            raise FleetError(
                f"tenant {spec.tenant_id!r} is already registered with a "
                "different spec; use update_spec"
            )
        tenant.bind(manager)
        return tenant

    def unregister(self, tenant_id: str) -> None:
        tenant = self.tenants.pop(tenant_id, None)
        if tenant is None:
            raise FleetError(f"unknown tenant {tenant_id!r}")
        for manager in list(tenant.managers):
            tenant.unbind(manager)

    def update_spec(self, tenant_id: str, /, **changes: Any) -> TenantSpec:
        """Replace fields of a tenant's spec (control-plane entry point).

        Field validation reruns via ``TenantSpec.__post_init__``; the
        cross-tenant guarantee-sum invariant is rechecked here.  The
        tenant id is positional-only so a stray ``tenant_id=...`` in
        ``changes`` hits the rename guard instead of shadowing it.
        """
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            raise FleetError(f"unknown tenant {tenant_id!r}")
        if "tenant_id" in changes:
            raise FleetError("a tenant cannot be renamed")
        spec = replace(tenant.spec, **changes)
        self._check_guarantees(replacing=spec)
        tenant.spec = spec
        return spec

    def _check_guarantees(
        self,
        adding: Optional[TenantSpec] = None,
        replacing: Optional[TenantSpec] = None,
    ) -> None:
        shares = {
            tid: tenant.spec.guaranteed_share
            for tid, tenant in self.tenants.items()
        }
        if replacing is not None:
            shares[replacing.tenant_id] = replacing.guaranteed_share
        if adding is not None:
            shares[adding.tenant_id] = adding.guaranteed_share
        total = sum(shares.values())
        if total > 1.0 + 1e-9:
            raise FleetError(
                f"guaranteed shares sum to {total:.2f} > 1.0 of fleet "
                "capacity"
            )

    # -- fleet accounting --------------------------------------------------

    def capacity_bytes(self) -> int:
        return sum(store.capacity for store in self._stores)

    def used_bytes(self) -> int:
        return sum(store.used for store in self._stores)

    def free_bytes(self) -> int:
        return self.capacity_bytes() - self.used_bytes()

    def free_fraction(self) -> float:
        capacity = self.capacity_bytes()
        return self.free_bytes() / capacity if capacity else 1.0

    def under_pressure(self) -> bool:
        """Is the fleet under global store pressure right now?"""
        return self._pressed_after(0)

    def _pressed_after(self, extra_bytes: int) -> bool:
        capacity = self.capacity_bytes()
        if capacity <= 0:
            return False
        free_after = self.free_bytes() - extra_bytes
        return free_after / capacity <= self.config.pressure_free_fraction

    def fair_share_bytes(self, tenant: Tenant) -> int:
        """Guaranteed slice plus an equal split of the unguaranteed
        remainder, capped by the tenant's own quota."""
        capacity = self.capacity_bytes()
        count = len(self.tenants)
        if capacity <= 0 or count == 0:
            return 0
        guaranteed_total = sum(
            t.spec.guaranteed_share for t in self.tenants.values()
        )
        leftover = max(0.0, 1.0 - guaranteed_total) / count
        share = tenant.spec.guaranteed_share + leftover
        return min(int(share * capacity), tenant.spec.store_quota_bytes)

    # -- arbitration -------------------------------------------------------

    def admit(self, tenant: Tenant, total_bytes: int) -> Tuple[bool, str]:
        """Decide one ship: quota first, fair share under pressure."""
        usage = tenant.store_bytes()
        quota = tenant.spec.store_quota_bytes
        if usage + total_bytes > quota:
            return False, (
                f"store quota exceeded ({usage} + {total_bytes} > "
                f"{quota} bytes)"
            )
        if self._pressed_after(total_bytes):
            share = self.fair_share_bytes(tenant)
            if usage + total_bytes > share:
                return False, (
                    f"over fair share under global store pressure "
                    f"({usage} + {total_bytes} > {share} bytes)"
                )
            # within its share: make room at the over-share tenants'
            # expense so the guaranteed ship can land
            self.reclaim(total_bytes, requester=tenant)
        return True, ""

    def reclaim(
        self, need_bytes: int, requester: Optional[Tenant] = None
    ) -> Tuple[int, int]:
        """Free up to ``need_bytes`` by eroding over-share tenants.

        Victims are ordered furthest-over-share first (priority class
        breaks ties, lower evicted first, then tenant id for
        determinism) and each is trimmed only down to its fair share —
        never into its guarantee.  Returns ``(copies, bytes_freed)``.
        """
        requested_by = requester.tenant_id if requester is not None else ""
        overages = []
        for tenant in self.tenants.values():
            if tenant is requester:
                continue
            overage = tenant.store_bytes() - self.fair_share_bytes(tenant)
            if overage > 0:
                overages.append((tenant, overage))
        overages.sort(
            key=lambda pair: (
                -pair[1],
                pair[0].spec.priority_class,
                pair[0].tenant_id,
            )
        )
        store_ids = self.store_ids()
        total_copies = 0
        total_freed = 0
        for victim, overage in overages:
            if total_freed >= need_bytes:
                break
            take = min(need_bytes - total_freed, overage)
            for manager in victim.managers:
                if take <= 0:
                    break
                copies, freed = manager.reclaim_store_copies(
                    take, store_ids=store_ids
                )
                if not copies:
                    continue
                victim.evicted_copies += copies
                victim.evicted_bytes += freed
                total_copies += copies
                total_freed += freed
                take -= freed
                space = manager._space
                space.bus.emit(
                    TenantEvictedEvent(
                        space=space.name,
                        tenant_id=victim.tenant_id,
                        copies_dropped=copies,
                        bytes_freed=freed,
                        requested_by=requested_by,
                    )
                )
        return total_copies, total_freed

    # -- readings ----------------------------------------------------------

    def tenant_pressure(self, tenant: Tenant) -> PressureSignal:
        """A per-tenant pressure reading in fleet terms.

        Headroom is the tenant's remaining fair share (not its heap);
        store health reads browned-out (0.5) while the fleet is under
        global pressure, so :func:`~repro.policy.pressure.classify`
        naturally bumps an over-share tenant one extra level.
        """
        share = self.fair_share_bytes(tenant)
        usage = tenant.store_bytes()
        headroom = max(0.0, 1.0 - usage / share) if share > 0 else 0.0
        health = 0.5 if self.under_pressure() else 1.0
        return classify(headroom, health, 0.0)

    def snapshot(self) -> Dict[str, Any]:
        """One flat dict of fleet standing (bench / obs export)."""
        tenants = {}
        for tid in sorted(self.tenants):
            tenant = self.tenants[tid]
            tenants[tid] = {
                "store_bytes": tenant.store_bytes(),
                "fair_share_bytes": self.fair_share_bytes(tenant),
                "guaranteed_bytes": tenant.guaranteed_bytes(),
                "store_quota_bytes": tenant.spec.store_quota_bytes,
                "priority_class": tenant.spec.priority_class,
                "spaces": sorted(
                    m._space.name for m in tenant.managers
                ),
                "denials": tenant.denials(),
                "evicted_copies": tenant.evicted_copies,
                "evicted_bytes": tenant.evicted_bytes,
                "pressure_bumps": tenant.pressure_bumps,
                "pressure_level": int(self.tenant_pressure(tenant).level),
            }
        return {
            "capacity_bytes": self.capacity_bytes(),
            "used_bytes": self.used_bytes(),
            "free_fraction": self.free_fraction(),
            "under_pressure": self.under_pressure(),
            "tenants": tenants,
        }
