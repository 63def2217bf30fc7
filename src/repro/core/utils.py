"""``SwapClusterUtils``: the static helper surface of the paper's Section 4.

The paper factors behaviour common to all swap-cluster-proxy types into a
``SwapClusterUtils`` class with static methods; the application-visible
piece is ``assign``, the iteration optimisation: a proxy held by a
swap-cluster-0 variable is marked so that, instead of minting a fresh
proxy for each reference it returns (and discarding itself), it *patches
itself* to the returned object and hands back a reference to itself.
"""

from __future__ import annotations

from typing import Any

from repro.core.swap_proxy import set_assign_mode
from repro.errors import NotManagedError, PolicyError
from repro.ids import ROOT_SID
from repro.runtime.classext import is_managed, is_proxy


class SwapClusterUtils:
    """Static helpers shared by all swap-cluster-proxy types."""

    @staticmethod
    def assign(proxy: Any) -> Any:
        """Enable the iteration optimisation on ``proxy`` (paper §4).

        Only proxies whose source is swap-cluster-0 (i.e. held by global
        variables / roots) may be marked: self-patching a proxy stored in
        another object's field would silently retarget that field.
        Returns the proxy for fluent use.
        """
        if not is_proxy(proxy):
            raise NotManagedError(
                f"assign() needs a swap-cluster-proxy, got {type(proxy).__name__}"
            )
        if proxy._obi_source_sid != ROOT_SID:
            raise PolicyError(
                "assign() may only be invoked with swap-cluster-proxies "
                f"with source in swap-cluster-0 (got source "
                f"{proxy._obi_source_sid})"
            )
        # From now on this proxy is the variable's own self-patching
        # cursor, not the canonical proxy for its (source, target) pair:
        # re-key its table entry from the pair to id(proxy) once, so the
        # pair mints a fresh canonical proxy and per-step retargeting
        # only ever moves an id-keyed entry.
        space = proxy._obi_space
        target_sid = proxy._obi_target_sid
        key = (proxy._obi_source_sid, proxy._obi_target_oid)
        if space.proxies_targeting(target_sid).get(key) is proxy:
            space._refile_proxy(proxy, target_sid, key, id(proxy))
        set_assign_mode(proxy, True)
        return proxy

    @staticmethod
    def unassign(proxy: Any) -> Any:
        """Disable the iteration optimisation again."""
        if not is_proxy(proxy):
            raise NotManagedError(
                f"unassign() needs a swap-cluster-proxy, got {type(proxy).__name__}"
            )
        set_assign_mode(proxy, False)
        return proxy

    @staticmethod
    def equals(left: Any, right: Any) -> bool:
        """Identity-aware equality across any mix of proxies and objects."""
        if left is right:
            return True
        result = left == right
        return result is True

    @staticmethod
    def oid_of(handle: Any) -> int:
        """The oid denoted by a proxy or an adopted managed object."""
        if is_proxy(handle):
            return handle._obi_target_oid
        if is_managed(handle):
            oid = getattr(handle, "_obi_oid", None)
            if oid is None:
                raise NotManagedError("object has not been adopted into a space")
            return oid
        raise NotManagedError(f"not a managed handle: {type(handle).__name__}")

    @staticmethod
    def is_swap_proxy(value: Any) -> bool:
        return is_proxy(value)

    @staticmethod
    def resolve(handle: Any) -> Any:
        """The raw target behind ``handle`` (swapping it in if needed).

        Bypasses mediation — the returned raw reference is only safe to
        use while the target's swap-cluster stays resident (pin it, or
        prefer keeping the proxy).
        """
        if not is_proxy(handle):
            return handle
        target = handle._obi_target
        if getattr(type(target), "_obi_is_replacement", False):
            handle._obi_space._manager.swap_in(handle._obi_target_sid)
            target = handle._obi_target
        return target

    @staticmethod
    def source_sid(proxy: Any) -> int:
        return proxy._obi_source_sid

    @staticmethod
    def target_sid(proxy: Any) -> int:
        return proxy._obi_target_sid
