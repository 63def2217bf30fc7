"""Swap-cluster-proxy behaviour (the paper's generated proxy classes).

A swap-cluster-proxy mediates **every** reference between objects in
different swap-clusters.  Unlike replication proxies (discarded once the
target is replicated), "a special proxy always remains in the way"
(Section 1).  Generated subclasses (see
:func:`repro.runtime.obicomp.compile_proxy_class`) add one forwarding
method per public method of the application class, each compiled from
the one interception template, the paper's generated "code excerpt that
verifies references being passed as parameters and return values"
(Section 4).  They derive from :class:`GeneratedProxyBase`, which holds
one generated accessor per attribute name that any managed class or
instance has had: field reads, non-public methods, properties and class
attributes.  No proxy class defines ``__getattr__``, so CPython
specialises the attribute loads of every forwarder and every method
lookup on a proxy; a name without an accessor fails at once, without a
crossing or a swap-in.  :class:`SwapClusterProxyBase` holds the proxy's
slots, field writes and identity; with the templates it implements:

* resolve the target, transparently swapping the cluster back in when the
  proxy finds a replacement-object in the way;
* translate arguments *into* the target cluster and results *out* to the
  source cluster, applying the paper's three rules — (i) wrap raw
  cross-cluster references in new proxies, (ii) hand off/reuse existing
  proxies, (iii) dismantle proxies that point back into the receiving
  cluster;
* record boundary-crossing statistics (recency/frequency) on the target
  swap-cluster;
* enforce object identity by overloading equality (the C# ``operator==``
  overload of Section 4 maps onto ``__eq__``/``__hash__``);
* support the iteration optimisation (*assign mode*): a marked proxy
  patches itself to the next returned reference instead of minting a new
  proxy per step.
"""

from __future__ import annotations

from typing import Any

_object_setattr = object.__setattr__

#: Result types that never need translation (fast path for quasi-empty
#: methods returning counters, flags or text).
_ATOMIC_RESULTS = frozenset(
    {int, float, str, bool, bytes, type(None)}
)


class SwapClusterProxyBase:
    """Shared behaviour of every generated swap-cluster-proxy class."""

    __slots__ = (
        "_obi_space",
        "_obi_source_sid",
        "_obi_target_sid",
        "_obi_target_oid",
        "_obi_target",
        "_obi_cluster",
        "_obi_assign_mode",
        "__weakref__",
    )

    #: Structural marker checked throughout the library.
    _obi_is_proxy = True
    #: Overridden by generated subclasses with the application class.
    _obi_target_class: type | None = None

    def __init__(self) -> None:
        raise TypeError(
            "swap-cluster-proxies are created by the middleware "
            "(Space._mint), never directly"
        )

    # -- ISwapClusterProxy ----------------------------------------------------

    def _obi_patch(self, new_target: Any) -> None:
        """Point at a new target instance (same oid: swap-in repatching)."""
        set_target(self, new_target)

    def _obi_detach(self, replacement: Any) -> None:
        """Detach from the live object; the replacement stands in."""
        set_target(self, replacement)

    def _obi_same_object(self, other: Any) -> bool:
        result = self.__eq__(other)
        return result is True

    # -- transparent field access ----------------------------------------------
    #
    # There is no ``__getattr__``: with one, CPython does not specialise
    # attribute loads on the class, so every forwarder's slot reads and
    # every method lookup on a proxy would take the generic path.  Reads
    # go through the accessors of :class:`GeneratedProxyBase` instead.

    def __setattr__(self, name: str, value: Any) -> None:
        if name.startswith("_obi_"):
            _object_setattr(self, name, value)
            return
        space = self._obi_space
        target = self._obi_target
        if getattr(target.__class__, "_obi_is_replacement", False):
            space._manager.swap_in(self._obi_target_sid)
            target = self._obi_target
        tick = space._tick + 1
        space._tick = tick
        cluster = self._obi_cluster
        cluster.crossings += 1
        cluster.last_crossing_tick = tick
        setattr(target, name, space._translate(value, self._obi_target_sid))

    # -- identity (paper §4, "Enforcing Object Identity") ------------------------

    def __eq__(self, other: Any) -> Any:
        if other is self:
            return True
        other_cls = type(other)
        if getattr(other_cls, "_obi_is_proxy", False):
            return self._obi_target_oid == other._obi_target_oid
        if getattr(other_cls, "_obi_managed", False):
            other_oid = getattr(other, "_obi_oid", None)
            return other_oid is not None and other_oid == self._obi_target_oid
        return NotImplemented

    def __ne__(self, other: Any) -> Any:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(self._obi_target_oid)

    def __repr__(self) -> str:
        target_class = self._obi_target_class
        class_name = target_class.__name__ if target_class else "?"
        state = (
            "swapped"
            if getattr(self._obi_target.__class__, "_obi_is_replacement", False)
            else "resident"
        )
        return (
            f"<swap-proxy {class_name} oid={self._obi_target_oid} "
            f"{self._obi_source_sid}->{self._obi_target_sid} {state}>"
        )


class GeneratedProxyBase(SwapClusterProxyBase):
    """The base of every generated proxy class: one accessor per name.

    Each attribute name a managed class or instance has had gets a
    getter-only ``property`` here, compiled from the accessor template
    (:func:`repro.runtime.obicomp.register_accessors`), so one accessor
    serves every proxy class.  A name that has none raises
    ``AttributeError`` at once: no crossing is recorded and nothing is
    swapped in.
    """

    __slots__ = ()


# Slot setters: each slot's member descriptor ``__set__``, bound once.  A
# slot write through one of these skips ``object.__setattr__``'s generic
# attribute lookup; it is the only way the middleware writes a proxy slot.
_SLOTS = SwapClusterProxyBase.__dict__
set_space = _SLOTS["_obi_space"].__set__
set_source_sid = _SLOTS["_obi_source_sid"].__set__
set_target_sid = _SLOTS["_obi_target_sid"].__set__
set_target_oid = _SLOTS["_obi_target_oid"].__set__
set_target = _SLOTS["_obi_target"].__set__
set_cluster = _SLOTS["_obi_cluster"].__set__
set_assign_mode = _SLOTS["_obi_assign_mode"].__set__
