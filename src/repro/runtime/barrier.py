"""Mutation write barrier for managed classes (dirty tracking).

The swap fast path (see :mod:`repro.core.fastpath`) depends on knowing
whether a swap-cluster's serialized payload is still valid — i.e. that
no member object mutated since the payload was produced.  The cheapest
reliable hook Python offers is the attribute protocol itself: every
field write on a managed instance goes through ``__setattr__`` unless
deliberately bypassed with ``object.__setattr__`` (which is exactly what
the middleware uses for its own non-semantic bookkeeping writes, so
swap-in rebuilds and boundary rewrites never dirty a cluster).

:func:`install_write_barrier` is applied by :func:`repro.runtime.obicomp.
managed` at decoration time.  The installed ``__setattr__`` performs the
write first, then — only for adopted instances — records the writing
object's oid in the owning swap-cluster's *dirty object set* (the delta
swap path re-ships only those members; see ``SwapCluster.dirty_oids``).
It also gives a field name written for the first time its proxy
accessor (:func:`repro.runtime.obicomp.register_accessors`).  The
barrier costs one set lookup for the name plus one dict lookup per write
on unadopted instances and one set-membership check once an object is
already recorded, so it is safe to keep always-on.

Field writes are not the only mutations.  Containers (lists, dicts,
sets, bytearrays) mutate in place without any attribute write, so the
proxy layer marks clusters dirty *conservatively* whenever a mutable
container crosses a swap-cluster boundary, and whenever a non-read-only
method is invoked through a proxy.  :func:`readonly` lets application
classes exempt genuinely non-mutating methods from that conservative
rule; field writes inside a ``@readonly`` method are still caught by
the barrier, so a wrong annotation only leaks *container* mutations.
"""

from __future__ import annotations

from typing import Any, Callable, Type, TypeVar

_object_setattr = object.__setattr__

F = TypeVar("F", bound=Callable[..., Any])

#: Builtin containers that mutate in place, invisibly to the barrier.
MUTABLE_CONTAINERS = frozenset({list, dict, set, bytearray})


def readonly(method: F) -> F:
    """Declare a method as non-mutating for dirty-tracking purposes.

    Invoking a ``@readonly`` method through a swap-cluster-proxy does
    not mark the target cluster dirty.  Field writes performed by the
    method are still caught by the write barrier; only in-place
    container mutation inside a wrongly-annotated method would escape.
    """
    method._obi_readonly = True  # type: ignore[attr-defined]
    return method


def is_readonly_method(cls: Type[Any], name: str) -> bool:
    """True when ``cls.name`` was declared with :func:`readonly`."""
    return getattr(getattr(cls, name, None), "_obi_readonly", False)


def install_write_barrier(cls: Type[Any]) -> Type[Any]:
    """Install the dirty-tracking ``__setattr__`` on a managed class.

    Idempotent; wraps a user-defined ``__setattr__`` if the class (or a
    base other than ``object``) declares one, so custom attribute logic
    keeps working and still feeds the dirty bit.
    """
    inherited = None
    for klass in cls.__mro__:
        if klass is object:
            break
        existing = klass.__dict__.get("__setattr__")
        if existing is not None:
            if getattr(existing, "_obi_write_barrier", False):
                return cls  # barrier already active via this class or a base
            inherited = existing
            break

    # a name first written here (in ``__init__`` before adoption, later in
    # a method, or through a proxy) gets its proxy accessor
    from repro.runtime.obicomp import ACCESSOR_NAMES as names
    from repro.runtime.obicomp import register_accessors

    if inherited is None:

        def __setattr__(self: Any, name: str, value: Any) -> None:
            _object_setattr(self, name, value)
            if name.startswith("_obi_"):
                return
            if name not in names:
                register_accessors((name,))
            instance_dict = self.__dict__
            space = instance_dict.get("_obi_space")
            if space is not None:
                cluster = space._clusters.get(instance_dict.get("_obi_sid"))
                if cluster is not None and not cluster.dirty_all:
                    oid = instance_dict.get("_obi_oid")
                    if oid not in cluster.dirty_oids:
                        cluster.mark_dirty(oid)

    else:
        wrapped = inherited

        def __setattr__(self: Any, name: str, value: Any) -> None:
            wrapped(self, name, value)
            if name.startswith("_obi_"):
                return
            if name not in names:
                register_accessors((name,))
            instance_dict = getattr(self, "__dict__", None)
            if instance_dict is None:
                return
            space = instance_dict.get("_obi_space")
            if space is not None:
                cluster = space._clusters.get(instance_dict.get("_obi_sid"))
                if cluster is not None and not cluster.dirty_all:
                    oid = instance_dict.get("_obi_oid")
                    if oid not in cluster.dirty_oids:
                        cluster.mark_dirty(oid)

    __setattr__._obi_write_barrier = True  # type: ignore[attr-defined]
    cls.__setattr__ = __setattr__  # type: ignore[assignment]
    return cls
