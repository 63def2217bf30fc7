"""Class schema extraction (the "class extension code" of OBIWAN).

A :class:`ClassSchema` records what the generated swap-cluster-proxy class
needs to know about an application class: its public methods (the
interface the proxy must implement, e.g. ``IA`` for class ``A`` in the
paper) and its declared fields (used by the XML codec and size model).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple, Type

from repro.errors import NotManagedError


@dataclass(frozen=True)
class ClassSchema:
    """Reflection summary of one managed application class."""

    cls: Type[Any]
    name: str
    public_methods: Tuple[str, ...]
    declared_fields: Tuple[str, ...]
    size_hint: int | None = None

    def describe(self) -> str:
        return (
            f"{self.name}: methods={list(self.public_methods)}, "
            f"fields={list(self.declared_fields)}, size_hint={self.size_hint}"
        )


# Methods that must never be proxied by generated code: proxy identity and
# lifecycle are handled by the proxy base class itself.
_EXCLUDED_METHODS = frozenset(
    {
        "__init__",
        "__new__",
        "__eq__",
        "__ne__",
        "__hash__",
        "__repr__",
        "__str__",
        "__getattr__",
        "__setattr__",
        "__delattr__",
        "__reduce__",
        "__reduce_ex__",
        "__getstate__",
        "__setstate__",
        "__init_subclass__",
        "__subclasshook__",
        "__class_getitem__",
    }
)

# Dunder protocol methods that the proxy *should* forward so container-like
# managed classes remain usable through a proxy.
_FORWARDED_DUNDERS = (
    "__len__",
    "__getitem__",
    "__setitem__",
    "__delitem__",
    "__contains__",
    "__iter__",
    "__next__",
    "__call__",
    "__bool__",
)


def public_method_names(cls: Type[Any]) -> List[str]:
    """Names of methods the generated proxy must implement.

    Follows the paper's rule: the proxy implements "the interface
    containing the public methods of the type class".  Public means: not
    underscore-prefixed, defined as a plain function/property-free method
    anywhere in the MRO (excluding ``object``), plus a small set of
    forwarded container dunders if the class defines them.
    """
    names: List[str] = []
    seen = set()
    for klass in cls.__mro__:
        if klass is object:
            continue
        for name, member in vars(klass).items():
            if name in seen:
                continue
            seen.add(name)
            if name in _EXCLUDED_METHODS:
                continue
            if name.startswith("_") and name not in _FORWARDED_DUNDERS:
                continue
            if isinstance(member, (staticmethod, classmethod)):
                continue
            if inspect.isfunction(member):
                names.append(name)
    return sorted(names)


def declared_field_names(cls: Type[Any]) -> List[str]:
    """Field names declared via class annotations (best effort).

    The codec falls back to the live instance ``__dict__`` so undeclared
    fields still serialize; declarations mainly drive documentation.
    Proxies do not depend on them: every field name gets its proxy
    accessor when it is first written, adopted or decoded
    (:func:`repro.runtime.obicomp.register_accessors`).
    """
    names: List[str] = []
    for klass in reversed(cls.__mro__):
        for name in getattr(klass, "__annotations__", {}):
            if not name.startswith("_") and name not in names:
                names.append(name)
    return names


def extract_schema(cls: Type[Any], size_hint: int | None = None) -> ClassSchema:
    return ClassSchema(
        cls=cls,
        name=cls.__qualname__,
        public_methods=tuple(public_method_names(cls)),
        declared_fields=tuple(declared_field_names(cls)),
        size_hint=size_hint,
    )


def is_managed(obj: Any) -> bool:
    """True for instances of ``@managed`` application classes."""
    return getattr(type(obj), "_obi_managed", False)


def is_proxy(obj: Any) -> bool:
    """True for swap-cluster-proxy instances."""
    return getattr(type(obj), "_obi_is_proxy", False)


def schema_of(obj_or_cls: Any) -> ClassSchema:
    cls = obj_or_cls if isinstance(obj_or_cls, type) else type(obj_or_cls)
    schema = getattr(cls, "_obi_schema", None)
    if schema is None:
        raise NotManagedError(f"{cls!r} is not a @managed class")
    return schema


def instance_fields(obj: Any) -> Dict[str, Any]:
    """The serializable field map of a managed instance.

    Internals (``_obi_*``) are excluded; other underscore-prefixed fields
    are kept — they are application state and must survive a swap cycle.
    """
    return {
        name: value
        for name, value in vars(obj).items()
        if name[:1] != "_" or not name.startswith("_obi_")
    }
