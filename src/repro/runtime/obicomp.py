"""``obicomp``: decorate application classes and compile proxy classes.

The paper's OBIWAN compiler generates, per application class ``A``:

* a swap-cluster-proxy class implementing (i) ``ISwapClusterProxy``
  (``patch``, ``detach``, identity helpers) and (ii) the public interface
  ``IA`` of ``A``, where every generated method intercepts references
  crossing swap-cluster boundaries and delegates to the actual replica;
* class-extension code in ``A`` itself (registration, serialization
  support).

Here, :func:`managed` is the decoration entry point ("compiling" the
class), and :func:`compile_proxy_class` builds the proxy class from the
extracted :class:`~repro.runtime.classext.ClassSchema`.  Proxy classes are
cached per registry.
"""

from __future__ import annotations

import functools
import keyword
from typing import Any, Callable, Optional, Tuple, Type, TypeVar, overload

from repro.runtime.barrier import install_write_barrier, is_readonly_method
from repro.runtime.classext import extract_schema
from repro.runtime.registry import TypeRegistry, global_registry

T = TypeVar("T", bound=type)


@overload
def managed(cls: T) -> T: ...


@overload
def managed(
    *, size: int | None = None, registry: TypeRegistry | None = None
) -> Callable[[T], T]: ...


def managed(
    cls: Optional[T] = None,
    *,
    size: int | None = None,
    registry: TypeRegistry | None = None,
):
    """Mark an application class as OBIWAN-managed.

    Usage::

        @managed
        class Album: ...

        @managed(size=64)          # pin the accounted per-instance size
        class ListNode: ...

    The decorator extracts the class schema, registers the class (by
    qualified name) so the XML codec can resolve it, and makes instances
    eligible for adoption into a :class:`~repro.core.space.Space`.
    """

    def decorate(klass: T) -> T:
        if "__slots__" in klass.__dict__:
            raise TypeError(
                f"@managed class {klass.__name__} must not define __slots__: "
                f"the middleware stores per-instance bookkeeping "
                f"(_obi_oid, _obi_sid, _obi_space) in the instance dict"
            )
        schema = extract_schema(klass, size_hint=size)
        install_write_barrier(klass)
        klass._obi_managed = True  # type: ignore[attr-defined]
        klass._obi_size_hint = size  # type: ignore[attr-defined]
        klass._obi_schema = schema  # type: ignore[attr-defined]
        target_registry = registry if registry is not None else global_registry()
        target_registry.register(klass, schema)
        return klass

    if cls is not None:
        return decorate(cls)
    return decorate


def _make_forwarding_method(cls: Type[Any], name: str) -> Callable[..., Any]:
    """Generate the proxy-side forwarder for one public method.

    Like the paper's obicomp, the generated code matches the concrete
    method signature: a plain positional signature gets an exact-arity
    forwarder (no *args/**kwargs packing on the invocation fast path); a
    complex signature gets the generic ``*args, **kwargs`` forwarder.
    Both are compiled from the same template.
    """
    import inspect

    target = getattr(cls, name, None)
    exact_params: Optional[list] = None
    if target is not None:
        try:
            signature = inspect.signature(target)
        except (TypeError, ValueError):
            signature = None
        if signature is not None:
            exact_params = []
            for parameter in list(signature.parameters.values())[1:]:  # skip self
                if (
                    parameter.kind
                    not in (
                        inspect.Parameter.POSITIONAL_ONLY,
                        inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    )
                    or parameter.default is not inspect.Parameter.empty
                ):
                    exact_params = None
                    break
                exact_params.append(parameter.name)

    # the template's own locals all start with "_": a parameter that does
    # too, or a dunder method, takes the generic forwarder
    exact = (
        exact_params is not None
        and _is_plain_name(name)
        and not name.startswith("__")
        and all(
            _is_plain_name(parameter) and not parameter.startswith("_")
            for parameter in exact_params
        )
    )
    return compile_forwarder(
        name,
        tuple(exact_params) if exact else None,
        is_readonly_method(cls, name),
    )


def _is_plain_name(name: str) -> bool:
    return name.isidentifier() and not keyword.iskeyword(name)


# The one interception body, generated per method exactly as the paper's
# obicomp emits "a similar code excerpt that verifies references being
# passed as parameters and return values" into every proxy method:
# resolve the target (transparently swapping the cluster back in), record
# the boundary crossing, translate non-atomic arguments into the target
# cluster, invoke the replica, and translate the result out.  A result
# whose class the space already has a proxy class for is a managed object
# and is mediated inline: in assign mode the proxy patches itself to it
# (paper §4, "Optimizing Code for Iterations"), otherwise it gets the
# canonical pair proxy, minted from the value and sid in hand.  Every
# other result goes through ``Space._translate_return``, which mediates
# the same way.
_FORWARDER_TEMPLATE = """\
def {def_name}(self{params}):
    _space = self._obi_space
    _target = self._obi_target
    if _target.__class__ is _Replacement:
        _space._manager.swap_in(self._obi_target_sid)
        _target = self._obi_target
    _tick = _space._tick + 1
    _space._tick = _tick
    _cluster = self._obi_cluster
    _cluster.crossings += 1
    _cluster.last_crossing_tick = _tick
{mark_dirty}\
{arg_translations}\
    _result = {method}({args})
    _result_class = _result.__class__
    if _result_class in _ATOMIC:
        return _result
    if self._obi_assign_mode:
        if _result_class in _space._proxy_classes:
            _value_sid = _getattr(_result, "_obi_sid", None)
            if _value_sid is not None and _result._obi_space is _space:
                if _value_sid == self._obi_source_sid:
                    return _result
                _set_target_oid(self, _result._obi_oid)
                _set_target(self, _result)
                if _value_sid != self._obi_target_sid:
                    _space._move_patch_bucket(self, self._obi_target_sid, _value_sid)
                return self
    elif _result_class in _space._proxy_classes:
        _value_sid = _getattr(_result, "_obi_sid", None)
        if _value_sid is not None and _result._obi_space is _space:
            _source_sid = self._obi_source_sid
            if _value_sid == _source_sid:
                return _result
            return _space._proxy_for(
                _source_sid, _result._obi_oid, _value_sid, _result
            )
    return _space._translate_return(_result, self)
"""

# Exact-arity argument translation, one block per parameter.
_ARG_TRANSLATION = (
    "    if {arg}.__class__ not in _ATOMIC:\n"
    "        if {arg}.__class__ in _MUTABLE:\n"
    "            _src = _space._clusters.get(self._obi_source_sid)\n"
    "            if _src is not None and not _src.dirty_all:\n"
    "                _src.mark_dirty()\n"
    "        {arg} = _space._translate({arg}, self._obi_target_sid)\n"
)

# Generic argument translation.  A mutable container handed across the
# boundary may later be mutated by the callee: invalidate the *source*
# cluster too.
_VARARGS_TRANSLATION = """\
    if args or kwargs:
        for _value in (*args, *kwargs.values()) if kwargs else args:
            if _value.__class__ in _MUTABLE:
                _src = _space._clusters.get(self._obi_source_sid)
                if _src is not None and not _src.dirty_all:
                    _src.mark_dirty()
                break
        _to_sid = self._obi_target_sid
        if args:
            args = tuple([_space._translate(_value, _to_sid) for _value in args])
        if kwargs:
            kwargs = {
                _key: _space._translate(_value, _to_sid)
                for _key, _value in kwargs.items()
            }
"""

# Conservative dirty-tracking: a non-@readonly method may mutate its
# target cluster; the write barrier catches field writes, this catches
# in-place container mutation the barrier cannot see.
_MARK_DIRTY = (
    "    if not _cluster.dirty_all:\n"
    "        _cluster.mark_dirty()\n"
)


@functools.lru_cache(maxsize=None)
def compile_forwarder(
    name: str, params: Optional[Tuple[str, ...]], readonly: bool
) -> Callable[..., Any]:
    """Compile the forwarder of method ``name``.

    ``params`` names an exact-arity signature; ``None`` gives the generic
    ``*args, **kwargs`` forwarder, which generated classes use for
    complex signatures and ``__getattr__`` hands out for non-public
    methods.  A ``readonly`` method does not mark its target dirty.
    """
    from repro.core.replacement import ReplacementObject
    from repro.core.swap_proxy import _ATOMIC_RESULTS, set_target, set_target_oid
    from repro.runtime.barrier import MUTABLE_CONTAINERS

    if params is None:
        params_text, args, arg_translations = (
            ", *args, **kwargs", "*args, **kwargs", _VARARGS_TRANSLATION
        )
    else:
        params_text = "".join(f", {parameter}" for parameter in params)
        args = ", ".join(params)
        arg_translations = "".join(
            _ARG_TRANSLATION.format(arg=parameter) for parameter in params
        )
    plain = _is_plain_name(name)
    source = _FORWARDER_TEMPLATE.format(
        def_name=name if plain else "forwarder",
        params=params_text,
        method=f"_target.{name}" if plain else f"_getattr(_target, {name!r})",
        args=args,
        mark_dirty="" if readonly else _MARK_DIRTY,
        arg_translations=arg_translations,
    )
    namespace: dict[str, Any] = {
        "_Replacement": ReplacementObject,
        "_ATOMIC": _ATOMIC_RESULTS,
        "_MUTABLE": MUTABLE_CONTAINERS,
        "_set_target": set_target,
        "_set_target_oid": set_target_oid,
        "_getattr": getattr,
    }
    exec(source, namespace)  # noqa: S102 - generated forwarder, fixed template
    method = namespace[name if plain else "forwarder"]
    method.__name__ = name
    method.__qualname__ = name
    method.__doc__ = f"Generated swap-cluster-proxy forwarder for {name!r}."
    return method


def compile_proxy_class(cls: Type[Any]) -> Type[Any]:
    """Generate the swap-cluster-proxy class for application class ``cls``.

    The generated class subclasses
    :class:`repro.core.swap_proxy.SwapClusterProxyBase` and adds one
    forwarding method per public method of ``cls``.  Field reads/writes
    are intercepted by the base class via ``__getattr__``/``__setattr__``.
    """
    # Imported here: core depends on runtime for schemas, so the reverse
    # dependency must stay out of module import time.
    from repro.core.swap_proxy import SwapClusterProxyBase

    schema = getattr(cls, "_obi_schema", None)
    if schema is None:
        raise TypeError(f"{cls!r} is not a @managed class")

    namespace: dict[str, Any] = {
        # keep generated proxies dict-free: all state lives in the base
        # class slots, which keeps per-proxy footprint and creation cost low
        "__slots__": (),
        "_obi_target_class": cls,
        "__module__": cls.__module__,
        "__doc__": (
            f"Generated swap-cluster-proxy for {schema.name} "
            f"(implements: {', '.join(schema.public_methods) or 'fields only'})."
        ),
    }
    for method_name in schema.public_methods:
        namespace[method_name] = _make_forwarding_method(cls, method_name)

    proxy_name = f"{cls.__name__}SwapProxy"
    return type(proxy_name, (SwapClusterProxyBase,), namespace)


# Install the compiler on the global registry at import time; isolated
# registries created by tests get it explicitly.
global_registry().set_proxy_compiler(compile_proxy_class)


def ensure_compiler(registry: TypeRegistry) -> TypeRegistry:
    """Install the proxy compiler on ``registry`` and return it."""
    registry.set_proxy_compiler(compile_proxy_class)
    return registry
