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
cached per registry.  Field reads and every other name without a
forwarder go through accessors compiled from a second template and
shared by all proxy classes (:func:`register_accessors`).  The
serialization support is one encoder and one decoder per object shape,
compiled from two more templates (:func:`compile_encoder`,
:func:`compile_decoder`).
"""

from __future__ import annotations

import functools
import inspect
import keyword
from types import MethodType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Type,
    TypeVar,
    overload,
)

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

    The class it returns is ``cls`` rebuilt under :class:`ManagedClass`,
    so that a class attribute set later still gets its proxy accessor.
    """

    def decorate(klass: T) -> T:
        if "__slots__" in klass.__dict__:
            raise TypeError(
                f"@managed class {klass.__name__} must not define __slots__: "
                f"the middleware stores per-instance bookkeeping "
                f"(_obi_oid, _obi_sid, _obi_space) in the instance dict"
            )
        klass = _as_managed_class(klass)
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


class ManagedClass(type):
    """The metaclass of every ``@managed`` class.

    Every name in ``vars`` of a managed class and of its bases other
    than ``object`` (methods of any kind, properties, class constants)
    gets its proxy accessor when the class is made, and a class
    attribute set later (a method patched in, a constant added) gets one
    when it is set, as a field written for the first time does in the
    write barrier.
    """

    def __init__(
        cls, name: str, bases: Tuple[type, ...], namespace: dict, **kwargs: Any
    ) -> None:
        super().__init__(name, bases, namespace, **kwargs)
        for klass in cls.__mro__[:-1]:  # all but object
            register_accessors(vars(klass))

    def __setattr__(cls, name: str, value: Any) -> None:
        type.__setattr__(cls, name, value)
        if name not in ACCESSOR_NAMES:
            register_accessors((name,))
        if name == "_obi_schema":
            # compiled encoders hold the class name of the schema
            SHAPE_ENCODERS.clear()


def _as_managed_class(klass: T) -> T:
    """``klass`` itself if it already is a :class:`ManagedClass`, else
    ``klass`` rebuilt from its namespace under one.

    Zero-argument ``super()`` in the methods of ``klass`` keeps working:
    every closure cell that holds ``klass`` is pointed at the rebuilt
    class.  Rebuilding runs the bases' ``__init_subclass__`` and the
    ``__set_name__`` of descriptors in the namespace again.
    """
    if isinstance(klass, ManagedClass):
        return klass
    meta = type(klass)
    meta = ManagedClass if meta is type else _managed_metaclass(meta)
    namespace = dict(vars(klass), __qualname__=klass.__qualname__)
    # the instance __dict__/__weakref__ descriptors belong to ``klass``
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    rebuilt = meta(klass.__name__, klass.__bases__, namespace)
    for value in namespace.values():
        for function in _functions_of(value):
            for cell in function.__closure__ or ():
                try:
                    held = cell.cell_contents
                except ValueError:  # an empty cell
                    continue
                if held is klass:
                    cell.cell_contents = rebuilt
    return rebuilt


@functools.lru_cache(maxsize=None)
def _managed_metaclass(meta: type) -> type:
    """:class:`ManagedClass` combined with another metaclass."""
    return type(f"Managed{meta.__name__}", (ManagedClass, meta), {})


def _functions_of(value: Any) -> Iterable[Any]:
    """The plain functions a class-namespace entry holds: itself, the
    function of a static or class method, the accessors of a property,
    and whatever they wrap."""
    pending = [value]
    while pending:
        value = pending.pop()
        if isinstance(value, (staticmethod, classmethod)):
            pending.append(value.__func__)
        elif isinstance(value, property):
            pending.extend(
                part for part in (value.fget, value.fset, value.fdel) if part is not None
            )
        elif inspect.isfunction(value):
            yield value
            wrapped = getattr(value, "__wrapped__", None)
            if wrapped is not None:
                pending.append(wrapped)


def _make_forwarding_method(cls: Type[Any], name: str) -> Callable[..., Any]:
    """Generate the proxy-side forwarder for one public method.

    Like the paper's obicomp, the generated code matches the concrete
    method signature: a plain positional signature gets an exact-arity
    forwarder (no *args/**kwargs packing on the invocation fast path); a
    complex signature gets the generic ``*args, **kwargs`` forwarder.
    Both are compiled from the same template.
    """
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
    complex signatures and the attribute accessors hand out for
    non-public methods.  A ``readonly`` method does not mark its target
    dirty.
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


# The attribute accessor of one name: the field read and non-public
# method lookup of a proxy.  Like a forwarder it resolves the target
# (swapping the cluster back in) and records the boundary crossing; a
# method bound to the target comes back as the generic forwarder bound
# to the proxy, so its arguments and result are still translated, and
# any other value is mediated by ``Space._translate_return``.
_ACCESSOR_TEMPLATE = """\
def accessor(self):
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
    _value = {read}
    if _value.__class__ in _ATOMIC:
        return _value
    if _callable(_value) and _getattr(_value, "__self__", None) is _target:
        return _MethodType(
            _compile_forwarder({name!r}, None, _is_readonly(_target.__class__, {name!r})),
            self,
        )
    return _space._translate_return(_value, self)
"""


def compile_accessor(name: str) -> Callable[[Any], Any]:
    """Compile the getter of the proxy accessor for attribute ``name``."""
    from repro.core.replacement import ReplacementObject
    from repro.core.swap_proxy import _ATOMIC_RESULTS

    plain = _is_plain_name(name) and not name.startswith("__")
    source = _ACCESSOR_TEMPLATE.format(
        name=name,
        read=f"_target.{name}" if plain else f"_getattr(_target, {name!r})",
    )
    namespace: dict[str, Any] = {
        "_Replacement": ReplacementObject,
        "_ATOMIC": _ATOMIC_RESULTS,
        "_MethodType": MethodType,
        "_compile_forwarder": compile_forwarder,
        "_is_readonly": is_readonly_method,
        "_callable": callable,
        "_getattr": getattr,
    }
    exec(source, namespace)  # noqa: S102 - generated accessor, fixed template
    getter = namespace["accessor"]
    getter.__name__ = name
    getter.__qualname__ = name
    getter.__doc__ = f"Generated swap-cluster-proxy accessor for {name!r}."
    return getter


#: Every attribute name :func:`register_accessors` has seen, with or
#: without an accessor: a name in here costs its registration sites one
#: set lookup and nothing more.
ACCESSOR_NAMES: Set[str] = set()


def register_accessors(names: Iterable[str]) -> None:
    """Give every generated proxy class an accessor for each new name.

    Idempotent.  A proxy has no ``__getattr__``: a name reads through a
    proxy only once it has an accessor, a getter-only ``property`` on
    :class:`repro.core.swap_proxy.GeneratedProxyBase`.  Names reach here
    from every place a managed class or instance gets one: the class and
    its bases when it is made and a class attribute set later
    (:class:`ManagedClass`), the write barrier, :meth:`Space.adopt
    <repro.core.space.Space.adopt>` and the decoder of stored documents.
    Dunder and ``_obi_`` names get none; writes never use one, they go
    through the proxy's ``__setattr__``.
    """
    base = None
    for name in names:
        if name in ACCESSOR_NAMES:
            continue
        ACCESSOR_NAMES.add(name)
        if (
            type(name) is not str
            or name.startswith("_obi_")
            or name.startswith("__") and name.endswith("__")
        ):
            continue
        if base is None:
            # core depends on runtime: imported on first use
            from repro.core.swap_proxy import GeneratedProxyBase as base
        setattr(base, name, property(compile_accessor(name)))


def compile_proxy_class(cls: Type[Any]) -> Type[Any]:
    """Generate the swap-cluster-proxy class for application class ``cls``.

    The generated class subclasses
    :class:`repro.core.swap_proxy.GeneratedProxyBase` and adds one
    forwarding method per public method of ``cls``; a forwarder wins
    over the shared accessor of the same name.  Field reads, non-public
    methods, properties, class constants and static and class methods go
    through the accessors that :func:`register_accessors` put on the
    base; writes go through its ``__setattr__``.
    """
    # Imported here: core depends on runtime for schemas, so the reverse
    # dependency must stay out of module import time.
    from repro.core.swap_proxy import GeneratedProxyBase

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
    return type(proxy_name, (GeneratedProxyBase,), namespace)


# -- class-extension code: the swap-cluster codec ----------------------------
#
# The paper's obicomp also generates "serialization support" into each
# application class.  Here that is one encoder and one decoder per object
# *shape*, compiled from the two templates below.  The codec
# (:mod:`repro.wire.xmlcodec`, :mod:`repro.wire.scan`) looks them up in,
# and adds them to, the two caches here.

#: ``(class, keys of an instance dict in order)`` -> compiled encoder
SHAPE_ENCODERS: Dict[Tuple[type, Tuple[Any, ...]], Callable[..., str]] = {}
#: ``(match, fill)``: ``match(text, pos, end)`` matches one member at
#: ``pos`` (group 1 is its oid); ``fill(match, instance.__dict__,
#: instances, resolve, resolve_out, oid)`` writes its fields
MemberDecoder = Tuple[Callable[..., Any], Callable[..., None]]
#: class name as written -> the member decoder of the newest field-name
#: run read for it
SHAPE_DECODERS: Dict[str, MemberDecoder] = {}
#: ``(class name as written, field-name run)`` -> its member decoder, so
#: a class whose members alternate between shapes compiles each shape once
RUN_DECODERS: Dict[Tuple[str, Tuple[str, ...]], MemberDecoder] = {}
#: a shape cache holding more entries than this is cleared
SHAPE_CACHE_LIMIT = 4096

# The encoder of one shape.  The ``<object>`` head and every
# ``<field name="…">`` are constants in its return expression; ``_obi_*``
# keys are unpacked into ``_`` and never written.  Per field, an exact
# int, None and a member of the document (``_local``: id -> oid) are
# written inline, and any other value by ``emit_value``.
_ENCODER_TEMPLATE = """\
def encode(_oid, _values, _classify, _local):
{unpack}\
{fields}\
    return {markup}
"""

_ENCODE_FIELD = """\
    if type({value}) is int:
        {value} = f"<int>{{{value}}}</int>"
    elif {value} is None:
        {value} = "<none/>"
    else:
        _ref = _local.get(id({value}))
        if _ref is None:
            _parts = []
            _emit_value(_parts, {value}, _classify)
            {value} = "".join(_parts)
        else:
            {value} = f'<ref oid="{{_ref}}"/>'
"""


def compile_encoder(class_name: str, keys: Tuple[Any, ...]) -> Callable[..., str]:
    """Compile the encoder of instances of ``class_name`` whose dict has
    ``keys``, in that order.

    The encoder is called as ``encode(oid, vars(obj).values(), classify,
    local_oids)`` and returns the member's canonical ``<object>``
    element.  A field name XML cannot carry raises
    :class:`~repro.errors.CodecError` here, before any member is written.
    """
    from repro.wire.canonical import _escape_attr
    from repro.wire.wrappers import emit_value, named_open_tag

    targets: List[str] = []
    fields: List[str] = []
    markup = [_braced(f'<object class="{_escape_attr(class_name)}" oid="'), "{_oid}"]
    for index, key in enumerate(keys):
        if key[:1] == "_" and key.startswith("_obi_"):
            targets.append("_")
            continue
        value = f"_v{index}"
        targets.append(value)
        fields.append(_ENCODE_FIELD.format(value=value))
        markup += [_braced(named_open_tag("field", key)), f"{{{value}}}", "</field>"]
    if fields:
        markup.insert(2, '">')
        markup.append("</object>")
        unpack = f"    {', '.join(targets)}, = _values\n"
    else:
        markup.append('"/>')
        unpack = ""
    source = _ENCODER_TEMPLATE.format(
        unpack=unpack, fields="".join(fields), markup="f" + repr("".join(markup))
    )
    namespace: Dict[str, Any] = {"_emit_value": emit_value}
    exec(source, namespace)  # noqa: S102 - generated encoder, fixed template
    encode = namespace["encode"]
    encode.__qualname__ = f"encode<{class_name}>"
    return encode


def _braced(text: str) -> str:
    """``text`` as the literal part of an f-string."""
    return text.replace("{", "{{").replace("}", "}}")


# The decoder of one shape is a pair.  Its *matcher* is one anchored
# regex over a whole member: the literal ``<object class="…" oid="``
# head, the oid, then per field six alternatives (int, ref, none, outref,
# literal str, any other value), then ``</object>``.  Its *filler* writes
# the value of each field of a matched member into the instance dict in
# document order.  The last alternative never starts where one of the
# five typed ones would, and never runs past a ``</field>``, so at most
# one alternative fits each field and a failed match costs time linear
# in the member: with overlapping alternatives, Python's backtracking re
# would retry every split of the fields before the failure, 2**n tries.
_FILLER_TEMPLATE = """\
def fill(_match, _slots, _instances, _resolve, _resolve_out, _oid):
    _, {groups}, = _match.groups()
{fields}\
"""

_DECODE_FIELD = """\
    if _i{n} is not None:
        _slots[{name!r}] = int(_i{n})
    elif _r{n} is not None:
        _target = _instances.get(int(_r{n}))
        if _target is None:
            _resolve("local", int(_r{n}))  # raises: dangling
        _slots[{name!r}] = _target
    elif _n{n} is not None:
        _slots[{name!r}] = None
    elif _o{n} is not None:
        _slots[{name!r}] = _resolve_out(int(_o{n}))
    elif _s{n} is not None:
        if not _s{n}.isascii() and _text_ok(_s{n}) is None:
            raise _NotCanonical("non-canonical text in <str>")
        _slots[{name!r}] = _s{n} if "&" not in _s{n} else _unescape(_s{n})
    else:
        _slots[{name!r}] = _field_value(_x{n}, _resolve, _oid)
"""


def _no_fields(_match: Any, *_args: Any) -> None:
    """The filler of a field-less (self-closing) member."""


def compile_decoder(class_name: str, names: Tuple[str, ...]) -> MemberDecoder:
    """Compile the decoder of a member of class ``class_name``, spelled
    as the document writes it (escaped), with a ``<field>`` run naming
    ``names`` in order; a member with no fields is self-closing.

    Only ASCII digits read as numbers.
    """
    import re

    from repro.wire.scan import (
        _LATIN_TEXT,
        _TEXT_OK,
        NotCanonical,
        _field_value,
        unescape,
    )
    from repro.wire.wrappers import named_open_tag

    head = re.escape(f'<object class="{class_name}" oid="') + '(-?[0-9]+)"'
    if not names:
        return re.compile(head + "/>").match, _no_fields
    value = (
        r'(?:<int>(-?[0-9]+)</int>|<ref oid="([0-9]+)"/>|(<none/>)'
        rf'|<outref index="([0-9]+)"/>|<str>({_LATIN_TEXT})</str>'
        # any other value (it holds no "</field>"), not a typed one
        r"|(?!<(?:int>|ref |none/>|outref |str>))"
        r"([^<]*(?:<(?!/field>)[^<]*)*))</field>"
    )
    pattern = "".join(
        re.escape(named_open_tag("field", name)) + value for name in names
    )
    source = _FILLER_TEMPLATE.format(
        groups=", ".join(
            f"_{kind}{n}" for n in range(len(names)) for kind in "irnosx"
        ),
        fields="".join(
            _DECODE_FIELD.format(n=n, name=name) for n, name in enumerate(names)
        ),
    )
    namespace: Dict[str, Any] = {
        "_unescape": unescape,
        "_text_ok": _TEXT_OK.fullmatch,
        "_NotCanonical": NotCanonical,
        "_field_value": _field_value,
    }
    exec(source, namespace)  # noqa: S102 - generated filler, fixed template
    fill = namespace["fill"]
    fill.__qualname__ = f"fill<{class_name}>"
    return re.compile(f"{head}>{pattern}</object>").match, fill


# Install the compiler on the global registry at import time; isolated
# registries created by tests get it explicitly.
global_registry().set_proxy_compiler(compile_proxy_class)


def ensure_compiler(registry: TypeRegistry) -> TypeRegistry:
    """Install the proxy compiler on ``registry`` and return it."""
    registry.set_proxy_compiler(compile_proxy_class)
    return registry
