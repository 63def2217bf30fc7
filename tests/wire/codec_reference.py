"""The interpreted member codec, kept as a test reference.

Members of a swap-cluster used to be written by a loop over
:func:`~repro.runtime.classext.instance_fields` (:func:`encode_object_element`)
and read by a loop over the ``<field>`` run of each member span with
inline fast paths for ``<int>``, ``<ref>``, ``<none/>``, literal
``<str>`` and ``<outref>`` (:func:`decode_members`).  ``src/`` now
compiles one encoder and one decoder per object shape
(:mod:`repro.runtime.obicomp`).  The bodies below are the old ones,
unchanged but for the name helpers they called, which are copied in
here without their caches: the tests hold the compiled codec to them,
byte for byte and ``__dict__`` for ``__dict__``.

One known difference: the old ``<int>`` fast path took any Unicode
digit for an ASCII one.  The encoder writes only ASCII digits, so text
that both codecs are fed here never holds another kind.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CodecError
from repro.runtime.classext import instance_fields
from repro.wire.canonical import _escape_attr
from repro.wire.scan import (
    _AVAL_OK,
    _NEVER,
    Event,
    NotCanonical,
    _read_value,
    member_fields,
    unescape,
)
from repro.wire.wrappers import emit_value

_UNWRITABLE_NAME = re.compile(
    r"[\t\n\r\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"
)

#: text that needs more than a literal read: markup, non-canonical
#: entities, characters XML cannot carry
_TEXT_SPECIAL = re.compile(rf"[<>{_NEVER}]|&(?!(?:amp|lt|gt);)")

_FIELD_OPEN = '<field name="'
_FIELD_SEP = '</field><field name="'


def _field_open(name: str) -> str:
    if _UNWRITABLE_NAME.search(name) is not None:
        raise CodecError(
            f"field name {name!r} cannot be written as swap-cluster XML"
        )
    return f'<field name="{_escape_attr(name)}">'


def _class_open(name: str) -> str:
    return f'<object class="{_escape_attr(name)}" oid="'


def encode_object_element(
    oid: int,
    obj: Any,
    classify: Callable[[Any], tuple | None],
    local_oids: Dict[int, int],
) -> str:
    schema = getattr(type(obj), "_obi_schema", None)
    if schema is None:
        raise CodecError(
            f"object oid={oid} of type {type(obj).__name__} is not @managed"
        )
    fields = instance_fields(obj)
    if not fields:
        return f'{_class_open(schema.name)}{oid}"/>'
    parts = [f'{_class_open(schema.name)}{oid}">']
    append = parts.append
    for name, value in fields.items():
        if type(value) is int:
            append(f"{_field_open(name)}<int>{value}</int></field>")
        elif value is None:
            append(f"{_field_open(name)}<none/></field>")
        else:
            ref_oid = local_oids.get(id(value))
            if ref_oid is not None:
                append(f'{_field_open(name)}<ref oid="{ref_oid}"/></field>')
            else:
                append(_field_open(name))
                emit_value(parts, value, classify)
                append("</field>")
    append("</object>")
    return "".join(parts)


def decode_members(
    events: List[Event],
    *,
    sid: int,
    declared_count: Optional[str],
    resolve_class: Callable[[str], type],
    resolve_out: Callable[[int], Any],
    resolve_extern: Optional[Callable[[Dict[str, str]], Any]],
) -> Dict[int, Any]:
    instances: Dict[int, Any] = {}
    classes: Dict[str, type] = {}
    filled: List[Tuple[int, Any, str]] = []
    for tag, oid, span, class_name in events:
        if tag != "object":
            raise CodecError(f"unexpected element <{tag}> in swap-cluster")
        cls = classes.get(class_name)
        if cls is None:
            cls = classes[class_name] = resolve_class(class_name)
        instance = instances[oid] = object.__new__(cls)
        fields = member_fields(span)
        if fields:
            filled.append((oid, instance, fields))

    if declared_count is not None and int(declared_count) != len(instances):
        raise CodecError(
            f"swap-cluster {sid}: count attribute says {declared_count} "
            f"objects, document holds {len(instances)}"
        )

    def resolve(kind: str, ident: Any) -> Any:
        if kind == "local":
            try:
                return instances[ident]
            except KeyError:
                raise CodecError(
                    f"dangling intra-cluster reference oid={ident}"
                ) from None
        if kind == "ext":
            if resolve_extern is None:
                raise CodecError(
                    "document contains <extref> but no extern resolver is "
                    "installed (is a replicator attached to this space?)"
                )
            return resolve_extern(ident)
        return resolve_out(ident)

    for oid, instance, fields in filled:
        if fields[:13] != _FIELD_OPEN or fields[-8:] != "</field>":
            raise NotCanonical(f"malformed <field> run in object oid={oid}")
        slots = instance.__dict__
        for piece in fields[13:-8].split(_FIELD_SEP):
            raw, sep, value = piece.partition('">')
            if not sep or _AVAL_OK.fullmatch(raw) is None:
                raise NotCanonical("malformed <field> tag")
            name = unescape(raw)
            kind = value[:5]
            if kind == "<int>":
                digits = value[5:-6]
                if value[-6:] == "</int>" and (
                    digits.isdigit() or digits[:1] == "-" and digits[1:].isdigit()
                ):
                    slots[name] = int(digits)
                    continue
            elif kind == "<ref ":
                digits = value[10:-3]
                if value[5:10] == 'oid="' and value[-3:] == '"/>' and digits.isdigit():
                    target = instances.get(int(digits))
                    if target is None:
                        resolve("local", int(digits))  # raises: dangling
                    slots[name] = target
                    continue
            elif kind == "<none":
                if value == "<none/>":
                    slots[name] = None
                    continue
            elif kind == "<str>":
                text = value[5:-6]
                if value[-6:] == "</str>":
                    if (
                        text.isprintable()
                        and "<" not in text
                        and ">" not in text
                        and "&" not in text
                    ):
                        slots[name] = text
                        continue
                    if _TEXT_SPECIAL.search(text) is None:
                        slots[name] = unescape(text)
                        continue
            elif kind == "<outr":
                digits = value[15:-3]
                if (
                    value[5:15] == 'ef index="'
                    and value[-3:] == '"/>'
                    and digits.isdigit()
                ):
                    slots[name] = resolve_out(int(digits))
                    continue
            result, end = _read_value(value, 0, resolve)
            if end != len(value):
                raise NotCanonical(f"malformed <field> in object oid={oid}")
            slots[name] = result
    return instances
