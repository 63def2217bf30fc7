"""Value wrapping: Python values ⇄ XML elements.

OBIWAN's communication services perform "automatic conversion of objects
into wrappers, using XML" (paper, Section 2).  This module is the value
layer: scalars, containers, and the two reference kinds.  References are
delegated to a *classifier* callback supplied by the cluster codec so the
value layer stays independent of the swapping core.

Every document is written with :func:`emit_value`, which appends a
value's canonical text (see :mod:`repro.wire.canonical`) to a list of
chunks, and :func:`emit_fields`, which writes a run of named values.
:mod:`repro.wire.scan` reads them back (``read_fields``).

Wire tags::

    <none/> <true/> <false/>
    <int>42</int> <float>1.5</float> <str>text</str> <bytes>b64</bytes>
    <list>…</list> <tuple>…</tuple> <set>…</set> <fset>…</fset>
    <dict><entry><k>…</k><v>…</v></entry>…</dict>
    <ref oid="7"/>           intra-cluster reference
    <outref index="2"/>      outbound reference (replacement-array slot)
    <extref cid=… soid=…/>   external reference (unreplicated frontier)
"""

from __future__ import annotations

import base64
import re
from typing import Any, Callable, Dict, List, Optional

from repro.errors import CodecError
from repro.wire.canonical import _escape_attr, _escape_text

# XML 1.0 cannot carry most control characters at all, and any compliant
# parser normalizes \r / \r\n to \n in text content — both would corrupt
# a swap cycle.  Strings outside the safe set travel base64-encoded
# (enc="b64"); lone surrogates are preserved via surrogatepass.
_XML_SAFE_TEXT = re.compile(
    "^[\x09\x0a\x20-퟿-�\U00010000-\U0010ffff]*$"
)


def _xml_safe(text: str) -> bool:
    return _XML_SAFE_TEXT.match(text) is not None


#: Characters no ``name="…"`` attribute can carry: XML has no form for
#: control characters, lone surrogates or U+FFFE/U+FFFF, and parsers
#: normalize raw tabs and line breaks in attribute values.
_UNWRITABLE_NAME = re.compile(
    r"[\t\n\r\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"
)


def named_open_tag(tag: str, name: str) -> str:
    """``<tag name="…">`` for ``name``.

    A name XML cannot carry raises :class:`~repro.errors.CodecError`, so
    a caller that writes all its names before shipping anything ships
    nothing that would not read back.
    """
    if _UNWRITABLE_NAME.search(name) is not None:
        raise CodecError(f"{tag} name {name!r} cannot be written as XML")
    return f'<{tag} name="{_escape_attr(name)}">'


def _str_element(value: str) -> str:
    """Canonical ``<str>`` element: escaped text, or base64 when the
    string is not XML-safe."""
    if not value:
        # ElementTree drops the distinction between "" and no text
        return '<str empty="1"/>'
    if not _xml_safe(value):
        encoded = base64.b64encode(
            value.encode("utf-8", errors="surrogatepass")
        ).decode("ascii")
        return f'<str enc="b64">{encoded}</str>'
    return f"<str>{_escape_text(value)}</str>"


# A classifier maps a value to ("local", oid) | ("out", index) | None.
# None means "not a reference, encode as a plain value".
Classifier = Callable[[Any], Optional[tuple]]


def emit_value(parts: List[str], value: Any, classify: Classifier) -> None:
    """Append the canonical text of one value to ``parts``.

    Exact scalar types are written before the classifier runs: a plain
    int, str, float, bool or None is never a reference.
    """
    kind = type(value)
    if kind is int:
        parts.append(f"<int>{value}</int>")
        return
    if kind is str:
        parts.append(_str_element(value))
        return
    if value is None:
        parts.append("<none/>")
        return
    if kind is bool:
        parts.append("<true/>" if value else "<false/>")
        return
    if kind is float:
        parts.append(f"<float>{value!r}</float>")
        return

    ref = classify(value)
    if ref is not None:
        ref_kind, ident = ref
        if ref_kind == "local":
            parts.append(f'<ref oid="{_escape_attr(str(ident))}"/>')
        elif ref_kind == "out":
            parts.append(f'<outref index="{_escape_attr(str(ident))}"/>')
        elif ref_kind == "ext":
            attributes = "".join(
                f' {key}="{_escape_attr(str(val))}"'
                for key, val in sorted(ident.items())
            )
            parts.append(f"<extref{attributes}/>")
        else:
            raise CodecError(f"classifier returned unknown kind {ref_kind!r}")
        return

    # subclasses and containers
    if isinstance(value, int):
        parts.append(_text_element("int", str(value)))
    elif isinstance(value, float):
        parts.append(_text_element("float", repr(value)))
    elif isinstance(value, str):
        parts.append(_str_element(value))
    elif isinstance(value, (bytes, bytearray)):
        encoded = base64.b64encode(bytes(value)).decode("ascii")
        parts.append(_text_element("bytes", encoded))
    elif isinstance(value, list):
        _emit_sequence(parts, "list", value, classify)
    elif isinstance(value, tuple):
        _emit_sequence(parts, "tuple", value, classify)
    elif isinstance(value, set):
        _emit_sequence(parts, "set", _stable_order(value), classify)
    elif isinstance(value, frozenset):
        _emit_sequence(parts, "fset", _stable_order(value), classify)
    elif isinstance(value, dict):
        if not value:
            parts.append("<dict/>")
            return
        parts.append("<dict>")
        for key, item in value.items():
            parts.append("<entry><k>")
            emit_value(parts, key, classify)
            parts.append("</k><v>")
            emit_value(parts, item, classify)
            parts.append("</v></entry>")
        parts.append("</dict>")
    else:
        raise CodecError(
            f"cannot encode value of type {type(value).__name__}: not a "
            f"managed reference and not a supported primitive/container"
        )


def emit_fields(
    parts: List[str],
    values: Dict[str, Any],
    classify: Classifier,
    tag: str = "field",
) -> None:
    """Append a run of ``<tag name="…">value</tag>`` elements, one per
    item of ``values`` in order: an object's fields, an envelope's
    params, a hibernation image's roots.  A name XML cannot carry raises
    :class:`~repro.errors.CodecError` (:func:`named_open_tag`)."""
    for name, value in values.items():
        parts.append(named_open_tag(tag, name))
        emit_value(parts, value, classify)
        parts.append(f"</{tag}>")


def _text_element(tag: str, text: str) -> str:
    if not text:
        return f"<{tag}/>"
    return f"<{tag}>{_escape_text(text)}</{tag}>"


def _emit_sequence(
    parts: List[str], tag: str, items: Any, classify: Classifier
) -> None:
    if not items:
        parts.append(f"<{tag}/>")
        return
    parts.append(f"<{tag}>")
    for item in items:
        emit_value(parts, item, classify)
    parts.append(f"</{tag}>")


def _stable_order(items: Any) -> list:
    """Deterministic ordering for sets so encodings are reproducible."""
    try:
        return sorted(items, key=repr)
    except TypeError:
        return list(items)
