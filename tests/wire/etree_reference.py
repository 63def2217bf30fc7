"""The ElementTree value codec, kept as a test reference.

Every document used to be written by building elements with
:func:`encode_value` and serializing them (:func:`serialize_element` is
the canonical serializer), and read by parsing it and walking the
elements with :func:`decode_value`.  ``src/`` now writes canonical text
directly (:func:`repro.wire.wrappers.emit_value`,
:func:`~repro.wire.wrappers.emit_fields`) and reads it with
:mod:`repro.wire.scan`.  The bodies below are the old ones, unchanged:
the tests hold the text writer and the scanner to them, byte for byte
and value for value.
"""

from __future__ import annotations

import base64
from typing import Any, Callable, Optional
from xml.etree import ElementTree as ET

from repro.errors import CodecError
from repro.wire.canonical import _escape_attr, _escape_text
from repro.wire.wrappers import _stable_order, _xml_safe

Classifier = Callable[[Any], Optional[tuple]]
Resolver = Callable[[str, Any], Any]


def encode_value(value: Any, classify: Classifier) -> ET.Element:
    """Encode one Python value into an XML element."""
    ref = classify(value)
    if ref is not None:
        kind, ident = ref
        if kind == "local":
            return ET.Element("ref", {"oid": str(ident)})
        if kind == "out":
            return ET.Element("outref", {"index": str(ident)})
        if kind == "ext":
            return ET.Element(
                "extref", {key: str(val) for key, val in ident.items()}
            )
        raise CodecError(f"classifier returned unknown kind {kind!r}")

    if value is None:
        return ET.Element("none")
    if value is True:
        return ET.Element("true")
    if value is False:
        return ET.Element("false")
    if isinstance(value, int):
        element = ET.Element("int")
        element.text = str(value)
        return element
    if isinstance(value, float):
        element = ET.Element("float")
        element.text = repr(value)
        return element
    if isinstance(value, str):
        element = ET.Element("str")
        if value and not _xml_safe(value):
            element.set("enc", "b64")
            element.text = base64.b64encode(
                value.encode("utf-8", errors="surrogatepass")
            ).decode("ascii")
            return element
        element.text = value
        # ElementTree drops the distinction between "" and no text
        if value == "":
            element.set("empty", "1")
        return element
    if isinstance(value, (bytes, bytearray)):
        element = ET.Element("bytes")
        element.text = base64.b64encode(bytes(value)).decode("ascii")
        return element
    if isinstance(value, list):
        return _encode_sequence("list", value, classify)
    if isinstance(value, tuple):
        return _encode_sequence("tuple", value, classify)
    if isinstance(value, set):
        return _encode_sequence("set", _stable_order(value), classify)
    if isinstance(value, frozenset):
        return _encode_sequence("fset", _stable_order(value), classify)
    if isinstance(value, dict):
        element = ET.Element("dict")
        for key, item in value.items():
            entry = ET.SubElement(element, "entry")
            key_el = ET.SubElement(entry, "k")
            key_el.append(encode_value(key, classify))
            value_el = ET.SubElement(entry, "v")
            value_el.append(encode_value(item, classify))
        return element
    raise CodecError(
        f"cannot encode value of type {type(value).__name__}: not a managed "
        f"reference and not a supported primitive/container"
    )


def decode_value(element: ET.Element, resolve: Resolver) -> Any:
    """Decode one XML element back into a Python value."""
    tag = element.tag
    if tag == "ref":
        return resolve("local", int(element.get("oid")))
    if tag == "outref":
        return resolve("out", int(element.get("index")))
    if tag == "extref":
        return resolve("ext", dict(element.attrib))
    if tag == "none":
        return None
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag == "int":
        return int(element.text or "0")
    if tag == "float":
        return float(element.text or "0")
    if tag == "str":
        if element.get("enc") == "b64":
            return base64.b64decode(element.text or "").decode(
                "utf-8", errors="surrogatepass"
            )
        if element.get("empty") == "1":
            return ""
        return element.text if element.text is not None else ""
    if tag == "bytes":
        return base64.b64decode(element.text or "")
    if tag == "list":
        return [decode_value(child, resolve) for child in element]
    if tag == "tuple":
        return tuple(decode_value(child, resolve) for child in element)
    if tag == "set":
        return {decode_value(child, resolve) for child in element}
    if tag == "fset":
        return frozenset(decode_value(child, resolve) for child in element)
    if tag == "dict":
        result = {}
        for entry in element:
            if entry.tag != "entry" or len(entry) != 2:
                raise CodecError("malformed <dict> entry")
            key = decode_value(entry[0][0], resolve)
            value = decode_value(entry[1][0], resolve)
            result[key] = value
        return result
    raise CodecError(f"unknown wire tag <{tag}>")


def _encode_sequence(tag: str, items: Any, classify: Classifier) -> ET.Element:
    element = ET.Element(tag)
    for item in items:
        element.append(encode_value(item, classify))
    return element


def serialize_element(element: ET.Element) -> str:
    """Serialize one element in canonical form (sorted attributes).

    ``canonical_text(serialize_element(e))`` is the identity for
    whitespace-free trees.
    """
    attributes = "".join(
        f' {name}="{_escape_attr(value)}"'
        for name, value in sorted(element.attrib.items())
    )
    children = "".join(serialize_element(child) for child in element)
    text = _escape_text(element.text) if element.text else ""
    if not children and not text:
        return f"<{element.tag}{attributes}/>"
    return f"<{element.tag}{attributes}>{text}{children}</{element.tag}>"
