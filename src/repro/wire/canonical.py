"""Canonical XML text and payload digests.

Swapping devices are *dumb stores*: the protocol is store/return/drop of
opaque text.  To detect a store returning corrupted or stale text, the
swap location record kept on the mobile device includes a digest of the
canonical payload; swap-in verifies it before deserializing.
"""

from __future__ import annotations

import hashlib
from xml.etree import ElementTree as ET

from repro.errors import CodecError


def canonical_text(xml_text: str) -> str:
    """Normalize an XML document to a canonical single-line form.

    Strips inter-element whitespace and re-serializes with deterministic
    attribute order (sorted), so semantically equal documents compare
    equal as strings.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise CodecError(f"cannot canonicalize malformed XML: {exc}") from exc
    _strip_whitespace(root)
    return _serialize(root)


def utf8_len(text: str) -> int:
    """``len(text.encode("utf-8"))`` without copying ASCII text.

    ``str.isascii`` reads a flag of the string object, so an all-ASCII
    payload (the common case for canonical text) is counted without an
    encode; other text is encoded, so a lone surrogate still raises
    ``UnicodeEncodeError``.
    """
    if text.isascii():
        return len(text)
    return len(text.encode("utf-8"))


def payload_digest(xml_text: str) -> str:
    """Stable hex digest of the canonical form of ``xml_text``."""
    return hashlib.sha256(canonical_text(xml_text).encode("utf-8")).hexdigest()


def digest_of_canonical(canonical: str) -> str:
    """Digest of text that is *already* canonical (no parse, no re-serialize).

    The swap-out encoders (:mod:`repro.wire.xmlcodec`,
    :mod:`repro.wire.delta`) emit canonical text directly, so its digest
    is a single raw hash — this is the fast-path counterpart of
    :func:`payload_digest`.
    """
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def verify_payload(xml_text: str, expected_digest: str) -> bool:
    """Check ``xml_text`` against ``expected_digest``, cheaply when possible.

    Payloads produced by the one-pass encoder are already canonical, so a
    raw hash usually matches outright; only foreign/pretty-printed text
    pays for the full canonicalization pass.
    """
    if digest_of_canonical(xml_text) == expected_digest:
        return True
    try:
        return payload_digest(xml_text) == expected_digest
    except CodecError:
        return False


def canonical_open_tag(tag: str, attrib: dict) -> str:
    """Open tag with canonical (sorted) attribute order.

    Lets streaming encoders emit a document's root incrementally while
    staying byte-identical to :func:`canonical_text` of the full text.
    """
    attributes = "".join(
        f' {name}="{_escape_attr(value)}"' for name, value in sorted(attrib.items())
    )
    return f"<{tag}{attributes}>"


def canonical_element(tag: str, attrib: dict, content: str) -> str:
    """One element in canonical form around ``content``, which must be
    canonical already: self-closing when ``content`` is empty."""
    head = canonical_open_tag(tag, attrib)
    if not content:
        return head[:-1] + "/>"
    return f"{head}{content}</{tag}>"


def _strip_whitespace(element: ET.Element) -> None:
    if element.text is not None and not element.text.strip() and len(element):
        element.text = None
    if element.tail is not None:
        if element.tail.strip():
            raise CodecError(
                f"character data {element.tail.strip()[:20]!r} after <{element.tag}>"
            )
        element.tail = None
    for child in element:
        _strip_whitespace(child)


def _serialize(element: ET.Element) -> str:
    attributes = "".join(
        f' {name}="{_escape_attr(value)}"'
        for name, value in sorted(element.attrib.items())
    )
    children = "".join(_serialize(child) for child in element)
    text = _escape_text(element.text) if element.text else ""
    if not children and not text:
        return f"<{element.tag}{attributes}/>"
    return f"<{element.tag}{attributes}>{text}{children}</{element.tag}>"


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")
