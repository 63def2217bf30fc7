"""Length-prefixed binary wire codec for swap-cluster payloads.

The canonical protocol stays XML (paper fidelity; every digest in the
system is computed over the canonical XML form, see
:mod:`repro.wire.canonical`).  This module adds a negotiated *wire*
format that is structurally bijective with the canonical document: a
``<swap-cluster>`` travels as tag/len/value frames instead of text, and
both ends can transcode between the two forms byte-exactly.

Document layout::

    magic "OBW" | version 0x01 | frame*

    frame     := tag:u8  length:varint  body[length]
    HEADER    := 0x01  varint sid, varint epoch, varint count,
                       varint len + space utf-8
    MEMBER    := 0x02  varint oid, varint len + class utf-8,
                       varint nfields, field*
    DIGEST    := 0x03  32 raw bytes (sha-256 of the canonical XML text)
    BODY      := 0x04  opaque canonical XML utf-8 (delta wrapper)

    field     := varint len + name utf-8, value
    value     := type:u8 type-specific body (varints LEB128, zigzag ints,
                 IEEE-754 little-endian doubles, utf-8 strings)

The integrity rule: **digests are always computed over canonical XML**.
The encoder walks the object graph once, emitting binary frames and the
canonical text chunks side by side, so the digest comes out of the same
pass; the DIGEST frame embeds it.  Decode re-derives the canonical text
structurally from the frames (no ElementTree, no type registry needed)
and re-hashes it — a flipped bit anywhere in the frames either breaks
the structure (:class:`~repro.errors.CodecError`) or changes the
re-derived canonical digest, so corruption can never reach the caller
unnoticed.  Scrub, placement epochs, and delta-chain semantics are
untouched: a store holding binary frames answers ``fetch``/``digest``
probes by transcoding back to the canonical text.
"""

from __future__ import annotations

import base64
import hashlib
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CodecError, IntegrityError
from repro.wire.canonical import _escape_attr
from repro.wire.wrappers import _stable_order, _str_element
from repro.wire.xmlcodec import (
    ClusterDocument,
    _class_open,
    _field_open,
    make_classifier,
)

#: Document magic + format version.  Decoders reject anything else.
MAGIC = b"OBW"
VERSION = 1

# -- frame tags ---------------------------------------------------------------
FRAME_HEADER = 0x01
FRAME_MEMBER = 0x02
FRAME_DIGEST = 0x03
FRAME_BODY = 0x04

# -- value type tags ----------------------------------------------------------
VAL_NONE = 0x00
VAL_TRUE = 0x01
VAL_FALSE = 0x02
VAL_INT = 0x03  # zigzag varint (arbitrary precision)
VAL_FLOAT = 0x04  # little-endian IEEE-754 double
VAL_STR = 0x05  # varint len + utf-8 (surrogatepass)
VAL_BYTES = 0x06  # varint len + raw
VAL_LIST = 0x07  # varint count + value*
VAL_TUPLE = 0x08
VAL_SET = 0x09  # items in canonical (_stable_order) order
VAL_FSET = 0x0A
VAL_DICT = 0x0B  # varint count + (key value, item value)*
VAL_REF = 0x10  # varint oid
VAL_OUTREF = 0x11  # varint index
VAL_EXTREF = 0x12  # varint nattrs + (len+key, len+val)* sorted by key


def encode_varint(buf: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) as LEB128."""
    if 0 <= value < 0x80:  # single-byte values dominate real payloads
        buf.append(value)
        return
    if 0 < value < 0x4000:  # then two-byte ones (oids past 127)
        buf.append((value & 0x7F) | 0x80)
        buf.append(value >> 7)
        return
    if value < 0:
        raise CodecError(f"varint cannot carry negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def decode_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Read one LEB128 varint; returns ``(value, next_pos)``."""
    try:
        byte = data[pos]
    except IndexError:
        raise CodecError("truncated varint in binary payload") from None
    if byte < 0x80:  # single-byte values dominate real payloads
        return byte, pos + 1
    result = byte & 0x7F
    shift = 7
    length = len(data)
    pos += 1
    while True:
        if pos >= length:
            raise CodecError("truncated varint in binary payload")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not (byte & 0x80):
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else (((-value) << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


def _put_str(buf: bytearray, text: str) -> None:
    raw = text.encode("utf-8", "surrogatepass")
    encode_varint(buf, len(raw))
    buf += raw


def _get_str(data: bytes, pos: int) -> Tuple[str, int]:
    try:
        length = data[pos]
    except IndexError:
        raise CodecError("truncated varint in binary payload") from None
    if length < 0x80:  # short strings dominate (names, small values)
        pos += 1
    else:
        length, pos = decode_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated string in binary payload")
    try:
        return data[pos:end].decode("utf-8", "surrogatepass"), end
    except UnicodeDecodeError as exc:
        raise CodecError(f"undecodable string in binary payload: {exc}") from exc


def _frame(buf: bytearray, tag: int, body: bytes) -> None:
    buf.append(tag)
    encode_varint(buf, len(body))
    buf += body


#: Length-prefixed name bytes for the *bounded-cardinality* strings
#: (class and field names); the matching canonical open tags are cached
#: on the XML side (:func:`repro.wire.xmlcodec._field_open`).
_NAME_BYTES_CACHE: Dict[str, bytes] = {}
#: decode-side twin: raw length-free name bytes -> (name, open tag)
_NAME_DECODE_CACHE: Dict[bytes, Tuple[str, str]] = {}


def _name_bytes(name: str) -> bytes:
    """Length-prefixed utf-8 of a field/class name (cached)."""
    cached = _NAME_BYTES_CACHE.get(name)
    if cached is None:
        if len(_NAME_BYTES_CACHE) > 4096:
            _NAME_BYTES_CACHE.clear()
        buf = bytearray()
        _put_str(buf, name)
        cached = _NAME_BYTES_CACHE[name] = bytes(buf)
    return cached


# -- encode -------------------------------------------------------------------

_SCALAR_INT = int
_SCALAR_STR = str
_SCALAR_FLOAT = float
_SCALAR_BOOL = bool


def _encode_value(
    parts: List[str], buf: bytearray, value: Any, classify: Callable
) -> None:
    """Emit one value as canonical-XML chunks *and* binary bytes.

    The chunk stream is byte-identical to what
    :func:`repro.wire.wrappers.emit_value` produces — the digest canon
    depends on it.  Exact scalar types are dispatched before the
    classifier runs (a plain int/str/float can never be a proxy or
    managed object).
    """
    kind = type(value)
    if kind is _SCALAR_INT:
        parts.append(f"<int>{value}</int>")
        buf.append(VAL_INT)
        encode_varint(buf, _zigzag(value))
        return
    if kind is _SCALAR_STR:
        _emit_str(parts, buf, value)
        return
    if value is None:
        parts.append("<none/>")
        buf.append(VAL_NONE)
        return
    if kind is _SCALAR_BOOL:
        if value:
            parts.append("<true/>")
            buf.append(VAL_TRUE)
        else:
            parts.append("<false/>")
            buf.append(VAL_FALSE)
        return
    if kind is _SCALAR_FLOAT:
        parts.append(f"<float>{value!r}</float>")
        buf.append(VAL_FLOAT)
        buf += struct.pack("<d", value)
        return

    ref = classify(value)
    if ref is not None:
        ref_kind, ident = ref
        if ref_kind == "local":
            parts.append(f'<ref oid="{ident}"/>')
            buf.append(VAL_REF)
            encode_varint(buf, ident)
            return
        if ref_kind == "out":
            parts.append(f'<outref index="{ident}"/>')
            buf.append(VAL_OUTREF)
            encode_varint(buf, ident)
            return
        if ref_kind == "ext":
            attrs = sorted((key, str(val)) for key, val in ident.items())
            parts.append(
                "<extref"
                + "".join(f' {key}="{_escape_attr(val)}"' for key, val in attrs)
                + "/>"
            )
            buf.append(VAL_EXTREF)
            encode_varint(buf, len(attrs))
            for key, val in attrs:
                _put_str(buf, key)
                _put_str(buf, val)
            return
        raise CodecError(f"classifier returned unknown kind {ref_kind!r}")

    # subclass / container fallback, mirroring wrappers.emit_value order
    if isinstance(value, bool):
        _encode_value(parts, buf, bool(value), classify)
        return
    if isinstance(value, int):
        parts.append(f"<int>{value}</int>")
        buf.append(VAL_INT)
        encode_varint(buf, _zigzag(int(value)))
        return
    if isinstance(value, float):
        parts.append(f"<float>{value!r}</float>")
        buf.append(VAL_FLOAT)
        buf += struct.pack("<d", value)
        return
    if isinstance(value, str):
        _emit_str(parts, buf, str(value))
        return
    if isinstance(value, (bytes, bytearray)):
        raw = bytes(value)
        if raw:
            parts.append(
                f"<bytes>{base64.b64encode(raw).decode('ascii')}</bytes>"
            )
        else:
            parts.append("<bytes/>")
        buf.append(VAL_BYTES)
        encode_varint(buf, len(raw))
        buf += raw
        return
    if isinstance(value, list):
        _emit_sequence(parts, buf, "list", VAL_LIST, value, classify)
        return
    if isinstance(value, tuple):
        _emit_sequence(parts, buf, "tuple", VAL_TUPLE, value, classify)
        return
    if isinstance(value, frozenset):
        _emit_sequence(
            parts, buf, "fset", VAL_FSET, _stable_order(value), classify
        )
        return
    if isinstance(value, set):
        _emit_sequence(
            parts, buf, "set", VAL_SET, _stable_order(value), classify
        )
        return
    if isinstance(value, dict):
        if not value:
            parts.append("<dict/>")
        else:
            parts.append("<dict>")
        buf.append(VAL_DICT)
        encode_varint(buf, len(value))
        for key, item in value.items():
            parts.append("<entry><k>")
            _encode_value(parts, buf, key, classify)
            parts.append("</k><v>")
            _encode_value(parts, buf, item, classify)
            parts.append("</v></entry>")
        if value:
            parts.append("</dict>")
        return
    raise CodecError(
        f"cannot encode value of type {type(value).__name__}: not a managed "
        f"reference and not a supported primitive/container"
    )


def _emit_str(parts: List[str], buf: bytearray, value: str) -> None:
    parts.append(_str_element(value))
    buf.append(VAL_STR)
    _put_str(buf, value)


def _emit_sequence(
    parts: List[str],
    buf: bytearray,
    tag: str,
    val_tag: int,
    items: Any,
    classify: Callable,
) -> None:
    items = list(items)
    buf.append(val_tag)
    encode_varint(buf, len(items))
    if not items:
        parts.append(f"<{tag}/>")
        return
    parts.append(f"<{tag}>")
    for item in items:
        _encode_value(parts, buf, item, classify)
    parts.append(f"</{tag}>")


def encode_cluster_binary(
    *,
    sid: int,
    space: str,
    epoch: int,
    objects: Dict[int, Any],
    oid_of: Callable[[Any], int],
    outbound_index_of: Callable[[Any], int],
    foreign_index_of: Callable[[Any], int] | None = None,
) -> Tuple[str, str, bytes]:
    """One-pass encode to ``(canonical_text, digest, binary_payload)``.

    A single graph walk produces the binary frames and the canonical
    text chunks together; the joined text is hashed once, exactly as
    :func:`~repro.wire.xmlcodec.encode_cluster_canonical` does, and the
    digest is embedded in the DIGEST frame.
    """
    from repro.runtime.classext import instance_fields

    classify = make_classifier(
        sid=sid,
        member_ids=set(objects),
        oid_of=oid_of,
        outbound_index_of=outbound_index_of,
        foreign_index_of=foreign_index_of,
    )
    text_parts: List[str] = []
    payload = bytearray(MAGIC)
    payload.append(VERSION)

    header = bytearray()
    encode_varint(header, int(sid))
    encode_varint(header, int(epoch))
    encode_varint(header, len(objects))
    _put_str(header, space)
    _frame(payload, FRAME_HEADER, bytes(header))

    attrs = sorted(
        (
            ("count", str(len(objects))),
            ("epoch", str(epoch)),
            ("sid", str(sid)),
            ("space", space),
        )
    )
    open_tag = "<swap-cluster" + "".join(
        f' {name}="{_escape_attr(val)}"' for name, val in attrs
    )
    if not objects:
        text_parts.append(open_tag + "/>")
    else:
        # identity map of the cluster's own members: a field holding a
        # member object is an intra-cluster <ref> by definition, so the
        # hot loop can emit it without consulting the classifier
        local_oids = {id(obj): oid for oid, obj in objects.items()}
        parts_append = text_parts.append
        parts_append(open_tag + ">")
        for oid in sorted(objects):
            obj = objects[oid]
            schema = getattr(type(obj), "_obi_schema", None)
            if schema is None:
                raise CodecError(
                    f"object oid={oid} of type {type(obj).__name__} is "
                    f"not @managed"
                )
            # a member frame is almost always under 128 bytes: reserve
            # one length byte and widen it in place on the rare overflow
            payload.append(FRAME_MEMBER)
            length_at = len(payload)
            payload.append(0)
            encode_varint(payload, oid)
            payload += _name_bytes(schema.name)
            fields = instance_fields(obj)
            encode_varint(payload, len(fields))
            if fields:
                parts_append(f'{_class_open(schema.name)}{oid}">')
                for name, value in fields.items():
                    name_bytes = _name_bytes(name)
                    # exact small ints, None and member references
                    # dominate real field populations — emit them
                    # without the dispatch call
                    if type(value) is _SCALAR_INT:
                        parts_append(
                            f"{_field_open(name)}<int>{value}</int></field>"
                        )
                        payload += name_bytes
                        payload.append(VAL_INT)
                        zig = (
                            (value << 1)
                            if value >= 0
                            else (((-value) << 1) - 1)
                        )
                        if zig < 0x80:
                            payload.append(zig)
                        else:
                            encode_varint(payload, zig)
                    elif value is None:
                        parts_append(f"{_field_open(name)}<none/></field>")
                        payload += name_bytes
                        payload.append(VAL_NONE)
                    else:
                        ref_oid = local_oids.get(id(value))
                        payload += name_bytes
                        if ref_oid is not None:
                            parts_append(
                                f'{_field_open(name)}<ref oid="{ref_oid}"/>'
                                "</field>"
                            )
                            payload.append(VAL_REF)
                            if ref_oid < 0x80:
                                payload.append(ref_oid)
                            else:
                                encode_varint(payload, ref_oid)
                        else:
                            parts_append(_field_open(name))
                            _encode_value(text_parts, payload, value, classify)
                            parts_append("</field>")
                parts_append("</object>")
            else:
                parts_append(f'{_class_open(schema.name)}{oid}"/>')
            length = len(payload) - length_at - 1
            if length < 0x80:
                payload[length_at] = length
            else:
                prefix = bytearray()
                encode_varint(prefix, length)
                payload[length_at : length_at + 1] = prefix
        parts_append("</swap-cluster>")

    text = "".join(text_parts)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    _frame(payload, FRAME_DIGEST, bytes.fromhex(digest))
    return text, digest, bytes(payload)


# -- decode / transcode -------------------------------------------------------


def _read_value(
    data: bytes,
    pos: int,
    parts: List[str],
    resolve: Optional[Callable[[str, Any], Any]],
) -> Tuple[Any, int]:
    """Parse one value: rebuild it (when ``resolve`` is given) and emit
    its canonical-XML chunk.  With ``resolve=None`` (pure transcode)
    reference values come back as ``None`` placeholders — only the
    canonical text matters to that caller."""
    if pos >= len(data):
        raise CodecError("truncated value in binary payload")
    tag = data[pos]
    pos += 1
    if tag == VAL_INT:
        raw, pos = decode_varint(data, pos)
        value = _unzigzag(raw)
        parts.append(f"<int>{value}</int>")
        return value, pos
    if tag == VAL_STR:
        value, pos = _get_str(data, pos)
        parts.append(_str_element(value))
        return value, pos
    if tag == VAL_REF:
        oid, pos = decode_varint(data, pos)
        parts.append(f'<ref oid="{oid}"/>')
        return (resolve("local", oid) if resolve is not None else None), pos
    if tag == VAL_OUTREF:
        index, pos = decode_varint(data, pos)
        parts.append(f'<outref index="{index}"/>')
        return (resolve("out", index) if resolve is not None else None), pos
    if tag == VAL_NONE:
        parts.append("<none/>")
        return None, pos
    if tag == VAL_TRUE:
        parts.append("<true/>")
        return True, pos
    if tag == VAL_FALSE:
        parts.append("<false/>")
        return False, pos
    if tag == VAL_FLOAT:
        end = pos + 8
        if end > len(data):
            raise CodecError("truncated float in binary payload")
        value = struct.unpack("<d", data[pos:end])[0]
        parts.append(f"<float>{value!r}</float>")
        return value, end
    if tag == VAL_BYTES:
        length, pos = decode_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated bytes in binary payload")
        raw = data[pos:end]
        if raw:
            parts.append(
                f"<bytes>{base64.b64encode(raw).decode('ascii')}</bytes>"
            )
        else:
            parts.append("<bytes/>")
        return raw, end
    if tag in (VAL_LIST, VAL_TUPLE, VAL_SET, VAL_FSET):
        name = {
            VAL_LIST: "list",
            VAL_TUPLE: "tuple",
            VAL_SET: "set",
            VAL_FSET: "fset",
        }[tag]
        count, pos = decode_varint(data, pos)
        if count == 0:
            parts.append(f"<{name}/>")
            items: List[Any] = []
        else:
            parts.append(f"<{name}>")
            items = []
            for _ in range(count):
                item, pos = _read_value(data, pos, parts, resolve)
                items.append(item)
            parts.append(f"</{name}>")
        if tag == VAL_LIST:
            return items, pos
        if tag == VAL_TUPLE:
            return tuple(items), pos
        if tag == VAL_SET:
            return set(items), pos
        return frozenset(items), pos
    if tag == VAL_DICT:
        count, pos = decode_varint(data, pos)
        if count == 0:
            parts.append("<dict/>")
            return {}, pos
        parts.append("<dict>")
        result: Dict[Any, Any] = {}
        for _ in range(count):
            parts.append("<entry><k>")
            key, pos = _read_value(data, pos, parts, resolve)
            parts.append("</k><v>")
            item, pos = _read_value(data, pos, parts, resolve)
            parts.append("</v></entry>")
            if resolve is not None:
                result[key] = item
        parts.append("</dict>")
        return result, pos
    if tag == VAL_EXTREF:
        count, pos = decode_varint(data, pos)
        attrs: List[Tuple[str, str]] = []
        for _ in range(count):
            key, pos = _get_str(data, pos)
            val, pos = _get_str(data, pos)
            attrs.append((key, val))
        parts.append(
            "<extref"
            + "".join(f' {key}="{_escape_attr(val)}"' for key, val in attrs)
            + "/>"
        )
        return (
            resolve("ext", dict(attrs)) if resolve is not None else None
        ), pos
    raise CodecError(f"unknown binary value tag 0x{tag:02x}")


def _split_frames(data: bytes) -> List[Tuple[int, int, int]]:
    """Validate the envelope; returns ``[(tag, body_start, body_end)]``."""
    if len(data) < len(MAGIC) + 1 or data[: len(MAGIC)] != MAGIC:
        raise CodecError("not a binary swap payload (bad magic)")
    version = data[len(MAGIC)]
    if version != VERSION:
        raise CodecError(
            f"unsupported binary payload version {version} "
            f"(this codec speaks {VERSION})"
        )
    frames: List[Tuple[int, int, int]] = []
    pos = len(MAGIC) + 1
    length = len(data)
    while pos < length:
        tag = data[pos]
        pos += 1
        body_len, pos = decode_varint(data, pos)
        end = pos + body_len
        if end > length:
            raise CodecError("truncated frame in binary payload")
        frames.append((tag, pos, end))
        pos = end
    return frames


def _parse_cluster(
    data: bytes,
    *,
    registry: Any = None,
    resolve_out: Callable[[int], Any] | None = None,
    resolve_extern: Callable[[Dict[str, str]], Any] | None = None,
    build: bool,
) -> Tuple[Optional[ClusterDocument], str, str]:
    """Shared frame walk behind decode and transcode.

    With ``build=True`` instances are allocated (two passes, so circular
    intra-cluster references resolve) and filled; with ``build=False``
    only the canonical text is re-derived.  Either way the embedded
    DIGEST frame is checked against the re-derived canonical digest —
    a corrupt frame cannot produce a "verified" document.
    """
    frames = _split_frames(data)
    if not frames or frames[0][0] != FRAME_HEADER:
        raise CodecError("binary payload does not start with a HEADER frame")
    htag, hstart, hend = frames[0]
    pos = hstart
    sid, pos = decode_varint(data, pos)
    epoch, pos = decode_varint(data, pos)
    count, pos = decode_varint(data, pos)
    space, pos = _get_str(data, pos)
    if pos > hend:
        raise CodecError("overlong HEADER frame in binary payload")

    members = [frame for frame in frames[1:] if frame[0] == FRAME_MEMBER]
    digests = [frame for frame in frames[1:] if frame[0] == FRAME_DIGEST]
    for tag, _start, _end in frames[1:]:
        if tag not in (FRAME_MEMBER, FRAME_DIGEST):
            raise CodecError(
                f"unexpected frame tag 0x{tag:02x} in swap-cluster payload"
            )
    if len(digests) != 1:
        raise CodecError("binary payload must carry exactly one DIGEST frame")
    dstart, dend = digests[0][1], digests[0][2]
    if dend - dstart != 32:
        raise CodecError("malformed DIGEST frame (expected 32 bytes)")
    embedded_digest = data[dstart:dend].hex()
    if count != len(members):
        raise CodecError(
            f"swap-cluster {sid}: header says {count} objects, payload "
            f"holds {len(members)}"
        )

    # single prefix pass: parse each member's oid/class/field-count once
    # (the allocation pass and the text pass both need them), allocating
    # hollow instances as we go so circular intra-cluster refs resolve
    if build and registry is None:
        raise CodecError("decode requires a type registry")
    instances: Dict[int, Any] = {}
    prefixes: List[Tuple[int, str, int, int, int]] = []
    classes: Dict[str, Any] = {}
    try:
        for _tag, start, end in members:
            mpos = start
            oid = data[mpos]
            if oid < 0x80:
                mpos += 1
            else:
                oid, mpos = decode_varint(data, mpos)
            nlen = data[mpos]
            if nlen < 0x80:
                nend = mpos + 1 + nlen
                raw_name = data[mpos + 1 : nend]
                cached = _NAME_DECODE_CACHE.get(raw_name)
                if cached is None:
                    if len(_NAME_DECODE_CACHE) > 4096:
                        _NAME_DECODE_CACHE.clear()
                    class_name, _ignored = _get_str(data, mpos)
                    cached = _NAME_DECODE_CACHE[raw_name] = (
                        class_name,
                        _field_open(class_name),
                    )
                class_name = cached[0]
                mpos = nend
            else:
                class_name, mpos = _get_str(data, mpos)
            nfields = data[mpos]
            if nfields < 0x80:
                mpos += 1
            else:
                nfields, mpos = decode_varint(data, mpos)
            prefixes.append((oid, class_name, nfields, mpos, end))
            if build:
                cls = classes.get(class_name)
                if cls is None:
                    cls = classes[class_name] = registry.resolve(class_name)
                instances[oid] = object.__new__(cls)
    except IndexError:
        raise CodecError("truncated member frame in binary payload") from None

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
        assert resolve_out is not None
        return resolve_out(ident)

    resolver = resolve if build else None
    attrs = sorted(
        (
            ("count", str(count)),
            ("epoch", str(epoch)),
            ("sid", str(sid)),
            ("space", space),
        )
    )
    open_tag = "<swap-cluster" + "".join(
        f' {name}="{_escape_attr(val)}"' for name, val in attrs
    )
    text_parts: List[str] = []
    parts_append = text_parts.append
    if not members:
        parts_append(open_tag + "/>")
    else:
        parts_append(open_tag + ">")
        try:
            for oid, class_name, nfields, mpos, end in prefixes:
                if nfields == 0:
                    parts_append(f'{_class_open(class_name)}{oid}"/>')
                else:
                    parts_append(f'{_class_open(class_name)}{oid}">')
                    instance = instances.get(oid) if build else None
                    # plain instance dicts take direct stores; classes
                    # with __slots__ fall back to object.__setattr__
                    idict = getattr(instance, "__dict__", None)
                    for _ in range(nfields):
                        # the per-field work below is _get_str +
                        # _read_value with the dominant cases (short
                        # names; int/ref/none values) inlined — profiled
                        # call overhead was most of decode wall time
                        nlen = data[mpos]
                        if nlen < 0x80:
                            nend = mpos + 1 + nlen
                            raw_name = data[mpos + 1 : nend]
                            cached = _NAME_DECODE_CACHE.get(raw_name)
                            if cached is None:
                                if len(_NAME_DECODE_CACHE) > 4096:
                                    _NAME_DECODE_CACHE.clear()
                                name, _ignored = _get_str(data, mpos)
                                cached = _NAME_DECODE_CACHE[raw_name] = (
                                    name,
                                    _field_open(name),
                                )
                            name, field_tag = cached
                            mpos = nend
                        else:
                            name, mpos = _get_str(data, mpos)
                            field_tag = _field_open(name)
                        parts_append(field_tag)
                        vtag = data[mpos]
                        if vtag == VAL_INT:
                            raw = data[mpos + 1]
                            if raw < 0x80:
                                mpos += 2
                            else:
                                raw, mpos = decode_varint(data, mpos + 1)
                            value = (
                                (raw >> 1)
                                if not (raw & 1)
                                else -((raw + 1) >> 1)
                            )
                            parts_append(f"<int>{value}</int>")
                        elif vtag == VAL_REF:
                            ref = data[mpos + 1]
                            if ref < 0x80:
                                mpos += 2
                            else:
                                ref, mpos = decode_varint(data, mpos + 1)
                            parts_append(f'<ref oid="{ref}"/>')
                            if build:
                                value = instances.get(ref)
                                if value is None:
                                    raise CodecError(
                                        "dangling intra-cluster reference "
                                        f"oid={ref}"
                                    )
                            else:
                                value = None
                        elif vtag == VAL_NONE:
                            mpos += 1
                            parts_append("<none/>")
                            value = None
                        else:
                            value, mpos = _read_value(
                                data, mpos, text_parts, resolver
                            )
                        parts_append("</field>")
                        if idict is not None:
                            idict[name] = value
                        elif instance is not None:
                            object.__setattr__(instance, name, value)
                    parts_append("</object>")
                if mpos != end:
                    raise CodecError(
                        f"malformed MEMBER frame for oid={oid} "
                        f"({end - mpos} trailing bytes)"
                    )
        except IndexError:
            raise CodecError(
                "truncated member frame in binary payload"
            ) from None
        parts_append("</swap-cluster>")

    # single join + single hash: equivalent to chunk-incremental updates
    text = "".join(text_parts)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != embedded_digest:
        raise CodecError(
            f"binary payload failed the canonical-digest check "
            f"(frames re-derive {digest[:12]}…, embedded "
            f"{embedded_digest[:12]}… — corrupt frames)"
        )
    document = (
        ClusterDocument(sid=sid, space=space, epoch=epoch, objects=instances)
        if build
        else None
    )
    return document, text, digest


def decode_cluster_binary(
    data: bytes,
    *,
    registry: Any,
    resolve_out: Callable[[int], Any],
    resolve_extern: Callable[[Dict[str, str]], Any] | None = None,
) -> Tuple[ClusterDocument, str, str]:
    """Rebuild a swap-cluster from binary frames in one pass.

    Returns ``(document, canonical_text, canonical_digest)``: the digest
    is re-derived from the frames (and checked against the embedded
    DIGEST frame), so the caller can compare it with the trusted
    location digest exactly as on the XML path — integrity semantics are
    identical, only the CPU cost is not.
    """
    document, text, digest = _parse_cluster(
        data,
        registry=registry,
        resolve_out=resolve_out,
        resolve_extern=resolve_extern,
        build=True,
    )
    assert document is not None
    return document, text, digest


def binary_to_canonical(data: bytes) -> Tuple[str, str]:
    """Transcode binary frames back to ``(canonical_text, digest)``.

    Needs no type registry and builds no instances — this is what a
    dumb store uses to answer ``fetch``/``digest`` probes for a payload
    it holds as frames.  Raises :class:`~repro.errors.CodecError` when
    the frames are corrupt (embedded digest mismatch included).
    """
    _document, text, digest = _parse_cluster(data, build=False)
    return text, digest


# -- delta wrapper ------------------------------------------------------------


def encode_delta_binary(delta_text: str) -> bytes:
    """Wrap a canonical ``<swap-delta>`` document in binary framing.

    Deltas are small by design, so they keep their canonical text as the
    BODY frame; the framing adds the same end-to-end integrity (DIGEST
    over the canonical form) the full-payload codec has.
    """
    body = delta_text.encode("utf-8")
    payload = bytearray(MAGIC)
    payload.append(VERSION)
    _frame(payload, FRAME_DIGEST, hashlib.sha256(body).digest())
    _frame(payload, FRAME_BODY, body)
    return bytes(payload)


def decode_delta_binary(data: bytes) -> str:
    """Unwrap :func:`encode_delta_binary`; verifies the digest frame."""
    frames = _split_frames(data)
    tags = [tag for tag, _start, _end in frames]
    if tags != [FRAME_DIGEST, FRAME_BODY]:
        raise CodecError(
            "malformed binary delta payload (expected DIGEST + BODY frames)"
        )
    dstart, dend = frames[0][1], frames[0][2]
    if dend - dstart != 32:
        raise CodecError("malformed DIGEST frame (expected 32 bytes)")
    body = data[frames[1][1] : frames[1][2]]
    if hashlib.sha256(body).digest() != data[dstart:dend]:
        raise CodecError(
            "binary delta payload failed the digest check (corrupt frames)"
        )
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"undecodable delta body: {exc}") from exc
