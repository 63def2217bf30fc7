"""Swap-cluster XML codec.

A detached swap-cluster travels as one XML document::

    <swap-cluster sid="3" space="pda" count="120" epoch="2">
      <object oid="17" class="ListNode">
        <field name="payload"><bytes>…</bytes></field>
        <field name="next"><ref oid="18"/></field>
        <field name="peer"><outref index="0"/></field>
      </object>
      …
    </swap-cluster>

Intra-cluster references use oids (objects keep their oids across a swap
cycle, so proxies can be re-patched on reload).  Outbound references — the
values that are swap-cluster-proxies at detach time — are serialized as
indexes into the cluster's replacement-object array, exactly the paper's
"array of references" design: the replacement-object keeps those proxies
alive while the cluster is away, and reload reconnects by index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Tuple

from repro.errors import CodecError, IntegrityError
from repro.runtime import obicomp
from repro.runtime.classext import is_managed, is_proxy
from repro.runtime.obicomp import SHAPE_ENCODERS, compile_encoder
from repro.runtime.registry import TypeRegistry
from repro.wire.canonical import canonical_element, canonical_open_tag
from repro.wire.scan import read_number, read_root, scan_members, scan_once


@dataclass
class ClusterDocument:
    """Decoded form of a swapped cluster document."""

    sid: int
    space: str
    epoch: int
    objects: Dict[int, Any]  # oid -> rebuilt instance


@dataclass(frozen=True)
class LocalRef:
    oid: int


@dataclass(frozen=True)
class OutRef:
    index: int


def encode_cluster_canonical(
    *,
    sid: int,
    space: str,
    epoch: int,
    objects: Dict[int, Any],
    oid_of: Callable[[Any], int],
    outbound_index_of: Callable[[Any], int],
    foreign_index_of: Callable[[Any], int] | None = None,
) -> Tuple[str, str]:
    """Serialize a swap-cluster to XML text; returns the text and its
    digest.

    ``objects`` maps oid -> managed instance (all must belong to the
    cluster).  ``oid_of`` returns the oid of a raw managed object;
    ``outbound_index_of`` maps a swap-cluster-proxy to its slot in the
    replacement-object array (registering it if first seen).

    ``foreign_index_of`` (server-side replication use only) maps a *raw*
    managed object outside the cluster to an outbound slot — the master
    graph has no proxies, so its frontier edges are raw.  Without it, a
    raw foreign reference raises :class:`IntegrityError`: on a device
    such an edge should have been a swap-cluster-proxy.

    The members are written straight as canonical text (see
    :mod:`repro.wire.canonical`; no element tree), and the joined text
    is hashed once: re-hashing it raw equals its
    :func:`~repro.wire.canonical.payload_digest`, with no
    parse/re-serialize round trip.
    """
    text = "".join(
        encode_cluster_stream(
            sid=sid,
            space=space,
            epoch=epoch,
            objects=objects,
            oid_of=oid_of,
            outbound_index_of=outbound_index_of,
            foreign_index_of=foreign_index_of,
        )
    )
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_classifier(
    *,
    sid: int,
    member_ids: set,
    oid_of: Callable[[Any], int],
    outbound_index_of: Callable[[Any], int],
    foreign_index_of: Callable[[Any], int] | None = None,
) -> Callable[[Any], tuple | None]:
    """Build the reference classifier the value encoder consults.

    ``member_ids`` is the full set of oids that serialize as intra-
    cluster ``<ref>``s — for a delta document this is the *cluster's*
    membership, not just the objects present in the document, so
    references from a re-shipped object to an unchanged member stay
    local.
    """

    def classify(value: Any) -> tuple | None:
        if is_proxy(value):
            return ("out", outbound_index_of(value))
        extern_attrs = getattr(value, "_obi_extern_attrs", None)
        if extern_attrs is not None:
            # an unreplicated-frontier handle (replication proxy): it
            # survives the swap cycle as an <extref>
            return ("ext", extern_attrs())
        if is_managed(value):
            oid = oid_of(value)
            if oid not in member_ids:
                if foreign_index_of is not None:
                    return ("out", foreign_index_of(value))
                raise IntegrityError(
                    f"raw reference from swap-cluster {sid} to foreign managed "
                    f"object oid={oid} ({type(value).__name__}); cross-cluster "
                    f"edges must be swap-cluster-proxies"
                )
            return ("local", oid)
        return None

    return classify


def encode_object_element(
    oid: int,
    obj: Any,
    classify: Callable[[Any], tuple | None],
    local_oids: Dict[int, int],
) -> str:
    """Canonical ``<object>`` element for one managed instance.

    Written by the encoder compiled for the instance's shape, its class
    and the keys of its dict in order
    (:func:`~repro.runtime.obicomp.compile_encoder`).  ``local_oids``
    maps ``id()`` of each object the document carries to its oid: a
    field holding one of them is an intra-cluster ``<ref>`` by
    definition and is written without consulting the classifier, as are
    exact ints and ``None`` (most real fields).
    """
    cls = type(obj)
    values = obj.__dict__
    encode = SHAPE_ENCODERS.get((cls, tuple(values)))
    if encode is None:
        encode = _shape_encoder(oid, cls, tuple(values))
    return encode(oid, values.values(), classify, local_oids)


def _shape_encoder(oid: int, cls: type, keys: Tuple[Any, ...]) -> Callable[..., str]:
    """Compile and cache the encoder of a shape met for the first time."""
    schema = getattr(cls, "_obi_schema", None)
    if schema is None:
        raise CodecError(f"object oid={oid} of type {cls.__name__} is not @managed")
    encode = compile_encoder(schema.name, keys)
    if len(SHAPE_ENCODERS) > obicomp.SHAPE_CACHE_LIMIT:
        SHAPE_ENCODERS.clear()
    SHAPE_ENCODERS[cls, keys] = encode
    return encode


def encode_cluster_stream(
    *,
    sid: int,
    space: str,
    epoch: int,
    objects: Dict[int, Any],
    oid_of: Callable[[Any], int],
    outbound_index_of: Callable[[Any], int],
    foreign_index_of: Callable[[Any], int] | None = None,
) -> Iterator[str]:
    """Yield the canonical document in chunks: root open tag, one chunk
    per member object, closing tag.

    Each chunk is canonical text written directly, with no element tree.
    Chunks concatenate to exactly :func:`encode_cluster_canonical`'s
    text, so a transport can frame/ship them without ever materializing
    the whole document alongside a second serialized copy.
    """
    classify = make_classifier(
        sid=sid,
        member_ids=set(objects),
        oid_of=oid_of,
        outbound_index_of=outbound_index_of,
        foreign_index_of=foreign_index_of,
    )

    attrib = {
        "sid": str(sid),
        "space": space,
        "epoch": str(epoch),
        "count": str(len(objects)),
    }
    if not objects:
        yield canonical_element("swap-cluster", attrib, "")
        return
    yield canonical_open_tag("swap-cluster", attrib)
    local_oids = {id(obj): oid for oid, obj in objects.items()}
    for oid in sorted(objects):
        yield encode_object_element(oid, objects[oid], classify, local_oids)
    yield "</swap-cluster>"


def decode_cluster(
    xml_text: str,
    *,
    registry: TypeRegistry,
    resolve_out: Callable[[int], Any],
    resolve_extern: Callable[[Dict[str, str]], Any] | None = None,
) -> ClusterDocument:
    """Rebuild a swap-cluster from its XML text.

    The text is read with :mod:`repro.wire.scan`: canonical text directly,
    anything else once more after :func:`~repro.wire.canonical.
    canonical_text`.  One scan of the body matches each member whole and
    allocates its instance uninitialized (so circular intra-cluster
    references resolve); a second pass over the matches fills fields
    (:func:`~repro.wire.scan.scan_members`).  ``resolve_out`` maps a
    replacement-array index back to the live swap-cluster-proxy;
    ``resolve_extern`` maps ``<extref>`` attributes back to an
    unreplicated-frontier handle (installed by the replicator).
    """

    def read(text: str) -> ClusterDocument:
        attrs, start, end = read_root(text)
        sid = read_number(attrs.get("sid", "-1"), "swap-cluster sid")
        epoch = read_number(attrs.get("epoch", "0"), "swap-cluster epoch")
        objects = scan_members(
            text,
            start,
            end,
            sid=sid,
            declared_count=attrs.get("count"),
            resolve_class=registry.resolve,
            resolve_out=resolve_out,
            resolve_extern=resolve_extern,
        )
        return ClusterDocument(
            sid=sid, space=attrs.get("space", ""), epoch=epoch, objects=objects
        )

    return scan_once(xml_text, "swap-cluster", read)
