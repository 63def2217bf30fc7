"""Object-granular delta documents for the swap wire format.

A swap-cluster whose staleness is fully attributed — a known base
payload plus a concrete set of mutated and collected members — can ship
a *delta* instead of re-serializing all of its objects::

    <swap-delta base-epoch="4" count="2" dead="1" epoch="5" sid="3" space="pda">
      <object oid="17" class="ListNode">…</object>
      <object oid="23" class="ListNode">…</object>
      <tombstone oid="9"/>
    </swap-delta>

``base-epoch`` names the payload the delta applies to; ``<object>``
elements replace the member of the same oid in the base, ``<tombstone>``
elements remove collected members.  The document is canonical text (same
conventions as ``<swap-cluster>``: sorted attributes, objects then
tombstones each in oid order), so its digest is a single raw hash and
:func:`repro.wire.canonical.verify_payload` accepts it unchanged.

:func:`apply_cluster_delta` folds a delta into its base and returns the
full canonical ``<swap-cluster>`` document for the new epoch — byte-
identical to what a full encode of the mutated cluster would have
produced, so digests, :func:`~repro.wire.canonical.verify_payload`, and
:func:`~repro.wire.xmlcodec.decode_cluster` all work on the applied
text with no delta-awareness downstream.  It splices text, with no XML
parser: :mod:`repro.wire.scan` splits both documents into per-oid
``<object>`` spans, and canonical spans are copied into the result
unchanged.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterable, Iterator, List, Set, Tuple

from repro.errors import CodecError
from repro.wire.canonical import canonical_element, canonical_open_tag
from repro.wire.scan import Event, read_number, scan_once, top_level
from repro.wire.xmlcodec import encode_object_element, make_classifier

__all__ = [
    "encode_cluster_delta",
    "encode_cluster_delta_stream",
    "apply_cluster_delta",
]


def encode_cluster_delta_stream(
    *,
    sid: int,
    space: str,
    base_epoch: int,
    epoch: int,
    objects: Dict[int, Any],
    dead_oids: Iterable[int],
    member_oids: Set[int],
    oid_of: Callable[[Any], int],
    outbound_index_of: Callable[[Any], int],
    foreign_index_of: Callable[[Any], int] | None = None,
) -> Iterator[str]:
    """Yield the canonical delta document in chunks.

    ``objects`` maps oid -> mutated member instance; ``dead_oids`` are
    members collected since the base payload (oids also present in
    ``objects`` are dropped — a member cannot be both re-shipped and
    tombstoned).  ``member_oids`` is the cluster's *full* current
    membership, so references from a re-shipped object to an unchanged
    member still serialize as intra-cluster ``<ref>``s.
    """
    classify = make_classifier(
        sid=sid,
        member_ids=set(member_oids),
        oid_of=oid_of,
        outbound_index_of=outbound_index_of,
        foreign_index_of=foreign_index_of,
    )
    tombstones = sorted(set(dead_oids) - set(objects))
    attrib = {
        "sid": str(sid),
        "space": space,
        "base-epoch": str(base_epoch),
        "epoch": str(epoch),
        "count": str(len(objects)),
        "dead": str(len(tombstones)),
    }
    if not objects and not tombstones:
        yield canonical_element("swap-delta", attrib, "")
        return
    yield canonical_open_tag("swap-delta", attrib)
    local_oids = {id(obj): oid for oid, obj in objects.items()}
    for oid in sorted(objects):
        yield encode_object_element(oid, objects[oid], classify, local_oids)
    for oid in tombstones:
        yield f'<tombstone oid="{oid}"/>'
    yield "</swap-delta>"


def encode_cluster_delta(
    *,
    sid: int,
    space: str,
    base_epoch: int,
    epoch: int,
    objects: Dict[int, Any],
    dead_oids: Iterable[int],
    member_oids: Set[int],
    oid_of: Callable[[Any], int],
    outbound_index_of: Callable[[Any], int],
    foreign_index_of: Callable[[Any], int] | None = None,
) -> Tuple[str, str]:
    """One-pass delta encode: canonical text plus its digest, hashed once
    over the joined text."""
    text = "".join(
        encode_cluster_delta_stream(
            sid=sid,
            space=space,
            base_epoch=base_epoch,
            epoch=epoch,
            objects=objects,
            dead_oids=dead_oids,
            member_oids=member_oids,
            oid_of=oid_of,
            outbound_index_of=outbound_index_of,
            foreign_index_of=foreign_index_of,
        )
    )
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


def apply_cluster_delta(base_text: str, delta_text: str) -> str:
    """Fold a delta into its base payload; return the new full document.

    Splices text: both documents are split into per-oid ``<object>``
    spans (:func:`repro.wire.scan.top_level`), the delta's spans replace
    or add members, tombstoned oids are removed, and the spans are joined
    in oid order under a rewritten root tag.  Canonical input spans are
    canonical output spans, so the result is byte-identical to a full
    encode of the mutated cluster.

    Raises :class:`~repro.errors.CodecError` when the delta does not
    apply — wrong sid/space, a ``base-epoch`` that does not match the
    base document's epoch (a diverged replica must receive a full
    payload instead), or malformed/miscounted content.
    """
    base, base_events = _scan(base_text, "swap-cluster")
    delta, delta_events = _scan(delta_text, "swap-delta")

    if base.get("sid") != delta.get("sid") or base.get("space") != delta.get(
        "space"
    ):
        raise CodecError(
            f"delta for sid={delta.get('sid')} space={delta.get('space')!r} "
            f"does not belong to payload sid={base.get('sid')} "
            f"space={base.get('space')!r}"
        )
    base_epoch = read_number(base.get("epoch", "0"), "swap-cluster epoch")
    declared_base = read_number(
        delta.get("base-epoch", "-1"), "swap-delta base-epoch"
    )
    if declared_base != base_epoch:
        raise CodecError(
            f"delta applies to base epoch {declared_base} but payload is at "
            f"epoch {base_epoch} (diverged replica; full payload required)"
        )

    members: Dict[int, str] = {}
    for tag, oid, span, _class in base_events:
        if tag != "object":
            raise CodecError(f"unexpected element <{tag}> in base swap-cluster")
        members[oid] = span

    replaced = 0
    dead = 0
    for tag, oid, span, _class in delta_events:
        if tag == "object":
            members[oid] = span
            replaced += 1
        elif tag == "tombstone":
            # a tombstone for an oid the base never carried is legal:
            # the member was born and collected between two swap-outs
            members.pop(oid, None)
            dead += 1
        else:
            raise CodecError(f"unexpected element <{tag}> in swap-delta")
    declared_count = delta.get("count")
    if (
        declared_count is not None
        and read_number(declared_count, "swap-delta count") != replaced
    ):
        raise CodecError(
            f"swap-delta count attribute says {declared_count} objects, "
            f"document holds {replaced}"
        )
    declared_dead = delta.get("dead")
    if (
        declared_dead is not None
        and read_number(declared_dead, "swap-delta dead") != dead
    ):
        raise CodecError(
            f"swap-delta dead attribute says {declared_dead} tombstones, "
            f"document holds {dead}"
        )

    attrib = {
        "sid": base.get("sid", ""),
        "space": base.get("space", ""),
        "epoch": delta.get("epoch", str(base_epoch + 1)),
        "count": str(len(members)),
    }
    if not members:
        return canonical_element("swap-cluster", attrib, "")
    spans = "<object ".join(members[oid] for oid in sorted(members))
    root = canonical_open_tag("swap-cluster", attrib)
    return f"{root}<object {spans}</swap-cluster>"


def _scan(text: str, root: str) -> Tuple[Dict[str, str], List[Event]]:
    """Root attributes and top-level events; span-copying readers screen
    for foreign text first."""
    return scan_once(
        text, root, lambda candidate: top_level(candidate, root), screen=True
    )
