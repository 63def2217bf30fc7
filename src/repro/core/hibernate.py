"""Persistence: hibernate a whole space to XML and restore it.

OBIWAN's component diagram (paper, Figure 1) includes a *Persistence*
module alongside replication and memory management.  This is it, built
on the same wire format, writer and reader as swapping: every
swap-cluster (including swap-cluster-0) becomes one canonical XML
document written with the swap path's encoder, plus a manifest recording
the roots and cluster layout — a directory a process can be resurrected
from, on this device or another.  Restore reads them with
:mod:`repro.wire.scan`; a file in another spelling (such as the
ElementTree output earlier versions wrote) is canonicalized once and
read the same way.

Cross-cluster references hibernate as ``<extref toid=…/>`` (the target's
oid): restore rebuilds them as fresh swap-cluster-proxies, so the
restored space satisfies the mediation invariant by construction.
Clusters that are swapped out at hibernate time are fetched from a
holder whose copy matches the swap location's digest, and their stored
text is rewritten (their outbound replacement-array indexes become
oids) — the restored space starts fully resident, with every cluster's
swap epoch preserved.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Container, Dict, List, Optional, Tuple

from repro.core.archive import fetch_verified
from repro.core.space import Space
from repro.core.swap_cluster import SwapCluster
from repro.errors import CodecError, SwapStoreUnavailableError
from repro.ids import ROOT_SID, Sid
from repro.runtime.registry import TypeRegistry, global_registry
from repro.wire.canonical import (
    canonical_element,
    canonical_text,
    digest_of_canonical,
)
from repro.wire.scan import (
    empty_elements,
    leading_element,
    member_fields,
    read_document,
    read_fields,
    read_number,
    scan_once,
    top_level,
)
from repro.wire.wrappers import emit_fields
from repro.wire.xmlcodec import encode_object_element

_object_setattr = object.__setattr__

MANIFEST_NAME = "manifest.xml"

#: an outbound reference in canonical text, where no raw "<" occurs
#: outside markup: every match is an element
_OUTREF = re.compile(r'<outref index="([0-9]+)"/>')


def hibernate(space: Space, directory: str | Path) -> Path:
    """Write the whole space to ``directory``; returns the manifest path.

    The space itself is untouched (hibernation is a snapshot, not a
    shutdown).  Swapped clusters are read back from their stores without
    reloading them into the heap.  The roots are written first: a root
    name XML cannot carry raises :class:`~repro.errors.CodecError`
    before anything is written to ``directory``.
    """
    roots: List[str] = []
    emit_fields(roots, space._roots, _classifier(space), tag="root")
    destination = Path(directory)
    destination.mkdir(parents=True, exist_ok=True)

    entries: List[str] = []
    for sid in sorted(space._clusters):
        cluster = space._clusters[sid]
        filename = f"cluster-{sid}.xml"
        (destination / filename).write_text(
            _cluster_document(space, cluster), encoding="utf-8"
        )
        entries.append(
            canonical_element(
                "cluster",
                {
                    "sid": str(sid),
                    "file": filename,
                    "epoch": str(cluster.epoch),
                    "cids": ",".join(str(cid) for cid in cluster.cids),
                },
                "",
            )
        )
    manifest = canonical_element(
        "hibernated-space",
        {"name": space.name},
        canonical_element("clusters", {}, "".join(entries))
        + canonical_element("roots", {}, "".join(roots)),
    )

    manifest_path = destination / MANIFEST_NAME
    manifest_path.write_text(manifest, encoding="utf-8")
    return manifest_path


def restore(
    directory: str | Path,
    *,
    heap_capacity: Optional[int] = None,
    registry: Optional[TypeRegistry] = None,
    name: Optional[str] = None,
) -> Space:
    """Rebuild a hibernated space from ``directory``.

    The restored space is fully resident; attach stores and policies
    afterwards as for a fresh space.  ``heap_capacity`` defaults to a
    size model-accounted fit with 4x headroom.
    """
    source = Path(directory)
    try:
        manifest = (source / MANIFEST_NAME).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CodecError(f"no {MANIFEST_NAME} under {source}") from None
    manifest, (attrs, entries, _roots) = scan_once(
        manifest, "manifest", lambda text: (text, _read_manifest(text))
    )
    resolved_registry = registry if registry is not None else global_registry()

    # -- pass 1: read every cluster document, allocate bare instances -------
    documents: Dict[Sid, str] = {}
    instances: Dict[int, Any] = {}
    sid_of: Dict[int, Sid] = {}
    for entry in entries:
        sid = read_number(entry.get("sid"), "manifest cluster sid")
        documents[sid], members = scan_once(
            (source / entry["file"]).read_text(encoding="utf-8"),
            f"hibernated cluster {sid}",
            _read_members,
        )
        for oid, class_name in members:
            instances[oid] = object.__new__(resolved_registry.resolve(class_name))
            sid_of[oid] = sid

    # -- pass 2: the space shell with the original sids and members -------------
    total_guess = 64 * max(1, len(instances))
    space = Space(
        name if name is not None else attrs.get("name", "restored"),
        heap_capacity=heap_capacity
        if heap_capacity is not None
        else max(1 << 16, 8 * total_guess),
        registry=resolved_registry,
    )
    for entry in entries:
        sid = read_number(entry.get("sid"), "manifest cluster sid")
        if sid == ROOT_SID:
            cluster = space._clusters[ROOT_SID]
        else:
            cluster = SwapCluster(sid)
            space._add_cluster(cluster)
        cluster.epoch = read_number(
            entry.get("epoch", "0"), "manifest cluster epoch"
        )
        cluster.cids = [
            read_number(part, "manifest cluster cids")
            for part in entry.get("cids", "").split(",")
            if part
        ]
    space._ids.sids.reserve_above(max(documents, default=0))
    for oid, instance in instances.items():
        sid = sid_of[oid]
        space._clusters[sid].add_member(oid, type(instance)._obi_schema.name)
        space._sid_by_oid[oid] = sid
        space._objects[oid] = instance
        _object_setattr(instance, "_obi_oid", oid)
        _object_setattr(instance, "_obi_sid", sid)
        _object_setattr(instance, "_obi_space", space)
    if instances:
        space._ids.oids.reserve_above(max(instances))

    def resolve(holder_sid: Sid):
        def _resolve(kind: str, ident: Any) -> Any:
            if kind == "local":
                return instances[ident]
            if kind == "ext":
                target_oid = read_number(ident.get("toid"), "<extref toid>")
                if sid_of.get(target_oid) == holder_sid:
                    return instances[target_oid]
                return space._proxy_for(holder_sid, target_oid)
            raise CodecError("hibernated documents cannot hold <outref>")

        return _resolve

    # -- pass 3: fill fields (proxies may now be built), account heap -------------
    size_of = space.size_model.size_of
    for sid, document in documents.items():
        resolver = resolve(sid)
        members = scan_once(
            document,
            f"hibernated cluster {sid}",
            lambda text: _read_member_fields(text, resolver),
        )
        for oid, values in members:
            for field_name, value in values.items():
                _object_setattr(instances[oid], field_name, value)
        space.heap.allocate_cluster(
            {oid: size_of(instances[oid]) for oid, _values in members}
        )

    # -- roots ----------------------------------------------------------------------
    root_resolver = resolve(ROOT_SID)
    space._roots.update(
        scan_once(
            manifest,
            "manifest",
            lambda text: read_fields(
                _read_manifest(text)[2], root_resolver, tag="root"
            ),
        )
    )

    space.verify_integrity()
    return space


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _read_manifest(text: str) -> Tuple[Dict[str, str], List[Dict[str, str]], str]:
    """Root attributes, ``<cluster>`` entries and the ``<root>`` run of a
    canonical manifest."""
    attrs, body = read_document(text, "hibernated-space")
    clusters, rest = leading_element(body, "clusters")
    roots, _rest = leading_element(rest, "roots") if rest else ("", "")
    return attrs, empty_elements(clusters, "cluster"), roots


def _read_members(text: str) -> Tuple[str, List[Tuple[int, str]]]:
    """The text read and ``(oid, class name)`` of each member of a
    canonical ``<hibernated-cluster>`` document.  A ``count`` attribute,
    when present, must match the members found."""
    attrs, events = top_level(text, "hibernated-cluster")
    for tag, _oid, _span, _class_name in events:
        if tag != "object":
            raise CodecError(f"unexpected <{tag}> in a hibernated cluster")
    count = attrs.get("count")
    if count is not None and read_number(
        count, "hibernated cluster count"
    ) != len(events):
        raise CodecError(
            f"hibernated cluster {attrs.get('sid')}: count attribute says "
            f"{count} objects, document holds {len(events)}"
        )
    return text, [(oid, class_name) for _tag, oid, _span, class_name in events]


def _read_member_fields(text: str, resolve: Any) -> List[Tuple[int, Dict[str, Any]]]:
    _attrs, events = top_level(text, "hibernated-cluster")
    return [
        (oid, read_fields(member_fields(span), resolve))
        for _tag, oid, span, _class_name in events
    ]


def _cluster_document(space: Space, cluster: SwapCluster) -> str:
    attrib = {"sid": str(cluster.sid), "count": str(len(cluster.oids))}
    if not cluster.is_resident:
        return canonical_element(
            "hibernated-cluster", attrib, _swapped_members(space, cluster)
        )
    classify = _classifier(space, cluster.oids)
    local_oids = {id(space._objects[oid]): oid for oid in cluster.oids}
    members = "".join(
        encode_object_element(oid, space._objects[oid], classify, local_oids)
        for oid in sorted(cluster.oids)
    )
    return canonical_element("hibernated-cluster", attrib, members)


def _classifier(space: Space, member_oids: Container[int] = frozenset()):
    """References as hibernation writes them: ``<ref>`` to a member of
    the document's cluster, ``<extref toid>`` to any other object."""

    def classify(value: Any) -> Any:
        cls = type(value)
        if getattr(cls, "_obi_is_repl_proxy", False):
            raise CodecError(
                "hibernate found an unresolved replication proxy; "
                "materialize the pending frontier (Replicator.prefetch) "
                "before hibernating"
            )
        if getattr(cls, "_obi_is_proxy", False):
            return ("ext", {"toid": value._obi_target_oid})
        if getattr(cls, "_obi_managed", False):
            oid = getattr(value, "_obi_oid", None)
            if oid is None or getattr(value, "_obi_space", None) is not space:
                raise CodecError(
                    "hibernate found an unadopted managed object; "
                    "ingest it (or set it as a root) first"
                )
            return ("local", oid) if oid in member_oids else ("ext", {"toid": oid})
        return None

    return classify


def _swapped_members(space: Space, cluster: SwapCluster) -> str:
    """A swapped cluster's stored members in hibernation form.

    The stored document's ``<outref index>`` entries index the
    replacement-object's array; each slot is a live proxy whose target
    oid we know — rewrite them as ``<extref toid>``.
    """
    location = cluster.location
    replacement = cluster.replacement
    if location is None or replacement is None:
        raise SwapStoreUnavailableError(
            f"swap-cluster {cluster.sid} has no reachable swapped state"
        )
    text = fetch_verified(
        space.manager.bindings_for(cluster.sid), location.key, location.digest
    )
    if digest_of_canonical(text) != location.digest:
        # a holder's own spelling of the verified payload
        text = canonical_text(text)
    _attrs, body = read_document(text, "swap-cluster")

    def extref(match: "re.Match[str]") -> str:
        proxy = replacement.outbound_at(int(match.group(1)))
        return f'<extref toid="{proxy._obi_target_oid}"/>'

    return _OUTREF.sub(extref, body)
