"""One-pass streaming codec: chunks, incremental digests, verification."""

import hashlib
import xml.etree.ElementTree as ET

from repro.runtime.registry import global_registry
from repro.wire.canonical import (
    canonical_open_tag,
    canonical_text,
    digest_of_canonical,
    payload_digest,
    verify_payload,
)
from repro.wire.xmlcodec import (
    decode_cluster,
    encode_cluster_canonical,
    encode_cluster_stream,
)
from tests.helpers import Holder, Node, Pair
from tests.wire.etree_reference import serialize_element


def _oid_of(obj):
    return obj._test_oid


def _setup(objects):
    for index, obj in enumerate(objects, start=1):
        object.__setattr__(obj, "_test_oid", index)
    return {obj._test_oid: obj for obj in objects}


def _codec_args(members):
    outbound = []

    def outbound_index_of(proxy):
        if proxy not in outbound:
            outbound.append(proxy)
        return outbound.index(proxy)

    return dict(
        sid=5,
        space="test",
        epoch=1,
        objects=members,
        oid_of=_oid_of,
        outbound_index_of=outbound_index_of,
    )


def _rich_members():
    holder, node, pair = Holder(), Node(9), Pair()
    holder.items.append(node)
    holder.index["n"] = node
    holder.fixed = (node, 5)
    pair.left = holder
    pair.right = "text & <markup>"
    return _setup([holder, node, pair])


# -- streaming ------------------------------------------------------------


def test_stream_chunks_concatenate_to_encode_cluster():
    members = _rich_members()
    streamed = "".join(encode_cluster_stream(**_codec_args(members)))
    assert streamed == encode_cluster_canonical(**_codec_args(members))[0]


def test_stream_yields_one_chunk_per_object_plus_frame():
    members = _rich_members()
    chunks = list(encode_cluster_stream(**_codec_args(members)))
    assert len(chunks) == len(members) + 2  # open tag, members, close tag
    assert chunks[0].startswith("<swap-cluster ")
    assert chunks[-1] == "</swap-cluster>"


def test_streamed_text_decodes_back():
    members = _rich_members()
    text = "".join(encode_cluster_stream(**_codec_args(members)))
    document = decode_cluster(
        text, registry=global_registry(), resolve_out=lambda index: f"out-{index}"
    )
    rebuilt = document.objects[1]
    assert rebuilt.items == [document.objects[2]]
    assert document.objects[3].right == "text & <markup>"


def test_empty_cluster_streams_self_closing():
    text = "".join(encode_cluster_stream(**_codec_args({})))
    assert text.endswith("/>")
    assert ET.fromstring(text).tag == "swap-cluster"
    assert text == encode_cluster_canonical(**_codec_args({}))[0]


# -- digests --------------------------------------------------------------


def test_incremental_digest_matches_posthoc_digest():
    members = _rich_members()
    text, digest = encode_cluster_canonical(**_codec_args(members))
    assert digest == payload_digest(text)
    assert digest == digest_of_canonical(text)
    assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_encoder_output_is_already_canonical():
    members = _rich_members()
    text, _digest = encode_cluster_canonical(**_codec_args(members))
    assert canonical_text(text) == text


# -- verification ---------------------------------------------------------


def test_verify_payload_accepts_canonical_text():
    members = _rich_members()
    text, digest = encode_cluster_canonical(**_codec_args(members))
    assert verify_payload(text, digest)


def test_verify_payload_accepts_reformatted_text():
    # a foreign producer may pretty-print; the digest is canonical-form
    members = _setup([Node(1)])
    text, digest = encode_cluster_canonical(**_codec_args(members))
    pretty = text.replace("><", ">\n  <")
    assert pretty != text
    assert verify_payload(pretty, digest)


def test_verify_payload_rejects_tampering():
    members = _setup([Node(1)])
    text, digest = encode_cluster_canonical(**_codec_args(members))
    assert not verify_payload(text.replace("1", "2"), digest)


def test_verify_payload_rejects_garbage():
    assert not verify_payload("<<< not xml >>>", "0" * 64)


# -- canonical helpers ----------------------------------------------------


def test_canonical_open_tag_sorts_and_escapes():
    tag = canonical_open_tag("t", {"b": "2", "a": 'va"l&'})
    assert tag == '<t a="va&quot;l&amp;" b="2">'


def test_serialize_element_matches_canonical_text():
    element = ET.fromstring('<doc b="2" a="1"><c/></doc>')
    assert serialize_element(element) == canonical_text(
        '<doc b="2" a="1"><c/></doc>'
    )
