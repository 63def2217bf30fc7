"""Canonicalization and digests."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from types import SimpleNamespace

from repro.errors import CodecError
from repro.wire.canonical import (
    canonical_text,
    payload_digest,
    utf8_len,
    verify_payload,
)
from repro.wire.xmlcodec import decode_cluster


def test_whitespace_insensitive():
    compact = "<a><b>text</b></a>"
    spaced = "<a>\n  <b>text</b>\n</a>"
    assert canonical_text(compact) == canonical_text(spaced)


def test_attribute_order_insensitive():
    assert canonical_text('<a x="1" y="2"/>') == canonical_text('<a y="2" x="1"/>')


def test_text_preserved():
    assert "text with  spaces" in canonical_text("<a>text with  spaces</a>")


def test_escaping():
    text = canonical_text("<a>&lt;tag&gt; &amp; more</a>")
    assert "&lt;tag&gt;" in text and "&amp;" in text


def test_attribute_quote_escaping():
    original = '<a name="say &quot;hi&quot;"/>'
    assert "&quot;hi&quot;" in canonical_text(original)


def test_digest_stable_across_formatting():
    assert payload_digest("<a><b/></a>") == payload_digest("<a>\n <b/>\n</a>")


def test_digest_differs_for_different_content():
    assert payload_digest("<a>1</a>") != payload_digest("<a>2</a>")


def test_malformed_raises():
    with pytest.raises(CodecError):
        canonical_text("<oops")


def test_self_closing_empty_elements():
    assert canonical_text("<a></a>") == "<a/>"


class Node:
    pass


def test_stray_text_between_or_after_members_is_rejected():
    clean = (
        '<swap-cluster count="2" epoch="0" sid="3">'
        '<object class="Node" oid="1"/><object class="Node" oid="2"/>'
        "</swap-cluster>"
    )
    stray = clean.replace('"1"/>', '"1"/>rot').replace(
        '"2"/>', '"2"/>tail'
    )
    with pytest.raises(CodecError):
        canonical_text(stray)
    assert verify_payload(clean, payload_digest(clean))
    assert not verify_payload(stray, payload_digest(clean))
    registry = SimpleNamespace(resolve={"Node": Node}.__getitem__)
    assert len(
        decode_cluster(clean, registry=registry, resolve_out=int).objects
    ) == 2
    with pytest.raises(CodecError):
        decode_cluster(stray, registry=registry, resolve_out=int)


def _outcome(function, text):
    try:
        return "ok", function(text)
    except Exception as exc:  # noqa: BLE001 - compared across the two
        return "raised", type(exc)


# encodable text, and text that may hold lone surrogates (they cannot be
# encoded; the default alphabet leaves them out)
_SURROGATES = st.characters(
    min_codepoint=0xD800, max_codepoint=0xDFFF, blacklist_categories=()
)
_ANY_TEXT = st.text(st.characters()) | st.text(st.characters() | _SURROGATES)


@example("")
@example("<a>plain ascii</a>")
@example("caf\u00e9 \u2603 \U0001f600")
@example("\ud800")
@example("ascii then a lone surrogate \udfff")
@given(_ANY_TEXT)
def test_utf8_len_matches_encoding(text):
    assert _outcome(utf8_len, text) == _outcome(
        lambda value: len(value.encode("utf-8")), text
    )
