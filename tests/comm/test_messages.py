"""XML envelopes."""

import pytest

from repro.comm.messages import (
    build_request,
    build_response,
    parse_request,
    parse_response,
)
from repro.errors import CodecError, UnknownKeyError


def test_request_roundtrip():
    text = build_request("store", {"key": "k1", "text": "<xml/>", "n": 3})
    op, params = parse_request(text)
    assert op == "store"
    assert params == {"key": "k1", "text": "<xml/>", "n": 3}


def test_request_with_containers():
    text = build_request("op", {"items": [1, 2, {"k": "v"}]})
    _, params = parse_request(text)
    assert params["items"] == [1, 2, {"k": "v"}]


def test_response_ok_roundtrip():
    assert parse_response(build_response({"used": 12})) == {"used": 12}
    assert parse_response(build_response(None)) is None


def test_response_error_reraises_typed():
    text = build_response(error=UnknownKeyError("no key 'x'"))
    with pytest.raises(UnknownKeyError, match="no key"):
        parse_response(text)


def test_response_unknown_error_kind_falls_back():
    from repro.errors import ObiError

    text = build_response(error=ValueError("odd"))
    with pytest.raises(ObiError):  # ValueError isn't an ObiError: mapped
        parse_response(text.replace("ValueError", "NotARealError"))


def test_malformed_request():
    with pytest.raises(CodecError):
        parse_request("<envelope op='x'")
    with pytest.raises(CodecError):
        parse_request("<wrong/>")
    with pytest.raises(CodecError):
        parse_request("<envelope></envelope>")


def test_malformed_response():
    with pytest.raises(CodecError):
        parse_response("<response status='ok'></response>")
    with pytest.raises(CodecError):
        parse_response("<nope/>")


def test_payload_cannot_carry_references():
    text = build_request("op", {"v": 1})
    hacked = text.replace("<int>1</int>", '<ref oid="5"/>')
    with pytest.raises(CodecError):
        parse_request(hacked)


def test_envelopes_are_canonical_text():
    from repro.wire.canonical import canonical_text

    for text in (
        build_request("store", {"key": "k", "text": "<x/>", "n": None}),
        build_request("ping", {}),
        build_response({"used": 12, "none": None}),
        build_response(error=UnknownKeyError('no key <x> & "y"')),
    ):
        assert text == canonical_text(text)
    assert build_request("store", {"n": None}).endswith("<none/></param></envelope>")


# spelled as ElementTree.tostring wrote them: "<none />", attributes in
# insertion order
ETREE_REQUEST = (
    '<envelope op="store"><param name="key"><str>pda/sc-3/e1</str></param>'
    '<param name="text"><str>&lt;x/&gt;</str></param>'
    '<param name="n"><none /></param></envelope>'
)
ETREE_RESPONSE = (
    '<response status="ok"><result><dict><entry><k><str>used</str></k>'
    "<v><int>12</int></v></entry><entry><k><str>none</str></k><v><none /></v>"
    "</entry></dict></result></response>"
)
ETREE_ERROR = (
    '<response status="error" kind="UnknownKeyError">'
    'no key &lt;x&gt; &amp; "y"</response>'
)


def test_elementtree_spelled_envelopes_still_parse():
    assert parse_request(ETREE_REQUEST) == (
        "store",
        {"key": "pda/sc-3/e1", "text": "<x/>", "n": None},
    )
    assert parse_response(ETREE_RESPONSE) == {"used": 12, "none": None}
    with pytest.raises(UnknownKeyError, match='no key <x> & "y"'):
        parse_response(ETREE_ERROR)


@pytest.mark.parametrize(
    "message",
    ["key \x01x", "bell\x07 and nul\x00", "line\r\nbreak\r", "lone \ud800 half"],
)
def test_unsafe_error_messages_round_trip_typed(message):
    text = build_response(error=UnknownKeyError(message))
    assert 'enc="b64"' in text
    with pytest.raises(UnknownKeyError) as raised:
        parse_response(text)
    assert str(raised.value) == message


def test_safe_error_envelopes_are_unchanged():
    assert build_response(error=UnknownKeyError('no key <x> & "y"')) == (
        '<response kind="UnknownKeyError" status="error">'
        'no key &lt;x&gt; &amp; "y"</response>'
    )
