"""Value wrapping, including property-based round-trips.

Values are written with :func:`~repro.wire.wrappers.emit_value` and read
back with :func:`~repro.wire.scan.read_value`, the pair every document
uses; ``tests/wire/etree_reference.py`` keeps the ElementTree codec they
replaced as a reference.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.wire.scan import read_value
from repro.wire.wrappers import emit_value
from tests.wire.etree_reference import decode_value, encode_value, serialize_element


def _no_refs(_value):
    return None


def _no_resolve(kind, ident):
    raise AssertionError("no references expected")


def _emit(value, classify=_no_refs):
    parts = []
    emit_value(parts, value, classify)
    return "".join(parts)


def roundtrip(value):
    text = _emit(value)
    assert text == serialize_element(encode_value(value, _no_refs))
    return read_value(text, _no_resolve)


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -17,
        2**80,
        1.5,
        -0.0,
        "plain",
        "",
        "uni→code 🚀",
        "<xml> & entities",
        "control \x00\x1f chars",
        "carriage\rreturn",
        "lone surrogate \udcff",
        "  leading and trailing  ",
        b"",
        b"\x00\xff\x10",
        [],
        [1, "two", 3.0, None],
        (1, (2, 3)),
        set(),
        {1, 2, 3},
        frozenset({"a", "b"}),
        {},
        {"k": "v", 1: [2, 3]},
        {(1, 2): "tuple key"},
        [[["deep"]]],
    ],
)
def test_roundtrip_values(value):
    assert roundtrip(value) == value


def test_roundtrip_preserves_types():
    assert isinstance(roundtrip((1, 2)), tuple)
    assert isinstance(roundtrip([1, 2]), list)
    assert isinstance(roundtrip(frozenset({1})), frozenset)
    assert isinstance(roundtrip({1}), set)
    assert isinstance(roundtrip(b"x"), bytes)


def test_bool_not_confused_with_int():
    assert roundtrip(True) is True
    assert roundtrip(1) == 1 and roundtrip(1) is not True


def test_nan_and_infinities():
    assert math.isnan(roundtrip(float("nan")))
    assert roundtrip(float("inf")) == float("inf")
    assert roundtrip(float("-inf")) == float("-inf")


def test_unencodable_type_raises():
    class Strange:
        pass

    with pytest.raises(CodecError):
        _emit(Strange())


def test_classifier_local_reference():
    sentinel = object()

    def classify(value):
        return ("local", 42) if value is sentinel else None

    text = _emit(sentinel, classify)
    assert text == '<ref oid="42"/>'
    resolved = read_value(text, lambda kind, ident: ("got", kind, ident))
    assert resolved == ("got", "local", 42)


def test_classifier_out_reference():
    sentinel = object()
    text = _emit(sentinel, lambda v: ("out", 3) if v is sentinel else None)
    assert text == '<outref index="3"/>'
    assert read_value(text, lambda k, i: (k, i)) == ("out", 3)


def test_classifier_ext_reference():
    sentinel = object()
    text = _emit(
        sentinel, lambda v: ("ext", {"soid": 2, "cid": 1}) if v is sentinel else None
    )
    assert text == '<extref cid="1" soid="2"/>'
    kind_attrs = read_value(text, lambda k, a: (k, a))
    assert kind_attrs == ("ext", {"cid": "1", "soid": "2"})


def test_references_inside_containers():
    sentinel = object()

    def classify(value):
        return ("local", 7) if value is sentinel else None

    text = _emit([1, sentinel, {"k": sentinel}], classify)
    decoded = read_value(text, lambda k, i: f"obj-{i}")
    assert decoded == [1, "obj-7", {"k": "obj-7"}]
    reference = decode_value(
        encode_value([1, sentinel, {"k": sentinel}], classify),
        lambda k, i: f"obj-{i}",
    )
    assert decoded == reference


def test_set_encoding_deterministic():
    assert _emit({3, 1, 2}) == _emit({2, 3, 1}) == "<set><int>1</int><int>2</int><int>3</int></set>"


# -- property-based -----------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),
    st.binary(max_size=64),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.tuples(children, children),
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_roundtrip_property(value):
    assert roundtrip(value) == value
