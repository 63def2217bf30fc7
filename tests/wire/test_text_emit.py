"""The direct canonical-text encoder against the ElementTree reference.

Every document is written as canonical XML straight into string chunks.
The ElementTree path it replaced — build an element with
``encode_value``, then serialize it with ``serialize_element`` — is kept
in ``tests/wire/etree_reference.py`` as the reference: every digest a
store holds was computed over that text, so the two must agree byte for
byte.
"""

from __future__ import annotations

import enum
import random
from xml.etree import ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.wire.canonical import digest_of_canonical
from repro.wire.delta import apply_cluster_delta, encode_cluster_delta
from repro.wire.wrappers import _UNWRITABLE_NAME, emit_fields, emit_value
from repro.wire.xmlcodec import encode_cluster_canonical
from tests.helpers import Holder, Node, Pair
from tests.wire.etree_reference import encode_value, serialize_element


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Count(int):
    pass


class Label(str):
    pass


class Marker:
    """A stand-in reference the classifier maps to a ref kind."""

    def __init__(self, kind, ident):
        self.kind = kind
        self.ident = ident


def _classify(value):
    if isinstance(value, Marker):
        return (value.kind, value.ident)
    return None


def _reference(value):
    return serialize_element(encode_value(value, _classify))


def _emitted(value):
    parts = []
    emit_value(parts, value, _classify)
    return "".join(parts)


# characters the string rule must handle: markup escapes, the \r that XML
# parsers normalize, control characters, lone surrogates, non-BMP text
_TRICKY = "&<>\"'\r\n\t\x00\x01\x1f\x7f\ud800\udfff\ufffe\uffff\U0001f600 aZ"

texts = st.one_of(
    st.text(max_size=12),
    st.lists(st.sampled_from(_TRICKY), max_size=12).map("".join),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    texts,
    st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
    st.sampled_from(list(Level)),
    st.integers(-1000, 1000).map(Count),
    texts.map(Label),
)
hashables = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), texts, st.binary(max_size=6)
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.frozensets(inner, max_size=4)
    ),
    max_leaves=6,
)
markers = st.one_of(
    st.integers(0, 300).map(lambda oid: Marker("local", oid)),
    st.integers(0, 300).map(lambda index: Marker("out", index)),
    st.dictionaries(
        st.sampled_from(["cid", "soid", "x-y"]), texts, max_size=3
    ).map(lambda attrs: Marker("ext", attrs)),
)
values = st.recursive(
    st.one_of(scalars, markers),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
        st.dictionaries(hashables, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(value=values)
def test_emitter_matches_elementtree_reference(value):
    assert _emitted(value) == _reference(value)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    fields=st.dictionaries(texts, values, max_size=4),
    tag=st.sampled_from(["field", "param", "root"]),
)
def test_emit_fields_matches_elementtree_reference(fields, tag):
    parts = []
    if any(_UNWRITABLE_NAME.search(name) for name in fields):
        # a name no parser reads back as written is refused, not written
        with pytest.raises(CodecError, match="cannot be written"):
            emit_fields(parts, fields, _classify, tag=tag)
        return
    emit_fields(parts, fields, _classify, tag=tag)
    reference = []
    for name, value in fields.items():
        element = ET.Element(tag, {"name": name})
        element.append(encode_value(value, _classify))
        reference.append(serialize_element(element))
    assert "".join(parts) == "".join(reference)


def test_emitter_edge_cases_match_reference():
    for value in [
        "",
        b"",
        bytearray(),
        "\r\n",
        "\x00",
        "\ud800",
        "a&b<c>d\"e'",
        2**300,
        -(2**300),
        Level.HIGH,
        Count(7),
        Label(""),
        Label("x<y"),
        float("nan"),
        float("-inf"),
        -0.0,
        [],
        (),
        set(),
        frozenset(),
        {},
        {"k": []},
        [None, True, False, ("t",), {1, 2}, frozenset({"a"})],
        Marker("ext", {}),
        Marker("ext", {"cid": 'a"&<b'}),
    ]:
        assert _emitted(value) == _reference(value), repr(value)


# -- cluster-level equalities -------------------------------------------------

_CLASSES = (Node, Pair, Holder)


def _random_cluster(rng, size, foreign_count=3):
    """(members by oid, foreign objects) built from ``rng``."""
    members = {}
    for oid in range(1, size + 1):
        cls = rng.choice(_CLASSES)
        obj = cls(0) if cls is Node else cls()
        object.__setattr__(obj, "_test_oid", oid)
        members[oid] = obj
    foreign = []
    for index in range(foreign_count):
        obj = Node(-index)
        object.__setattr__(obj, "_test_oid", 1000 + index)
        foreign.append(obj)
    for obj in members.values():
        _fill(rng, obj, list(members.values()), foreign)
    return members, foreign


def _random_value(rng, members, foreign, depth=0):
    roll = rng.randrange(14 if depth < 2 else 10)
    if roll == 0:
        return None
    if roll == 1:
        return rng.random() < 0.5
    if roll == 2:
        return rng.randrange(-(2**70), 2**70)
    if roll == 3:
        return rng.uniform(-1e6, 1e6)
    if roll == 4:
        return "".join(rng.choice(_TRICKY) for _ in range(rng.randrange(8)))
    if roll == 5:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(6)))
    if roll in (6, 7):
        return rng.choice(members)
    if roll == 8:
        return rng.choice(foreign)
    if roll == 9:
        return rng.randrange(1000)
    if roll == 10:
        return [
            _random_value(rng, members, foreign, depth + 1) for _ in range(3)
        ]
    if roll == 11:
        return tuple(
            _random_value(rng, members, foreign, depth + 1) for _ in range(2)
        )
    if roll == 12:
        return {rng.randrange(50) for _ in range(3)}
    return {
        f"k{index}": _random_value(rng, members, foreign, depth + 1)
        for index in range(rng.randrange(3))
    }


def _fill(rng, obj, members, foreign):
    if isinstance(obj, Node):
        obj.value = _random_value(rng, members, foreign)
        obj.next = rng.choice(members + [None])
    elif isinstance(obj, Pair):
        obj.left = _random_value(rng, members, foreign)
        obj.right = _random_value(rng, members, foreign)
    else:
        obj.items = [_random_value(rng, members, foreign) for _ in range(3)]
        obj.index = {"a": _random_value(rng, members, foreign)}
        obj.fixed = (_random_value(rng, members, foreign),)


def _codec_args(members, foreign, epoch=1):
    def foreign_index_of(obj):
        return foreign.index(obj)

    return dict(
        sid=7,
        space="pda",
        epoch=epoch,
        objects=members,
        oid_of=lambda obj: obj._test_oid,
        outbound_index_of=lambda proxy: 0,
        foreign_index_of=foreign_index_of,
    )


def _delta_args(members, foreign, dirty, dead, base_epoch=1, epoch=2):
    args = _codec_args(
        {oid: members[oid] for oid in dirty}, foreign, epoch=epoch
    )
    args.update(
        base_epoch=base_epoch,
        dead_oids=set(dead),
        member_oids=set(members) - set(dead),
    )
    return args


def _delta_round(rng, members, foreign, dead, dirty):
    """(base text, delta text, full text of the mutated survivors).

    Every member is refilled first so that only survivors are referenced
    (a collected member is unreachable), then the base is encoded, the
    ``dirty`` survivors mutate, and both the delta and a full encode of
    the new epoch are produced.
    """
    live = [obj for oid, obj in members.items() if oid not in dead]
    for obj in members.values():
        _fill(rng, obj, live, foreign)
    base_text, _ = encode_cluster_canonical(**_codec_args(members, foreign))
    for oid in sorted(dirty):
        _fill(rng, members[oid], live, foreign)
    delta_text, _ = encode_cluster_delta(
        **_delta_args(members, foreign, dirty, dead)
    )
    survivors = {oid: obj for oid, obj in members.items() if oid not in dead}
    full_text, _ = encode_cluster_canonical(
        **_codec_args(survivors, foreign, epoch=2)
    )
    return base_text, delta_text, full_text


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 20))
def test_delta_applied_to_base_equals_full_encode(seed, size):
    rng = random.Random(seed)
    members, foreign = _random_cluster(rng, size)
    dead = set(rng.sample(sorted(members), rng.randrange(size)))
    survivors = sorted(set(members) - dead)
    dirty = set(rng.sample(survivors, rng.randrange(len(survivors) + 1)))
    base_text, delta_text, full_text = _delta_round(
        rng, members, foreign, dead, dirty
    )
    assert apply_cluster_delta(base_text, delta_text) == full_text


# -- pinned digests -----------------------------------------------------------
# Recorded with the ElementTree encoder.  Stores hold payloads verified
# against these digests, so the canonical text must never drift.  The
# seeded generators above are part of the pin: changing them changes the
# documents, not the encoder.

PINNED_CLUSTER_DIGEST = (
    "f8c82d29d254c5731ada8712b6c753c9bb2a93a1a20c63fd283af69b83bb4f3e"
)
PINNED_DELTA_DIGEST = (
    "87e44337c3aafb4f92631759f7cde848597655332f80ddd47c628d74909cf5df"
)


def _pinned_cluster():
    return _random_cluster(random.Random(20070625), 40)


def test_pinned_cluster_digest():
    members, foreign = _pinned_cluster()
    _text, digest = encode_cluster_canonical(**_codec_args(members, foreign))
    assert digest == PINNED_CLUSTER_DIGEST


def test_pinned_delta_digest():
    members, foreign = _pinned_cluster()
    _base, delta_text, _full = _delta_round(
        random.Random(14), members, foreign, dead={5, 8, 33}, dirty={3, 21, 40}
    )
    assert digest_of_canonical(delta_text) == PINNED_DELTA_DIGEST
