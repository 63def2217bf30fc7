"""The canonical-text scanner against the ElementTree references.

Swap-in decode, the delta splice and the stores' epoch read used to parse
payload text with ElementTree.  Those bodies are kept here, unchanged, as
the reference the scanner-based versions in ``src/`` must match: equal
decoded graphs, byte-identical applied text, equal epochs, and the same
:class:`~repro.errors.CodecError` on bad input.  Foreign (valid but
non-canonical) text must read exactly as the reference reads it.
"""

from __future__ import annotations

import math
import random
import re
from typing import Any, Callable, Dict, List, Tuple
from xml.etree import ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hibernate import hibernate, restore
from repro.devices import InMemoryStore
from repro.errors import CodecError, SyncError
from repro.replication import DirectServerClient, ObjectServer, Replicator
from repro.replication.server import parse_replica_document
from repro.replication.sync import ReplicaSync
from repro.runtime.registry import TypeRegistry, global_registry
from repro.wire.canonical import canonical_open_tag
from repro.wire.delta import apply_cluster_delta, encode_cluster_delta
from repro.wire.wrappers import emit_fields
from repro.runtime import obicomp
from repro.wire.scan import (
    NotCanonical,
    document_epoch,
    looks_foreign,
    read_fields,
    read_value,
    top_level,
    unescape,
)
from repro.wire.xmlcodec import (
    ClusterDocument,
    decode_cluster,
    encode_cluster_canonical,
)
from tests.helpers import Holder, Node, Pair, build_chain, chain_values, make_space
from tests.wire.etree_reference import decode_value, serialize_element

# -- the ElementTree references -----------------------------------------------


def reference_decode_cluster(
    xml_text: str,
    *,
    registry: TypeRegistry,
    resolve_out: Callable[[int], Any],
    resolve_extern: Callable[[Dict[str, str]], Any] | None = None,
) -> ClusterDocument:
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise CodecError(f"malformed swap-cluster XML: {exc}") from exc
    if root.tag != "swap-cluster":
        raise CodecError(f"expected <swap-cluster>, got <{root.tag}>")

    sid = int(root.get("sid", "-1"))
    space = root.get("space", "")
    epoch = int(root.get("epoch", "0"))

    instances: Dict[int, Any] = {}
    field_elements: List[Tuple[int, ET.Element]] = []
    for obj_el in root:
        if obj_el.tag != "object":
            raise CodecError(f"unexpected element <{obj_el.tag}> in swap-cluster")
        oid = int(obj_el.get("oid"))
        class_name = obj_el.get("class", "")
        cls = registry.resolve(class_name)
        instances[oid] = object.__new__(cls)
        field_elements.append((oid, obj_el))

    declared = root.get("count")
    if declared is not None and int(declared) != len(instances):
        raise CodecError(
            f"swap-cluster {sid}: count attribute says {declared} objects, "
            f"document holds {len(instances)}"
        )

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
        return resolve_out(ident)

    for oid, obj_el in field_elements:
        instance = instances[oid]
        for field_el in obj_el:
            if field_el.tag != "field" or len(field_el) != 1:
                raise CodecError(f"malformed <field> in object oid={oid}")
            name = field_el.get("name")
            if not name:
                raise CodecError(f"<field> without name in object oid={oid}")
            value = decode_value(field_el[0], resolve)
            object.__setattr__(instance, name, value)

    return ClusterDocument(sid=sid, space=space, epoch=epoch, objects=instances)


def _strip_whitespace(element: ET.Element) -> None:
    if element.text is not None and not element.text.strip() and len(element):
        element.text = None
    if element.tail is not None and not element.tail.strip():
        element.tail = None
    for child in element:
        _strip_whitespace(child)


def _parse(xml_text: str, expected_tag: str) -> ET.Element:
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise CodecError(f"malformed {expected_tag} XML: {exc}") from exc
    if root.tag != expected_tag:
        raise CodecError(f"expected <{expected_tag}>, got <{root.tag}>")
    _strip_whitespace(root)
    return root


def reference_apply_cluster_delta(base_text: str, delta_text: str) -> str:
    base = _parse(base_text, "swap-cluster")
    delta = _parse(delta_text, "swap-delta")

    if base.get("sid") != delta.get("sid") or base.get("space") != delta.get(
        "space"
    ):
        raise CodecError(
            f"delta for sid={delta.get('sid')} space={delta.get('space')!r} "
            f"does not belong to payload sid={base.get('sid')} "
            f"space={base.get('space')!r}"
        )
    base_epoch = int(base.get("epoch", "0"))
    declared_base = int(delta.get("base-epoch", "-1"))
    if declared_base != base_epoch:
        raise CodecError(
            f"delta applies to base epoch {declared_base} but payload is at "
            f"epoch {base_epoch} (diverged replica; full payload required)"
        )

    members: Dict[int, ET.Element] = {}
    for obj_el in base:
        if obj_el.tag != "object":
            raise CodecError(
                f"unexpected element <{obj_el.tag}> in base swap-cluster"
            )
        members[int(obj_el.get("oid"))] = obj_el

    replaced = 0
    dead = 0
    for el in delta:
        if el.tag == "object":
            members[int(el.get("oid"))] = el
            replaced += 1
        elif el.tag == "tombstone":
            members.pop(int(el.get("oid")), None)
            dead += 1
        else:
            raise CodecError(f"unexpected element <{el.tag}> in swap-delta")
    declared_count = delta.get("count")
    if declared_count is not None and int(declared_count) != replaced:
        raise CodecError(
            f"swap-delta count attribute says {declared_count} objects, "
            f"document holds {replaced}"
        )
    declared_dead = delta.get("dead")
    if declared_dead is not None and int(declared_dead) != dead:
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
        return canonical_open_tag("swap-cluster", attrib)[:-1] + "/>"
    parts = [canonical_open_tag("swap-cluster", attrib)]
    for oid in sorted(members):
        parts.append(serialize_element(members[oid]))
    parts.append("</swap-cluster>")
    return "".join(parts)


def reference_payload_epoch(xml_text: str) -> int:
    try:
        return int(ET.fromstring(xml_text).get("epoch", "0"))
    except (ET.ParseError, ValueError) as exc:
        raise CodecError(f"unreadable payload epoch: {exc}") from exc


# -- random clusters over every wire tag ---------------------------------------


class Extern:
    """An unreplicated-frontier handle: serializes as ``<extref>``."""

    def __init__(self, attrs: Dict[str, str]) -> None:
        self.attrs = attrs

    def _obi_extern_attrs(self) -> Dict[str, str]:
        return self.attrs


# strings the text rule must handle: markup escapes, the \r that XML
# parsers normalize, control characters, lone surrogates, non-BMP text,
# whitespace-only and entity-looking text
_TRICKY = "&<>\"'\r\n\t\x00\x1f\ud800\ufffe\U0001f600 aZ5;#"


# attribute values cannot travel base64-encoded: no surrogates there
_ATTR_TRICKY = "&<>\"'\r\n\t aZ5;#"


def _random_text(rng: random.Random, alphabet: str = _TRICKY) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))


def _random_value(rng, members, foreign, depth=0):
    roll = rng.randrange(17 if depth < 2 else 12)
    if roll == 0:
        return None
    if roll == 1:
        return rng.random() < 0.5
    if roll == 2:
        return rng.choice([0, -1, rng.randrange(-(2**70), 2**70)])
    if roll == 3:
        return rng.choice([rng.uniform(-1e6, 1e6), float("nan"), -0.0, float("inf")])
    if roll == 4:
        return rng.choice(["", " ", _random_text(rng), "plain text"])
    if roll == 5:
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(6)))
        return bytearray(data) if rng.random() < 0.3 else data
    if roll in (6, 7):
        return rng.choice(members) if members else None
    if roll == 8:
        return rng.choice(foreign)
    if roll == 9:
        keys = rng.sample(["cid", "soid", "x-y", "z.0"], rng.randrange(1, 4))
        return Extern({key: _random_text(rng, _ATTR_TRICKY) for key in keys})
    if roll == 10:
        return rng.randrange(1000)
    if roll == 11:
        return rng.choice(["a&b<c>", 'q"uote', "x" * 40, "&lt;&amp;&quot;&#65;"])
    if roll == 12:
        return [
            _random_value(rng, members, foreign, depth + 1)
            for _ in range(rng.randrange(4))
        ]
    if roll == 13:
        return tuple(
            _random_value(rng, members, foreign, depth + 1)
            for _ in range(rng.randrange(3))
        )
    if roll == 14:
        return {rng.randrange(50) for _ in range(rng.randrange(4))}
    if roll == 15:
        return frozenset(_random_text(rng) for _ in range(rng.randrange(3)))
    return {
        rng.choice([f"k{index}", index, (index, "t")]): _random_value(
            rng, members, foreign, depth + 1
        )
        for index in range(rng.randrange(3))
    }


def _fill(rng, obj, members, foreign):
    if rng.random() < 0.1:
        obj.__dict__.clear()  # a field-less member
        return
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


def _random_cluster(rng, size):
    members = {}
    for oid in range(1, size + 1):
        cls = rng.choice((Node, Pair, Holder))
        members[oid] = cls(0) if cls is Node else cls()
    foreign = [Node(-index) for index in range(3)]
    for obj in members.values():
        _fill(rng, obj, list(members.values()), foreign)
    return members, foreign


def _codec_args(members, foreign, epoch=1, objects=None):
    """Encoder arguments; ``objects`` (default: all members) are the ones
    written."""
    oids = {id(obj): oid for oid, obj in members.items()}
    return dict(
        sid=7,
        space="pda&co",
        epoch=epoch,
        objects=members if objects is None else objects,
        oid_of=lambda obj: oids.get(id(obj), -1),
        outbound_index_of=lambda proxy: 0,
        foreign_index_of=foreign.index,
    )


def _encode(seed, size):
    members, foreign = _random_cluster(random.Random(seed), size)
    text, _digest = encode_cluster_canonical(**_codec_args(members, foreign))
    return text


def _decode_with(decoder, text):
    return decoder(
        text,
        registry=global_registry(),
        resolve_out=lambda index: ("out", index),
        resolve_extern=lambda attrs: ("ext", tuple(sorted(attrs.items()))),
    )


def _shape(value, oid_of):
    """A comparable form of a decoded value; members become their oid."""
    if id(value) in oid_of:
        return ("member", oid_of[id(value)])
    kind = type(value)
    if kind is float:
        return ("float", "nan" if math.isnan(value) else repr(value))
    if kind in (list, tuple):
        return (kind.__name__, tuple(_shape(item, oid_of) for item in value))
    if kind in (set, frozenset):
        return (kind.__name__, frozenset(_shape(item, oid_of) for item in value))
    if kind is dict:
        return (
            "dict",
            tuple((_shape(k, oid_of), _shape(v, oid_of)) for k, v in value.items()),
        )
    return (kind.__name__, value)


def _graph(document):
    oid_of = {id(obj): oid for oid, obj in document.objects.items()}
    return (
        document.sid,
        document.space,
        document.epoch,
        {
            oid: (
                type(obj).__name__,
                tuple(
                    (name, _shape(value, oid_of)) for name, value in vars(obj).items()
                ),
            )
            for oid, obj in document.objects.items()
        },
    )


def _outcome(fn, *args):
    """``("ok", result)`` or ``("error", type, message)`` of one call."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("error", type(exc), str(exc))


def _same_decode(text):
    ours = _outcome(_decode_with, decode_cluster, text)
    ref = _outcome(_decode_with, reference_decode_cluster, text)
    if ref[0] == "ok":
        assert ours[0] == "ok", ours
        assert _graph(ours[1]) == _graph(ref[1])
    else:
        assert ours == ref


# -- foreign spellings of valid documents -------------------------------------


def _pretty(text):
    root = ET.fromstring(text)
    ET.indent(root)
    return '<?xml version="1.0"?>\n' + ET.tostring(root, encoding="unicode") + "\n"


def _serialize(element, reverse):
    """Every element with an end tag; attributes sorted, or reversed."""
    attributes = "".join(
        f' {name}="{value}"'
        for name, value in sorted(
            (
                (n, v.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;"))
                for n, v in element.attrib.items()
            ),
            reverse=reverse,
        )
    )
    children = "".join(_serialize(child, reverse) for child in element)
    text = (element.text or "").replace("&", "&amp;").replace("<", "&lt;")
    return f"<{element.tag}{attributes}>{text}{children}</{element.tag}>"


def _retold(text):
    """Parsed and written back by ElementTree: ``" />"`` empty elements."""
    return ET.tostring(ET.fromstring(text), encoding="unicode")


def _reordered(text):
    """Attributes in reverse order, every element with an end tag."""
    return _serialize(ET.fromstring(text), reverse=True)


def _end_tags(text):
    """Canonical but for empty elements, written with end tags."""
    return _serialize(ET.fromstring(text), reverse=False)


def _char_refs(text):
    """Digits in text content written as character references."""
    def refs(match):
        digits = re.sub(r"\d", lambda d: f"&#{ord(d.group())};", match.group(1))
        return f">{digits}<"

    return re.sub(r">([^<]+)<", refs, text)


def _cdata(text):
    def wrap(match):
        raw = unescape(match.group(1))
        if "]]>" in raw:
            return match.group(0)
        return f"<str><![CDATA[{raw}]]></str>"

    return re.sub(r"<str>([^<]+)</str>", wrap, text)


FOREIGN = [_pretty, _retold, _reordered, _end_tags, _char_refs, _cdata]


# -- decode -------------------------------------------------------------------


# -- field runs: read_fields against decode_value ------------------------------

#: field, param and root names: attribute text without line breaks
_NAME_CHARS = "ab&<>\"' 5;#"
_NO_BREAKS = str.maketrans("", "", "\r\n\t")


def _field_run(seed, size, tag):
    """A random run of named values: ``(text, members)``."""
    rng = random.Random(seed)
    members = [Node(index) for index in range(3)]
    values = {
        _random_text(rng, _NAME_CHARS) + str(index): _random_value(
            rng, members, members
        )
        for index in range(size)
    }
    oids = {id(member): oid for oid, member in enumerate(members)}

    def classify(value):
        if id(value) in oids:
            return ("local", oids[id(value)])
        if isinstance(value, Extern):
            # a parser normalizes breaks in attribute values: text that
            # holds them raw is not canonical, and only scan_once reads it
            return ("ext", {k: v.translate(_NO_BREAKS) for k, v in value.attrs.items()})
        return None

    parts = []
    emit_fields(parts, values, classify, tag=tag)
    return "".join(parts), values


def _symbolic(kind, ident):
    return (kind, tuple(sorted(ident.items())) if kind == "ext" else ident)


def reference_read_fields(run, tag):
    root = ET.fromstring(f"<run>{run}</run>")
    values = {}
    for element in root:
        assert element.tag == tag and len(element) == 1
        values[element.get("name")] = decode_value(element[0], _symbolic)
    return values


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 6),
    tag=st.sampled_from(["field", "param", "root"]),
)
def test_read_fields_matches_reference(seed, size, tag):
    run, _values = _field_run(seed, size, tag)
    ours = read_fields(run, _symbolic, tag=tag)
    ref = reference_read_fields(run, tag)
    assert list(ours) == list(ref)
    assert _shape(ours, {}) == _shape(ref, {})


@pytest.mark.parametrize(
    "run",
    [
        '<field name="a"><int>1</int></field>x',
        '<field name="a"><int>1</int>',
        '<field name="a"/>',
        '<field  name="a"><int>1</int></field>',
        '<field name="a" x="1"><int>1</int></field>',
        '<field name="a"><int>1</int><int>2</int></field>',
        '<param name="a"><int>1</int></param>',
        '<field name="a"><none /></field>',
    ],
)
def test_read_fields_rejects_other_spellings(run):
    with pytest.raises(NotCanonical):
        read_fields(run, _symbolic)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 12))
def test_decode_matches_reference(seed, size):
    _same_decode(_encode(seed, size))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 8),
    spelling=st.sampled_from(FOREIGN),
)
def test_foreign_spellings_decode_like_the_reference(seed, size, spelling):
    _same_decode(spelling(_encode(seed, size)))


def test_foreign_spellings_change_the_text():
    text = _encode(20070625, 6)
    for spelling in FOREIGN:
        assert spelling(text) != text, spelling.__name__
    for spelling in (_pretty, _retold, _end_tags, _char_refs, _cdata):
        assert looks_foreign(spelling(text)), spelling.__name__
    none_only = _node(_field("value", "<none/>"))
    assert looks_foreign(_end_tags(none_only))
    assert not looks_foreign(none_only)


def test_field_less_member_and_empty_cluster():
    lone = Pair()
    lone.__dict__.clear()
    text, _ = encode_cluster_canonical(**_codec_args({1: lone}, []))
    assert '<object class="Pair" oid="1"/>' in text
    _same_decode(text)
    empty, _ = encode_cluster_canonical(**_codec_args({}, []))
    assert empty.endswith("/>")
    _same_decode(empty)
    assert decode_cluster(
        empty, registry=global_registry(), resolve_out=lambda index: None
    ).objects == {}


# -- numbers are ASCII digits ----------------------------------------------------


def _one_node(oid: str, value: str) -> str:
    return (
        '<swap-cluster count="1" epoch="0" sid="1" space="s">'
        f'<object class="Node" oid="{oid}">'
        f'<field name="value">{value}</field><field name="next"><none/></field>'
        "</object></swap-cluster>"
    )


@pytest.mark.parametrize(
    "oid, value",
    [
        ("1", "<int>\u00b2</int>"),  # "²".isdigit(), but int("²") fails
        ("\u0661\u0662", "<int>\u0661</int>"),  # Arabic-Indic 12 and 1
        ("\u0661", "<int>1</int>"),
        ("1", "<int>-\u0661</int>"),
        ("1", "<int>\uff11</int>"),  # fullwidth 1
        ("1", '<ref oid="\u0661"/>'),
        ("1", '<outref index="\u0661"/>'),
    ],
)
@pytest.mark.parametrize("path", ["general", "compiled"])
def test_non_ascii_digits_are_a_codec_error(oid, value, path):
    if path == "general":
        obicomp.SHAPE_DECODERS.clear()
    else:  # the Node shape is compiled by a first read
        decode_cluster(
            _one_node("1", "<int>1</int>"),
            registry=global_registry(),
            resolve_out=lambda index: index,
        )
    with pytest.raises(CodecError):
        decode_cluster(
            _one_node(oid, value),
            registry=global_registry(),
            resolve_out=lambda index: index,
        )


def test_ascii_numbers_read_as_before():
    def read(value):
        return decode_cluster(
            _one_node("1", value),
            registry=global_registry(),
            resolve_out=lambda index: index,
        ).objects[1]

    assert read("<int>-12</int>").value == -12
    assert read("<int>007</int>").value == 7
    node = read('<ref oid="1"/>')
    assert node.value is node
    assert read('<outref index="3"/>').value == 3


def _twice_node(count: str) -> str:
    """Two members with oid 1: the second's fields differ."""
    member = (
        '<object class="Node" oid="1"><field name="value"><int>{}</int></field>'
        '<field name="next"><none/></field></object>'
    )
    return (
        f'<swap-cluster count="{count}" epoch="0" sid="1" space="s">'
        f"{member.format(1)}{member.format(2)}</swap-cluster>"
    )


@pytest.mark.parametrize("count", ["1", "2"])
@pytest.mark.parametrize("path", ["general", "compiled"])
def test_a_repeated_oid_is_a_codec_error(count, path):
    def decode(text):
        return decode_cluster(
            text, registry=global_registry(), resolve_out=lambda index: index
        )

    if path == "general":
        obicomp.SHAPE_DECODERS.clear()
    else:  # the Node shape is compiled by a first read
        decode(_one_node("1", "<int>1</int>"))
    with pytest.raises(CodecError, match="oid=1 is repeated"):
        decode(_twice_node(count))


def test_non_ascii_digits_in_the_general_readers():
    def resolve(kind, ident):
        return (kind, ident)

    for text in (
        "<int>\u00b2</int>",
        '<ref oid="\u0661"/>',
        '<outref index="\u0661"/>',
    ):
        with pytest.raises(CodecError):
            read_value(text, resolve)
        with pytest.raises(CodecError):
            read_fields(f'<field name="x">{text}</field>', resolve)
    assert read_value("<int>42</int>", resolve) == 42


def test_a_tombstone_oid_is_ascii():
    delta = (
        '<swap-delta base-epoch="0" count="1" dead="1" epoch="1" sid="1" space="s">'
        '<tombstone oid="{}"/></swap-delta>'
    )
    _attrs, events = top_level(delta.format("12"), "swap-delta")
    assert events == [("tombstone", 12, "", "")]
    with pytest.raises(NotCanonical):
        top_level(delta.format("\u0661\u0662"), "swap-delta")


_ARABIC_INDIC = str.maketrans(
    "0123456789", "".join(chr(0x0660 + digit) for digit in range(10))
)


def _arabic(text: str, attr: str, value: str) -> str:
    """``text`` with its first ``attr="value"`` spelled in Arabic-Indic
    digits, which ``int()`` reads as the same number."""
    ascii_attr = f' {attr}="{value}"'
    assert ascii_attr in text
    return text.replace(
        ascii_attr, f' {attr}="{value.translate(_ARABIC_INDIC)}"', 1
    )


@pytest.mark.parametrize(
    "attr, value", [("count", "1"), ("epoch", "0"), ("sid", "1")]
)
def test_non_ascii_digits_in_cluster_attributes(attr, value):
    text = _one_node("1", "<int>1</int>")

    def decode(text):
        return decode_cluster(
            text, registry=global_registry(), resolve_out=lambda index: index
        )

    assert decode(text).sid == 1
    with pytest.raises(CodecError):
        decode(_arabic(text, attr, value))


def test_document_epoch_reads_ascii_digits_only():
    text = '<swap-cluster count="0" epoch="2" sid="3" space="s"></swap-cluster>'
    assert document_epoch(text) == 2
    with pytest.raises(CodecError):
        document_epoch(_arabic(_arabic(text, "epoch", "2"), "sid", "3"))


_DELTA_BASE = (
    '<swap-cluster count="1" epoch="1" sid="1" space="s">'
    '<object class="Node" oid="1"><field name="value"><int>1</int></field>'
    '<field name="next"><none/></field></object></swap-cluster>'
)
_DELTA = (
    '<swap-delta base-epoch="1" count="1" dead="0" epoch="2" sid="1" space="s">'
    '<object class="Node" oid="1"><field name="value"><int>2</int></field>'
    '<field name="next"><none/></field></object></swap-delta>'
)


@pytest.mark.parametrize(
    "which, attr, value",
    [
        ("base", "epoch", "1"),
        ("delta", "base-epoch", "1"),
        ("delta", "count", "1"),
        ("delta", "dead", "0"),
    ],
)
def test_non_ascii_digits_in_delta_attributes(which, attr, value):
    assert ' epoch="2"' in apply_cluster_delta(_DELTA_BASE, _DELTA)
    base, delta = _DELTA_BASE, _DELTA
    if which == "base":
        base = _arabic(base, attr, value)
    else:
        delta = _arabic(delta, attr, value)
    with pytest.raises(CodecError):
        apply_cluster_delta(base, delta)


@pytest.mark.parametrize(
    "attr, value", [("sid", "0"), ("epoch", "1"), ("cids", "1"), ("toid", "1")]
)
def test_non_ascii_digits_in_a_hibernation_manifest(tmp_path, attr, value):
    space = make_space()
    space.manager.add_store(InMemoryStore("pc"))
    space.ingest(build_chain(20), cluster_size=5, root_name="items")
    space.swap_out(2)
    manifest = hibernate(space, tmp_path)
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(_arabic(text, attr, value), encoding="utf-8")
    with pytest.raises(CodecError):
        restore(tmp_path)
    manifest.write_text(text, encoding="utf-8")
    assert chain_values(restore(tmp_path).get_root("items")) == list(range(20))


def _replica_world():
    server = ObjectServer()
    server.publish("data", build_chain(30), cluster_size=10)
    replicator = Replicator(make_space(), DirectServerClient(server))
    return server, replicator, replicator.replicate("data")


@pytest.mark.parametrize(
    "attr, value", [("cid", "1"), ("version", "1"), ("cid", "2"), ("oid", "11")]
)
def test_non_ascii_digits_in_a_replica_document(attr, value):
    server, _replicator, _handle = _replica_world()
    text = server.fetch_cluster("data", 1)
    assert parse_replica_document(text)[1] == [(2, 11)]
    with pytest.raises(CodecError):
        parse_replica_document(_arabic(text, attr, value))


@pytest.mark.parametrize(
    "attr, value", [("cid", "1"), ("base_version", "2"), ("soid", "11")]
)
def test_non_ascii_digits_in_a_push_document(attr, value):
    server, replicator, handle = _replica_world()
    chain_values(handle)
    pushed = []
    apply_push = server.apply_push
    server.apply_push = lambda text: pushed.append(text) or apply_push(text)
    handle.set_value(999)
    ReplicaSync(replicator).push(1)
    # the same push again, based on the version the first one made
    text = pushed[0].replace(' base_version="1"', ' base_version="2"')
    with pytest.raises(SyncError) as caught:
        apply_push(_arabic(text, attr, value))
    assert isinstance(caught.value.__cause__, CodecError)
    assert apply_push(text).accepted


def test_non_ascii_digits_in_an_extref_the_replicator_resolves():
    _server, replicator, _handle = _replica_world()
    assert replicator._resolve_extern({"cid": "2", "soid": "11"}, 1) is not None
    for attrs in (
        {"cid": "\u0662", "soid": "11"},
        {"cid": "2", "soid": "\u0661\u0661"},
    ):
        with pytest.raises(CodecError):
            replicator._resolve_extern(attrs, 1)


def test_unsorted_attributes_read_through_one_canonicalization():
    text = (
        '<swap-cluster sid="1" space="s" epoch="0" count="1">'
        '<object oid="1" class="Node">'
        '<field name="value"><int>1</int></field>'
        '<field name="next"><extref soid="9" cid="4"/></field>'
        "</object></swap-cluster>"
    )
    _same_decode(text)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8), data=st.data())
def test_decode_errors_match_reference(seed, size, data):
    text = _encode(seed, size)
    breakage = data.draw(st.sampled_from(["truncate", "count", "dangling", "tag"]))
    if breakage == "truncate":
        cut = data.draw(st.integers(0, len(text) - 1))
        broken = text[:cut]
    elif breakage == "count":
        broken = re.sub(r'count="\d+"', f'count="{size + 3}"', text, count=1)
    elif breakage == "dangling":
        oid = data.draw(st.integers(1, size))
        broken = re.sub(rf'<object class="\w+" oid="{oid}"(/>|>.*?</object>)', "", text)
        broken = re.sub(r'count="\d+"', f'count="{size - 1}"', broken, count=1)
    else:
        broken = text.replace("<int>", "<integer>").replace("</int>", "</integer>")
        broken = broken.replace("<none/>", "<nothing/>")
    ours = _outcome(_decode_with, decode_cluster, broken)
    ref = _outcome(_decode_with, reference_decode_cluster, broken)
    if ref[0] == "ok":
        assert ours[0] == "ok"
        assert _graph(ours[1]) == _graph(ref[1])
    else:
        assert ours == ref


def _node(body="", count=""):
    """A one-member document around ``body`` (the member's fields)."""
    head = f'<swap-cluster{count}><object class="Node" oid="1"'
    tail = "</swap-cluster>"
    return f"{head}/>{tail}" if not body else f"{head}>{body}</object>{tail}"


def _field(name, value):
    return f'<field name="{name}">{value}</field>'


#: documents the scanner reads exactly as the reference does, errors
#: word for word; then documents whose structure is malformed (the
#: scanner reports those as unreadable text)
_SAME_MESSAGE = [
    "",
    "<swap-cluster",
    "<not-a-cluster/>",
    _node(
        _field("value", "<int>1</int>") + _field("next", '<ref oid="2"/>'),
        count=' count="1"',
    ),
    _node(_field("value", "<float>x</float>"), count=' count="1"'),
    '<swap-cluster><tombstone oid="1"/></swap-cluster>',
    _node(_field("next", '<extref cid="1"/>')),
    _node(_field("next", "<thing/>")),
    '<swap-cluster><object class="Vanished" oid="1"/></swap-cluster>',
    _node() + "<!--rot-->",
    _node(_field("value", "<str>a&#0;b</str>")),
    _node(_field("value", "<str>a<b</str>")),
]
_MALFORMED = [
    _node(_field("value", "<dict><item/></dict>")),
    _node(_field("value", "<int>1</int><int>2</int>")),
    _node("<field><int>1</int></field>"),
    _node("<item/>"),
]


def _decode_plain(decoder, text):
    return decoder(text, registry=global_registry(), resolve_out=lambda index: index)


@pytest.mark.parametrize("text", _SAME_MESSAGE)
def test_hand_written_documents_match_reference(text):
    ours = _outcome(_decode_plain, decode_cluster, text)
    ref = _outcome(_decode_plain, reference_decode_cluster, text)
    if ref[0] == "ok":
        assert ours[0] == "ok"
        assert _graph(ours[1]) == _graph(ref[1])
    else:
        assert ours == ref


def test_mixed_content_is_not_a_wire_value():
    # ElementTree keeps a str's text and drops its child; wire values are
    # never mixed content, so the scanner refuses the document
    text = _node(_field("value", "<str>a<b/></str>"))
    assert _decode_plain(reference_decode_cluster, text).objects[1].value == "a"
    with pytest.raises(CodecError, match="unreadable swap-cluster text"):
        _decode_plain(decode_cluster, text)


@pytest.mark.parametrize("text", _MALFORMED)
def test_malformed_structure_is_a_codec_error(text):
    with pytest.raises(CodecError):
        _decode_plain(reference_decode_cluster, text)
    with pytest.raises(CodecError, match="unreadable swap-cluster text"):
        _decode_plain(decode_cluster, text)


# -- delta splice -------------------------------------------------------------


def _delta_round(seed, size, dead_share, dirty_share, ghosts):
    """(base text, delta text): the base at epoch 1, then a delta that
    re-ships ``dirty`` survivors and tombstones ``dead`` members (plus
    ``ghosts`` oids the base never held)."""
    rng = random.Random(seed)
    members, foreign = _random_cluster(rng, size)
    dead = {oid for oid in members if rng.random() < dead_share}
    live = [obj for oid, obj in members.items() if oid not in dead]
    for obj in members.values():
        _fill(rng, obj, live, foreign)
    base_text, _ = encode_cluster_canonical(**_codec_args(members, foreign))
    dirty = {oid for oid in members if oid not in dead and rng.random() < dirty_share}
    for oid in sorted(dirty):
        _fill(rng, members[oid], live, foreign)
    delta_args = _codec_args(
        members, foreign, epoch=2, objects={oid: members[oid] for oid in dirty}
    )
    delta_args.update(
        base_epoch=1,
        dead_oids=dead | {500 + ghost for ghost in range(ghosts)},
        member_oids=set(members) - dead,
    )
    delta_text, _ = encode_cluster_delta(**delta_args)
    return base_text, delta_text


deltas = st.builds(
    _delta_round,
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 10),
    dead_share=st.sampled_from([0.0, 0.3, 1.0]),
    dirty_share=st.sampled_from([0.0, 0.5, 1.0]),
    ghosts=st.integers(0, 2),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair=deltas)
def test_splice_is_byte_identical_to_reference(pair):
    base_text, delta_text = pair
    applied = apply_cluster_delta(base_text, delta_text)
    assert applied == reference_apply_cluster_delta(base_text, delta_text)
    assert document_epoch(applied) == 2


def test_delta_that_empties_the_cluster():
    base_text, delta_text = _delta_round(
        5, 4, dead_share=1.0, dirty_share=0.0, ghosts=1
    )
    applied = apply_cluster_delta(base_text, delta_text)
    assert applied == reference_apply_cluster_delta(base_text, delta_text)
    assert applied.endswith('count="0" epoch="2" sid="7" space="pda&amp;co"/>')


@pytest.mark.parametrize("spelling", FOREIGN)
def test_each_foreign_spelling_splices_like_the_reference(spelling):
    base_text, delta_text = _delta_round(
        20070625, 8, dead_share=0.3, dirty_share=0.5, ghosts=1
    )
    expected = reference_apply_cluster_delta(base_text, delta_text)
    assert apply_cluster_delta(spelling(base_text), delta_text) == expected
    assert apply_cluster_delta(base_text, spelling(delta_text)) == expected


@pytest.mark.parametrize("extra", ["<!--note-->", "<?pi data?>"])
def test_markup_the_parser_drops_inside_a_member(extra):
    base_text, delta_text = _delta_round(
        7, 4, dead_share=0.0, dirty_share=0.5, ghosts=0
    )
    for pair in (
        (base_text.replace("</field>", extra + "</field>", 1), delta_text),
        (base_text, delta_text.replace("</field>", extra + "</field>", 1)),
    ):
        assert pair != (base_text, delta_text)
        assert apply_cluster_delta(*pair) == reference_apply_cluster_delta(*pair)
        _same_decode(pair[0])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair=deltas, spelling=st.sampled_from(FOREIGN), which=st.sampled_from([0, 1]))
def test_foreign_spellings_splice_like_the_reference(pair, spelling, which):
    pair = list(pair)
    pair[which] = spelling(pair[which])
    assert apply_cluster_delta(*pair) == reference_apply_cluster_delta(*pair)


def _break_delta(base_text, delta_text, breakage, cut):
    if breakage == "truncate-base":
        return base_text[: cut % max(1, len(base_text))], delta_text
    if breakage == "truncate-delta":
        return base_text, delta_text[: cut % max(1, len(delta_text))]
    if breakage == "sid":
        return base_text, delta_text.replace('sid="7"', 'sid="8"')
    if breakage == "space":
        return base_text, delta_text.replace('space="pda&amp;co"', 'space="pda"')
    if breakage == "base-epoch":
        return base_text, delta_text.replace('base-epoch="1"', 'base-epoch="0"')
    if breakage == "count":
        return base_text, re.sub(r' count="\d+"', ' count="99"', delta_text)
    if breakage == "dead":
        return base_text, re.sub(r' dead="\d+"', ' dead="99"', delta_text)
    if breakage == "element":
        head, sep, tail = delta_text.rpartition("</swap-delta>")
        if not sep:  # self-closing empty delta
            return base_text, delta_text[:-2] + "><mystery/></swap-delta>"
        return base_text, head + "<mystery/>" + sep + tail
    head, sep, tail = base_text.rpartition("</swap-cluster>")
    if not sep:
        return base_text[:-2] + '><tombstone oid="1"/></swap-cluster>', delta_text
    return head + '<tombstone oid="1"/>' + sep + tail, delta_text


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pair=deltas,
    breakage=st.sampled_from(
        [
            "truncate-base",
            "truncate-delta",
            "sid",
            "space",
            "base-epoch",
            "count",
            "dead",
            "element",
            "base-element",
        ]
    ),
    cut=st.integers(0, 10_000),
)
def test_splice_errors_match_reference(pair, breakage, cut):
    broken = _break_delta(*pair, breakage, cut)
    ours = _outcome(apply_cluster_delta, *broken)
    ref = _outcome(reference_apply_cluster_delta, *broken)
    assert ours == ref


# -- store epoch read ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 6),
    spelling=st.sampled_from([lambda text: text] + FOREIGN),
)
def test_epoch_read_matches_reference(seed, size, spelling):
    text = spelling(_encode(seed, size))
    assert document_epoch(text) == reference_payload_epoch(text) == 1


@pytest.mark.parametrize(
    "text",
    [
        "",
        "<swap-cluster",
        '<swap-cluster epoch="x"/>',
        '<swap-cluster epoch="3"><object',
        "rot",
    ],
)
def test_unreadable_epoch_raises_like_reference(text):
    with pytest.raises(CodecError, match="unreadable payload epoch"):
        reference_payload_epoch(text)
    with pytest.raises(CodecError, match="unreadable payload epoch"):
        document_epoch(text)


def test_rotted_tail_does_not_read():
    """The fault injector's bitrot cuts a payload's tail; the header alone
    must not vouch for it."""
    from repro.faults.plan import mangle_payload

    text = _encode(1, 3)
    with pytest.raises(CodecError):
        document_epoch(mangle_payload(text))
