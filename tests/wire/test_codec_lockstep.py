"""The compiled per-shape member codec against the interpreted one.

``tests/wire/codec_reference.py`` keeps the member encoder and decoder
that interpreted every field.  Here random clusters are written by both
encoders and read by ``decode_cluster`` and by the reference decoder
over :func:`~repro.wire.scan.top_level`'s member spans, and must agree:
byte-identical text, and decoded ``__dict__``s equal in content and key
order.  The clusters churn shapes the way applications do: a field added
after the first encode, a field deleted, the same names in another dict
order, subclasses, members of one class whose shapes differ, and caches
small enough to be cleared mid-run.

``CHAOS_SEED`` in the environment picks the hypothesis seed (default 1)
and, when set, raises the example budget.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
import signal
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import Space, managed
from repro.clock import SimulatedClock
from repro.devices import InMemoryStore
from repro.errors import CodecError
from repro.runtime import obicomp
from repro.runtime.registry import global_registry
from repro.wire import scan
from repro.wire.scan import scan_once, top_level
from repro.wire.xmlcodec import decode_cluster, encode_object_element
from tests.wire import codec_reference as reference

SEED = int(os.environ.get("CHAOS_SEED", "1"))
EXAMPLES = 1000 if "CHAOS_SEED" in os.environ else 100


@managed
class Shape:
    pass


@managed
class SubShape(Shape):
    pass


class PlainSubShape(Shape):
    """Not decorated: it writes as its base class's schema name."""


class _Escaped(Shape):
    pass


# a schema name the document writes escaped: class="A&amp;&quot;&lt;B&gt;"
_Escaped.__qualname__ = 'A&"<B>'
Escaped = managed(_Escaped)

CLASSES = (Shape, SubShape, PlainSubShape, Escaped)
RESOLVE_CLASS = {"Shape": Shape, "SubShape": SubShape, 'A&"<B>': Escaped}.__getitem__
#: what ``decode_cluster`` reads class names with
REGISTRY = SimpleNamespace(resolve=RESOLVE_CLASS)


class Level(enum.IntEnum):
    LOW = 1


class Count(int):
    pass


class Out:
    """A swap-cluster-proxy stand-in: an ``<outref>``."""

    def __init__(self, index: int) -> None:
        self.index = index


class Ext:
    """An unreplicated-frontier stand-in: an ``<extref>``."""

    def __init__(self, attrs: Dict[str, str]) -> None:
        self.attrs = attrs


class Local:
    """A placeholder for the ``index``-th member of the cluster."""

    def __init__(self, index: int) -> None:
        self.index = index


# names: a small pool so shapes repeat within and across examples, odd
# but writable spellings, private names, and ones no XML can carry
NAMES = st.one_of(
    st.sampled_from(["a", "b", "c", "next", "value", "_private"]),
    st.sampled_from(["", "a&b", 'q"t', "<x>", "{f}", "it's", "é", "\\", "1st"]),
    st.text(max_size=4),
)
TEXTS = st.one_of(
    st.text(max_size=10),
    st.lists(
        st.sampled_from("&<>\"'\r\n\t\x00\x01\x7f\x85\ud800\ufffe\U0001f600 aZ2"),
        max_size=8,
    ).map("".join),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.sampled_from(list(Level)),
    st.integers(-50, 50).map(Count),
    st.floats(),
    TEXTS,
    st.binary(max_size=8),
    st.integers(0, 40).map(Out),
    st.dictionaries(st.sampled_from(["cid", "soid"]), TEXTS, max_size=2).map(Ext),
    st.integers(0, 7).map(Local),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(st.integers(-5, 5), max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)
FIELDS = st.lists(st.tuples(NAMES, VALUES), max_size=5)
CHURN = st.sampled_from(["add", "delete", "reorder", "obi", "none"])
CLUSTERS = st.lists(
    st.tuples(st.sampled_from(CLASSES), FIELDS, CHURN, st.tuples(NAMES, VALUES)),
    min_size=1,
    max_size=6,
)


def _build(spec) -> List[Any]:
    members = [cls() for cls, _fields, _churn, _extra in spec]
    for member, (_cls, fields, _churn, _extra) in zip(members, spec):
        for name, value in fields:
            vars(member)[name] = _resolve(value, members)
    return members


def _resolve(value: Any, members: List[Any]) -> Any:
    """``value`` with each :class:`Local` replaced by its member."""
    if isinstance(value, Local):
        return members[value.index % len(members)]
    if isinstance(value, (list, tuple)):
        return type(value)(_resolve(item, members) for item in value)
    if isinstance(value, dict):
        return {key: _resolve(item, members) for key, item in value.items()}
    return value


def _churn(member: Any, churn: str, extra: tuple, members: List[Any]) -> None:
    slots = vars(member)
    if churn == "add":
        name, value = extra
        slots[name] = _resolve(value, members)
    elif churn == "delete" and slots:
        del slots[next(iter(slots))]
    elif churn == "reorder":
        items = list(slots.items())
        slots.clear()
        slots.update(reversed(items))
    elif churn == "obi":
        slots["_obi_oid"] = 1  # middleware bookkeeping: never written


def _encode(encode, members: List[Any]):
    """``(text, None)`` of a cluster document, or ``(None, error type)``."""
    oids = {id(member): oid for oid, member in enumerate(members, start=1)}

    def classify(value: Any):
        if isinstance(value, Out):
            return ("out", value.index)
        if isinstance(value, Ext):
            return ("ext", value.attrs)
        oid = oids.get(id(value))
        return None if oid is None else ("local", oid)

    try:
        body = "".join(
            encode(oid, member, classify, oids)
            for oid, member in enumerate(members, start=1)
        )
    except (CodecError, ValueError) as exc:
        return None, type(exc)
    return (
        f'<swap-cluster count="{len(members)}" epoch="0" sid="1" space="s">'
        f"{body}</swap-cluster>"
    ), None


def _decode(text: str) -> List[List[tuple]]:
    """The members :func:`decode_cluster` reads from ``text`` (see
    :func:`_members`)."""
    return _members(
        lambda: decode_cluster(
            text,
            registry=REGISTRY,
            resolve_out=lambda index: ("out", index),
            resolve_extern=lambda attrs: ("ext", sorted(attrs.items())),
        ).objects
    )


def _reference_decode(text: str) -> List[List[tuple]]:
    """The members the reference decoder reads from ``text``'s
    :func:`top_level` events (see :func:`_members`)."""

    def read(canonical: str):
        attrs, events = top_level(canonical, "swap-cluster")
        return reference.decode_members(
            events,
            sid=1,
            declared_count=attrs["count"],
            resolve_class=RESOLVE_CLASS,
            resolve_out=lambda index: ("out", index),
            resolve_extern=lambda attrs: ("ext", sorted(attrs.items())),
        )

    return _members(lambda: scan_once(text, "swap-cluster", read))


def _members(decode: Callable[[], Dict[int, Any]]) -> List[List[tuple]]:
    """Each decoded member's ``__dict__`` items, in order, with members
    named by oid and references by kind; or the type of the error."""
    try:
        instances = decode()
    except Exception as exc:  # noqa: BLE001 - both readers must fail alike
        return [[("error", type(exc))]]
    oid_of = {id(instance): oid for oid, instance in instances.items()}
    return [
        [(type(instances[oid]), None)]
        + [(name, _named(value, oid_of)) for name, value in vars(instances[oid]).items()]
        for oid in sorted(instances)
    ]


def _named(value: Any, oid_of: Dict[int, int]) -> Any:
    oid = oid_of.get(id(value))
    if oid is not None:
        return ("member", oid)
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_named(item, oid_of) for item in value])
    if isinstance(value, dict):
        return ("dict", [(key, _named(item, oid_of)) for key, item in value.items()])
    if isinstance(value, float) and math.isnan(value):
        return ("nan", math.copysign(1.0, value))
    return (type(value), value)


def _lockstep(members: List[Any]) -> None:
    text, error = _encode(encode_object_element, members)
    expected_text, expected_error = _encode(reference.encode_object_element, members)
    assert (text, error) == (expected_text, expected_error)
    if text is not None:
        assert _decode(text) == _reference_decode(text)


@pytest.fixture(params=["default", "tiny"])
def shape_limits(request, monkeypatch):
    """The shape caches as configured, or bounded so low that they are
    cleared while the test runs."""
    if request.param == "tiny":
        monkeypatch.setattr(obicomp, "SHAPE_CACHE_LIMIT", 2)
    return request.param


@seed(SEED)
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(rounds=st.lists(CLUSTERS, min_size=1, max_size=2))
def test_compiled_codec_matches_interpreted_reference(shape_limits, rounds):
    for spec in rounds:
        members = _build(spec)
        _lockstep(members)
        for member, (_cls, _fields, churn, extra) in zip(members, spec):
            _churn(member, churn, extra, members)
        _lockstep(members)


#: a few field-name runs, so that the scanner meets each shape again
#: (the empty run writes a self-closing member)
RUNS = st.sampled_from([(), ("a",), ("a", "b"), ("b", "a"), ("a", "b", "next")])
#: field values weighted towards references, forward ones included
MEMBER_VALUES = st.one_of(st.integers(0, 7).map(Local), SCALARS)
SHAPED = st.lists(
    st.tuples(
        st.sampled_from(CLASSES),
        RUNS,
        st.lists(MEMBER_VALUES, min_size=3, max_size=3),
    ),
    min_size=1,
    max_size=8,
)


@seed(SEED)
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(rounds=st.lists(SHAPED, min_size=1, max_size=3))
def test_scanner_follows_shapes_that_change_within_a_cluster(shape_limits, rounds):
    """Mixed classes, an escaped class name and runs that change from
    member to member; later rounds meet the shapes earlier ones taught
    the scanner."""
    for spec in rounds:
        members = [cls() for cls, _run, _values in spec]
        for member, (_cls, run, values) in zip(members, spec):
            for name, value in zip(run, values):
                vars(member)[name] = _resolve(value, members)
        _lockstep(members)


def _pair_text() -> str:
    """Two members that refer to each other, the first one forward."""
    first, second = Shape(), Shape()
    first.a, first.b = 1, second
    second.a, second.b = 2, first
    text, error = _encode(encode_object_element, [first, second])
    assert error is None
    return text


@pytest.mark.parametrize(
    "old, new, fails",
    [
        ("</object><object", '</object><tombstone oid="3"/><object', True),
        # foreign text between members: canonical_text rejects it
        ("</object><object", "</object>text<object", True),
        ("</object><object", "<object", True),  # the first member is not closed
        ('count="2"', 'count="3"', True),
        ('<ref oid="2"/>', '<ref oid="9"/>', True),  # dangling
    ],
    ids=["tombstone", "text", "unclosed", "count", "dangling"],
)
@pytest.mark.parametrize("path", ["general", "compiled"])
def test_a_broken_cluster_reads_like_the_reference(path, old, new, fails):
    text = _pair_text()
    obicomp.SHAPE_DECODERS.clear()
    if path == "compiled":
        assert _decode(text) == _reference_decode(text)  # learns the shape
        assert "Shape" in obicomp.SHAPE_DECODERS
    assert old in text
    broken = text.replace(old, new, 1)
    outcome = _decode(broken)
    assert (outcome[0][0][0] == "error") is fails
    assert outcome == _reference_decode(broken)


def test_a_subclass_decorated_after_its_first_encode():
    class Late(Shape):
        pass

    member = Late()
    member.a = 1
    first, _ = _encode(encode_object_element, [member])
    assert '<object class="Shape"' in first  # its base's schema
    managed(Late)
    second, _ = _encode(encode_object_element, [member])
    assert '<object class="Shape"' not in second and "Late" in second
    _lockstep([member])


# -- shapes that change under a compiled decoder -------------------------------


@managed
class WideRecord:
    """Forty int fields: a shape whose compiled regex, were its
    alternatives to overlap, would take 2**40 tries to fail."""

    def __init__(self, width: int = 40) -> None:
        for index in range(width):
            setattr(self, f"f{index}", index)


class Overrun(BaseException):
    """A block ran past its deadline.  Not an :class:`Exception`, so the
    decoder's retry on canonical text does not catch it."""


@contextlib.contextmanager
def _deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`Overrun` in the block once ``seconds`` pass (``re``
    matching checks for signals, so a runaway match stops)."""

    def expire(signum, frame):
        raise Overrun(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _wide_document(last: str, *, members: int = 1, close: str = "</object>") -> str:
    """``members`` :class:`WideRecord` members with fields ``f0`` to
    ``f39``; the first has ``last`` after them and ends in ``close``."""
    fields = "".join(
        f'<field name="f{index}"><int>{index}</int></field>' for index in range(40)
    )
    body = "".join(
        f'<object class="WideRecord" oid="{oid}">{fields}'
        + (f"{last}{close}" if oid == 1 else "</object>")
        for oid in range(1, members + 1)
    )
    return (
        f'<swap-cluster count="{members}" epoch="0" sid="1" space="s">'
        f"{body}</swap-cluster>"
    )


def _decode_wide(text: str) -> Any:
    return decode_cluster(
        text, registry=global_registry(), resolve_out=lambda index: index
    )


def test_a_member_that_gained_a_field_swaps_in_promptly():
    space = Space("wide", heap_capacity=1 << 20, clock=SimulatedClock())
    space.manager.add_store(InMemoryStore("pc"))
    handle = space.ingest(WideRecord(), cluster_size=10, root_name="wide")
    space.swap_out(1)
    assert handle.f39 == 39  # swap-in: the 40-field shape is compiled
    handle.f40 = 40
    space.swap_out(1)
    with _deadline(5):
        assert handle.f40 == 40  # the 40-field decoder fails to match first
    assert handle.f0 == 0
    space.verify_integrity()


@pytest.mark.parametrize(
    "last",
    [
        '<field name="f40"><int>x</int></field>',  # not a number
        '<field name="f40"><int>\u00b2</int></field>',  # not an ASCII one
        '<field name="f40"><ref oid="9"/></field>',  # dangling
        '<field name="f40"><int>40</int>',  # not closed
        '<field name="f40"><int>40</int></feld>',  # closed wrong
    ],
)
def test_a_corrupted_last_field_fails_promptly(last):
    with _deadline(5):
        _decode_wide(_wide_document('<field name="f40"><int>40</int></field>'))
    with _deadline(5), pytest.raises(CodecError):
        _decode_wide(_wide_document(last))  # the 41-field decoder is tried first
    obicomp.SHAPE_DECODERS.clear()  # the general reader fails alike
    with _deadline(5), pytest.raises(CodecError):
        _decode_wide(_wide_document(last))


_F40 = '<field name="f40"><int>40</int></field>'


@pytest.mark.parametrize("primed", ["", _F40], ids=["40-field", "41-field"])
@pytest.mark.parametrize(
    "last, close",
    [
        ('<field name="f40"><int>x</int></field>', "</object>"),  # corrupted
        (_F40, ""),  # not closed: a match runs on into the next member's head
        ('<field name="f40"><list><int>40</int></list></field>', ""),
        ("", ""),
    ],
    ids=["corrupted", "unclosed", "unclosed-other-value", "unclosed-40"],
)
def test_a_member_the_matcher_misses_fails_promptly(primed, last, close):
    """The whole-member matcher of a 40- or 41-field shape, tried on the
    first of three members, which is broken."""
    with _deadline(5):
        _decode_wide(_wide_document(primed))
    with _deadline(5), pytest.raises(CodecError):
        _decode_wide(_wide_document(last, members=3, close=close))


@pytest.mark.parametrize("primed", ["", _F40], ids=["40-field", "41-field"])
def test_a_grown_member_among_others_decodes_promptly(primed):
    """The first of three members gained a field: the 40-field matcher
    misses it and fits the others, the 41-field one the other way round."""
    with _deadline(5):
        _decode_wide(_wide_document(primed))
        objects = _decode_wide(_wide_document(_F40, members=3)).objects
    assert objects[1].f40 == 40 and objects[1].f39 == 39
    assert "f40" not in vars(objects[2]) and objects[3].f39 == 39


def test_alternating_shapes_compile_each_shape_once(monkeypatch):
    compiled: List[tuple] = []

    def compile_decoder(class_name, names):
        compiled.append((class_name, names))
        return obicomp.compile_decoder(class_name, names)

    monkeypatch.setattr(scan, "compile_decoder", compile_decoder)
    obicomp.SHAPE_DECODERS.clear()
    obicomp.RUN_DECODERS.clear()
    members = [Shape() for _ in range(12)]
    for index, member in enumerate(members):
        member.left = index
        if index % 2:
            member.right = members[index - 1]
    text, error = _encode(encode_object_element, members)
    assert error is None
    for _ in range(2):
        assert _decode(text) == _reference_decode(text)
    assert compiled == [("Shape", ("left",)), ("Shape", ("left", "right"))]
