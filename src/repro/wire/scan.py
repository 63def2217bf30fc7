"""Reading canonical XML text without an XML parser.

Every payload on the swap path is *canonical* text (see
:mod:`repro.wire.canonical`): the encoders write it directly, stores hand
it back, and the delta splice rebuilds it from the spans of canonical
documents.  So is every other document the package writes: hibernation
images, envelopes, replica and push documents.  Canonical text has one
spelling per document:

* attributes sorted by name, double-quoted, one space before each;
* no whitespace between elements, empty elements self-closing;
* only the ``&amp; &lt; &gt;`` entities in text and ``&amp; &lt; &gt;
  &quot;`` in attribute values; no comments, CDATA or declarations.

So the swap path reads it with ``str.split``/``find`` and anchored
regexes instead of building an element tree.  Swap-in
(:func:`scan_members`) reads a ``<swap-cluster>`` body in one scan: one
regex match per member, head, fields and close, by the decoder compiled
for the member's class name and field names.  The other readers split a
document into its root attributes and one span per top-level element
(:func:`top_level`) and read member fields from those spans with
:func:`read_fields`, the general reader of any run of named values.

**Canonicalize once.**  The readers here accept exactly the canonical
form and raise :class:`NotCanonical` on anything else.
:func:`scan_once` runs such text through
:func:`~repro.wire.canonical.canonical_text` once and reads it again; a
second failure is a :class:`~repro.errors.CodecError`.  Foreign text — a
store that pretty-prints, hand-written XML — thus reads exactly as its
canonical form does, the same rule
:func:`~repro.wire.canonical.verify_payload` applies to digests.
"""

from __future__ import annotations

import base64
import re
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.errors import CodecError
from repro.runtime import obicomp
from repro.runtime.obicomp import (
    RUN_DECODERS,
    SHAPE_DECODERS,
    compile_decoder,
    register_accessors,
)
from repro.wire.canonical import canonical_text

T = TypeVar("T")


class NotCanonical(Exception):
    """Text outside the canonical form; :func:`scan_once` canonicalizes it."""


# -- lexical pieces -----------------------------------------------------------

# characters XML cannot carry raw (or that a parser normalizes away)
_LATIN_NEVER = r"\r\x00-\x08\x0b\x0c\x0e-\x1f"
_NEVER = rf"{_LATIN_NEVER}\ud800-\udfff\ufffe\uffff"
_NAME = r"(?!xmlns)[^\W\d][\w.-]*"
_AVAL_CH = rf'[^"<>&\t\n{_NEVER}]'
_TEXT_CH = rf"[^<>&{_NEVER}]"
_AVAL = rf"{_AVAL_CH}*(?:&(?:amp|lt|gt|quot);{_AVAL_CH}*)*"
_TEXT = rf"{_TEXT_CH}*(?:&(?:amp|lt|gt);{_TEXT_CH}*)*"
#: :data:`_TEXT` with only its exclusions below U+0100, for the compiled
#: decoders: a class that excludes characters past U+00FF takes ~0.6 ms
#: to compile, and every field of every shape has one.  Text it matches
#: that is not ASCII is checked against :data:`_TEXT_OK` as well.
_LATIN_TEXT_CH = rf"[^<>&{_LATIN_NEVER}]"
_LATIN_TEXT = rf"{_LATIN_TEXT_CH}*(?:&(?:amp|lt|gt);{_LATIN_TEXT_CH}*)*"
_ATTRS = rf'(?: {_NAME}="{_AVAL}")*'

#: one open (or self-closing) tag: name, raw attribute run, "/" or ""
_OPEN_TAG = re.compile(rf"<({_NAME})({_ATTRS})(/?)>")
_TEXT_OK = re.compile(_TEXT)
_AVAL_OK = re.compile(_AVAL)

#: whitespace inside or between tags, where line breaks or tabs occur
_SPACED_MARKUP = re.compile(r">\s|\s<|[\t\n][^<>]*>")
#: an empty element written with an end tag
_END_TAGGED_EMPTY = re.compile(r"<[^\s/<>!?]+(?: [^<>]*)?(?<!/)></")

def unescape(text: str) -> str:
    """Inverse of the canonical escapes (input already checked)."""
    if "&" not in text:
        return text
    return (
        text.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&amp;", "&")
    )


def _parse_attrs(raw: str) -> Dict[str, str]:
    """Attributes of one tag from the raw run :data:`_OPEN_TAG` matched.

    Raises :class:`NotCanonical` unless the names are strictly sorted.
    """
    if not raw:
        return {}
    # the run is ' name="value"' repeated and values hold no raw quote
    parts = raw.split('"')
    names = [part[1:-1] for part in parts[:-1:2]]
    if len(names) > 1 and names != sorted(set(names)):
        raise NotCanonical("attributes out of canonical order")
    return dict(zip(names, map(unescape, parts[1::2])))


def looks_foreign(text: str) -> bool:
    """Whether ``text`` bears a mark foreign serializers leave.

    The marks: line breaks or tabs next to markup (pretty-printing),
    ``" />"``, empty elements written with end tags, single-quoted
    attributes, character references and other entities, comments, CDATA,
    processing instructions and ``\\r``.  Single-character probes gate
    the costlier searches, so canonical text pays a few ``memchr`` scans.
    A false alarm costs one canonicalization, never a wrong result.
    """
    if "\r" in text or "'" in text and "='" in text:
        return True
    if "!" in text and "<!" in text or "?" in text and "<?" in text:
        return True
    if "&" in text and text.count("&") != (
        text.count("&amp;")
        + text.count("&lt;")
        + text.count("&gt;")
        + text.count("&quot;")
    ):
        return True
    if ("\n" in text or "\t" in text) and _SPACED_MARKUP.search(text):
        return True
    slash = text.find("/>")
    if slash < 0:
        # no self-closing tag: a serializer that writes every empty
        # element with an end tag, or text with no empty element at all
        return _END_TAGGED_EMPTY.search(text) is not None
    return text[slash - 1] == " "


def scan_once(
    text: str, what: str, read: Callable[[str], T], *, screen: bool = False
) -> T:
    """``read(text)``, or ``read(canonical_text(text))`` when ``text`` is
    not canonical.

    A first read that fails on foreign text is retried once on its
    canonical form; an error on text that *is* canonical is re-raised as
    it is.  With ``screen``, text that :func:`looks_foreign` is
    canonicalized before the first read (for readers that copy spans
    without tokenizing them).  Text that does not parse raises
    ``CodecError("malformed <what> XML: …")``.
    """
    if screen and looks_foreign(text):
        return _read_canonical(_canonical(text, what), what, read)
    try:
        return read(text)
    except Exception as exc:  # noqa: BLE001 - re-raised below unless foreign
        first = exc
    canonical = _canonical(text, what)
    if canonical != text:
        return _read_canonical(canonical, what, read)
    if isinstance(first, NotCanonical):
        raise CodecError(f"unreadable {what} text: {first}") from first
    raise first


def _canonical(text: str, what: str) -> str:
    try:
        return canonical_text(text)
    except CodecError as exc:
        cause = exc.__cause__
        raise CodecError(f"malformed {what} XML: {cause}") from cause


def _read_canonical(canonical: str, what: str, read: Callable[[str], T]) -> T:
    try:
        return read(canonical)
    except NotCanonical as exc:
        raise CodecError(f"unreadable {what} text: {exc}") from exc


# -- documents ----------------------------------------------------------------


#: the root tags the swap path reads, with their canonical attributes:
#: a root spelled exactly so (no entities) is read by one anchored regex
_ROOTS = {
    tag: (
        re.compile(
            f"<{tag}" + "".join(f' {name}="({_AVAL_CH}*)"' for name in names) + "(/?)>"
        ),
        names,
    )
    for tag, names in (
        ("swap-cluster", ("count", "epoch", "sid", "space")),
        ("swap-delta", ("base-epoch", "count", "dead", "epoch", "sid", "space")),
    )
}


def read_root(
    text: str, root: str = "swap-cluster"
) -> Tuple[Dict[str, str], int, int]:
    """``(attributes, body start, body end)`` of a canonical document.

    Only the root open tag and the closing envelope are read.  The body
    is ``text[start:end]`` (empty for a self-closing root).  Another root
    tag raises ``CodecError("expected <root>, got <tag>")``.
    """
    known = _ROOTS.get(root)
    match = known[0].match(text) if known is not None else None
    if match is not None:
        *values, closed = match.groups()
        attrs = dict(zip(known[1], values))
    else:
        match = _OPEN_TAG.match(text)
        if match is None:
            raise NotCanonical("no canonical root open tag")
        tag, raw, closed = match.groups()
        if tag != root:
            raise CodecError(f"expected <{root}>, got <{tag}>")
        attrs = _parse_attrs(raw)
    start = match.end()
    if closed:
        if start != len(text):
            raise NotCanonical("text after the root element")
        return attrs, start, start
    end = len(text) - len(root) - 3
    if end < start or not text.endswith(f"</{root}>", end):
        raise NotCanonical("no closing root tag")
    return attrs, start, end


def document_epoch(text: str) -> int:
    """``epoch`` attribute of a stored document, read from its root tag.

    The closing envelope is checked too, so a payload cut short or rotted
    at its tail does not read.  Raises :class:`~repro.errors.CodecError`
    when no epoch can be read.
    """

    def read(candidate: str) -> int:
        attrs, _start, _end = read_root(candidate)
        return read_number(attrs.get("epoch", "0"), "swap-cluster epoch")

    try:
        return scan_once(text, "payload", read)
    except CodecError as exc:
        raise CodecError(f"unreadable payload epoch: {exc}") from exc


def read_document(text: str, root: str) -> Tuple[Dict[str, str], str]:
    """Root attributes and body text of a canonical ``<root>`` document."""
    attrs, start, end = read_root(text, root)
    return attrs, text[start:end]


def leading_element(text: str, tag: str) -> Tuple[str, str]:
    """Content of the attribute-less ``<tag>`` element that opens
    ``text``, and the text after it.

    For wrappers that never nest inside themselves (``<frontier>``,
    ``<roots>``, ``<result>``): the first ``</tag>`` closes the element,
    since canonical text holds no raw ``<`` outside markup.
    """
    if text.startswith(f"<{tag}/>"):
        return "", text[len(tag) + 3 :]
    close = text.find(f"</{tag}>")
    if not text.startswith(f"<{tag}>") or close < 0:
        raise NotCanonical(f"expected a <{tag}> element")
    return text[len(tag) + 2 : close], text[close + len(tag) + 3 :]


def empty_elements(run: str, tag: str) -> List[Dict[str, str]]:
    """Attributes of each element of a run of self-closing ``<tag …/>``
    elements, in order."""
    found = []
    pos = 0
    while pos < len(run):
        match = _OPEN_TAG.match(run, pos)
        if match is None or match.group(1) != tag or not match.group(3):
            raise NotCanonical(f"expected a run of empty <{tag}> elements")
        found.append(_parse_attrs(match.group(2)))
        pos = match.end()
    return found


# Events of a document's top level, in document order, keyed by tag:
#   ("object", oid, span, class)  span: the member's text after "<object "
#   ("tombstone", oid, "", "")
#   (tag, None, "", "")           any other element; callers decide if it
#                                 is an error
Event = Tuple[str, Optional[int], str, str]

#: an ``<object>`` head after "<object ", by the name of its id attribute
#: (push documents identify members by ``soid``)
_OBJECT_HEADS = {
    id_attr: re.compile(rf'class="({_AVAL})" {id_attr}="(-?[0-9]+)"(/?)>')
    for id_attr in ("oid", "soid")
}
_TOMBSTONE = re.compile(r'<tombstone oid="(-?[0-9]+)"/>')


def top_level(
    text: str, root: str, id_attr: str = "oid"
) -> Tuple[Dict[str, str], List[Event]]:
    """Root attributes and the top-level events of a canonical document.

    Scanning stops at the first element that is neither an ``<object>``
    nor a ``<tombstone>``.  Member spans are not tokenized: callers that
    copy them screen the text first (``scan_once(..., screen=True)``);
    callers that read them do so inside the same :func:`scan_once`.
    """
    object_head = _OBJECT_HEADS[id_attr]
    attrs, start, end = read_root(text, root)
    events: List[Event] = []
    parts = text[start:end].split("<object ")
    if parts[0] and not _other_events(parts[0], events):
        return attrs, events
    for part in parts[1:]:
        match = object_head.match(part)
        if match is None:
            raise NotCanonical("malformed <object> tag")
        class_name, oid, closed = match.groups()
        if "&" in class_name:
            class_name = unescape(class_name)
        oid = int(oid)
        if closed:
            stop = match.end()
        elif part[-9:] == "</object>":
            stop = len(part)
        else:
            stop = part.find("</object>") + 9
        if stop < 9:
            raise NotCanonical(f"<object oid={oid}> is not closed")
        if stop == len(part):
            events.append(("object", oid, part, class_name))
            continue
        events.append(("object", oid, part[:stop], class_name))
        if not _other_events(part[stop:], events):
            break
    return attrs, events


def _other_events(text: str, events: List[Event]) -> bool:
    """Append the events of a run of non-object elements; False once an
    element other than a tombstone was met."""
    pos = 0
    while pos < len(text):
        match = _TOMBSTONE.match(text, pos)
        if match is None:
            head = _OPEN_TAG.match(text, pos)
            if head is None or head.group(1) == "tombstone":
                raise NotCanonical("malformed element between members")
            events.append((head.group(1), None, "", ""))
            return False
        events.append(("tombstone", int(match.group(1)), "", ""))
        pos = match.end()
    return True


# -- swap-cluster members ------------------------------------------------------

#: the head of any ``<object>`` member: class as written, oid, "/" or ""
_OBJECT_HEAD = re.compile("<object " + _OBJECT_HEADS["oid"].pattern)


def scan_members(
    text: str,
    start: int,
    end: int,
    *,
    sid: int,
    declared_count: Optional[str],
    resolve_class: Callable[[str], type],
    resolve_out: Callable[[int], Any],
    resolve_extern: Optional[Callable[[Dict[str, str]], Any]],
) -> Dict[int, Any]:
    """Rebuild the members of a ``<swap-cluster>`` from its body,
    ``text[start:end]``, in one scan.

    Pass one matches each member whole, head, field run and close, with
    the decoder compiled for its shape
    (:func:`~repro.runtime.obicomp.compile_decoder`) and allocates it
    uninitialized, so that circular references resolve; pass two writes
    each field into the instance's ``__dict__`` — the inverse of
    :func:`~repro.runtime.classext.instance_fields`, which reads
    ``vars(obj)``.  ``resolve_out`` maps a replacement-array index back
    to the live swap-cluster-proxy; ``resolve_extern`` maps ``<extref>``
    attributes back to an unreplicated-frontier handle.

    A member is tried first against the decoder of the member before it,
    then against the decoder of the newest shape read for its class
    name.  A member neither matches is read by :func:`read_fields`,
    which raises :class:`NotCanonical` on foreign text, and the decoder
    of its shape becomes its class name's.
    """
    instances: Dict[int, Any] = {}
    classes: Dict[str, type] = {}
    # (fill, match or (run, class name), instance, oid) per member
    pending: List[Tuple[Callable[..., None], Any, Any, int]] = []
    append = pending.append
    new = object.__new__
    # the first member is read from its head: _NO_DECODER never matches
    match, fill = _NO_DECODER
    cls = object
    pos = start
    while pos < end:
        found = match(text, pos, end)
        if found is not None:
            pos = found.end()
            oid = int(found[1])
        else:
            head = _OBJECT_HEAD.match(text, pos, end)
            if head is None:
                raise _not_a_member(text, pos, end)
            class_name = head[1]
            cls = classes.get(class_name)
            if cls is None:
                cls = classes[class_name] = resolve_class(unescape(class_name))
            match, fill = SHAPE_DECODERS.get(class_name, _NO_DECODER)
            found = match(text, pos, end)
            if found is not None:
                pos = found.end()
                oid = int(found[1])
            else:
                oid = int(head[2])
                pos = head.end()
                if head[3]:
                    found = "", class_name
                else:
                    close = text.find("</object>", pos, end)
                    if close < 0:
                        raise NotCanonical(f"<object oid={oid}> is not closed")
                    found = text[pos:close], class_name
                    pos = close + 9
                match, fill = _NO_DECODER
        instance = instances[oid] = new(cls)
        append((fill, found, instance, oid))

    if len(instances) != len(pending):
        seen = set()
        for _fill, _found, _instance, oid in pending:
            if oid in seen:
                raise CodecError(f"swap-cluster {sid}: member oid={oid} is repeated")
            seen.add(oid)
    if (
        declared_count is not None
        and read_number(declared_count, "swap-cluster count") != len(instances)
    ):
        raise CodecError(
            f"swap-cluster {sid}: count attribute says {declared_count} "
            f"objects, document holds {len(instances)}"
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

    for fill, found, instance, oid in pending:
        fill(found, instance.__dict__, instances, resolve, resolve_out, oid)
    return instances


def _read_member(
    found: Tuple[str, str],
    slots: Dict[str, Any],
    instances: Dict[int, Any],
    resolve: Resolve,
    resolve_out: Callable[[int], Any],
    oid: int,
) -> None:
    """The filler of a member no compiled decoder matched: its field
    run read by :func:`read_fields`."""
    run, class_name = found
    values = read_fields(run, resolve)
    slots.update(values)
    _learn_shape(class_name, tuple(values))


#: the decoder a scan starts with: its matcher never matches
_NO_DECODER = (re.compile("(?!)").match, _read_member)


def _not_a_member(text: str, pos: int, end: int) -> Exception:
    """The error for ``text[pos:end]``, which does not start with an
    ``<object>`` member."""
    other = _OPEN_TAG.match(text, pos, end)
    if other is None or other[1] == "object":
        return NotCanonical(f"no <object> member at offset {pos}")
    return CodecError(f"unexpected element <{other[1]}> in swap-cluster")


def _learn_shape(class_name: str, names: Tuple[str, ...]) -> None:
    """Make the decoder of a member shape the general reader read the
    one its class name tries first, compiling it if it is new."""
    shape = (class_name, names)
    decode = RUN_DECODERS.get(shape)
    if decode is None:
        if len(RUN_DECODERS) > obicomp.SHAPE_CACHE_LIMIT:
            RUN_DECODERS.clear()
        decode = RUN_DECODERS[shape] = compile_decoder(class_name, names)
    if len(SHAPE_DECODERS) > obicomp.SHAPE_CACHE_LIMIT:
        SHAPE_DECODERS.clear()
    SHAPE_DECODERS[class_name] = decode


# -- member fields ------------------------------------------------------------

#: raw field name (between ``<field name="`` and ``">``) -> field name;
#: cleared past 4,096 names like the compiled shape caches
_FIELD_NAMES: Dict[str, str] = {}


def _field_value(value: str, resolve: Resolve, oid: int) -> Any:
    """A field value the compiled decoders have no inline read for."""
    result, end = _read_value(value, 0, resolve)
    if end != len(value):
        raise NotCanonical(f"malformed <field> in object oid={oid}")
    return result


def member_fields(span: str) -> str:
    """The ``<field>`` run of a member span from :func:`top_level`
    (empty for a self-closing member)."""
    if span[-9:] != "</object>":
        return ""
    return span[span.find('">') + 2 : -9]


def read_fields(run: str, resolve: Resolve, tag: str = "field") -> Dict[str, Any]:
    """Values of a run of ``<tag name="…">value</tag>`` elements, by name
    in document order; the inverse of
    :func:`~repro.wire.wrappers.emit_fields`.

    ``resolve(kind, ident)`` maps ``<ref>`` (``"local"``, oid),
    ``<outref>`` (``"out"``, index) and ``<extref>`` (``"ext"``,
    attributes).  Raises :class:`NotCanonical` on text outside the
    canonical form, so callers read inside :func:`scan_once`.
    """
    values: Dict[str, Any] = {}
    head = f'<{tag} name="'
    pos = 0
    while pos < len(run):
        stop = run.find('">', pos)
        raw = run[pos + len(head) : stop]
        if (
            stop < 0
            or not run.startswith(head, pos)
            or _AVAL_OK.fullmatch(raw) is None
        ):
            raise NotCanonical(f"malformed <{tag}> tag")
        name = _FIELD_NAMES.get(raw)
        if name is None:
            name = _field_name(raw)
        value, pos = _read_value(run, stop + 2, resolve)
        pos = _expect_close(run, pos, tag)
        values[name] = value
    return values


def read_value(text: str, resolve: Resolve) -> Any:
    """The one wire value that ``text`` holds (see :func:`read_fields`)."""
    value, end = _read_value(text, 0, resolve)
    if end != len(text):
        raise NotCanonical("text after the value")
    return value


def read_text(content: str) -> str:
    """Character data of canonical element content that holds no
    elements."""
    if _TEXT_OK.fullmatch(content) is None:
        raise NotCanonical("non-canonical character data")
    return unescape(content)


def _field_name(raw: str) -> str:
    """Cache the name of a checked raw ``<field name="…">``.

    A name first read here may be one that only a stored document
    carries (a foreign store, a hibernation image, a replication pull):
    it gets its swap-cluster-proxy accessor before any member holds it.
    A compiled decoder only writes names this has read first.
    """
    if len(_FIELD_NAMES) > 4096:
        _FIELD_NAMES.clear()
    name = _FIELD_NAMES[raw] = unescape(raw)
    register_accessors((name,))
    return name


_LEAF_TAGS = frozenset(("int", "float", "str", "bytes"))
_REF_TAGS = frozenset(("ref", "outref", "extref"))
_EMPTY_TAGS = {"none": None, "true": True, "false": False}
_SEQUENCES: Dict[str, Callable[[List[Any]], Any]] = {
    "list": list,
    "tuple": tuple,
    "set": set,
    "fset": frozenset,
}

Resolve = Callable[[str, Any], Any]


def _read_value(text: str, pos: int, resolve: Resolve) -> Tuple[Any, int]:
    """Read the one wire value at ``text[pos:]``; return it and the end.

    Handles every tag :mod:`repro.wire.wrappers` writes; ``resolve(kind,
    ident)`` maps ``local``/``out``/``ext`` references.
    """
    match = _OPEN_TAG.match(text, pos)
    if match is None:
        raise NotCanonical("expected a wire value tag")
    tag, raw, closed = match.groups()
    pos = match.end()
    attrs = _parse_attrs(raw) if raw else {}
    if tag in _LEAF_TAGS or tag in _EMPTY_TAGS or tag in _REF_TAGS:
        content: Optional[str] = None
        if not closed:
            stop = text.find("<", pos)
            if stop < 0:
                raise NotCanonical(f"<{tag}> is not closed")
            content = text[pos:stop]
            if _TEXT_OK.fullmatch(content) is None:
                raise NotCanonical(f"non-canonical text in <{tag}>")
            content = unescape(content)
            pos = _expect_close(text, stop, tag)
        return _leaf_value(tag, attrs, content, resolve), pos
    build = _SEQUENCES.get(tag)
    if build is not None:
        items: List[Any] = []
        if not closed:
            close = f"</{tag}>"
            while not text.startswith(close, pos):
                item, pos = _read_value(text, pos, resolve)
                items.append(item)
            pos += len(close)
        return build(items), pos
    if tag == "dict":
        result: Dict[Any, Any] = {}
        if not closed:
            while not text.startswith("</dict>", pos):
                entry = _OPEN_TAG.match(text, pos)
                if entry is None:
                    raise NotCanonical("expected a dict entry")
                if entry.group(1) != "entry" or entry.group(3):
                    raise NotCanonical("malformed <dict> entry")
                key, pos = _read_wrapped(text, entry.end(), resolve)
                item, pos = _read_wrapped(text, pos, resolve)
                if not text.startswith("</entry>", pos):
                    raise NotCanonical("malformed <dict> entry")
                result[key] = item
                pos += 8
            pos += 7
        return result, pos
    raise CodecError(f"unknown wire tag <{tag}>")


#: the one spelling of a number: ASCII digits, the only ones the
#: encoders write (``int()`` would take any Unicode digit)
_DIGITS = re.compile(r"-?[0-9]+")


def read_number(text: Optional[str], where: str) -> int:
    """A number in an element or attribute, spelled as the encoders
    write it; anything else (or ``None``) raises ``CodecError``."""
    if text is None or _DIGITS.fullmatch(text) is None:
        raise CodecError(f"{where} holds {text!r}, not a number")
    return int(text)


def _leaf_value(
    tag: str, attrs: Dict[str, str], content: Optional[str], resolve: Resolve
) -> Any:
    if tag == "int":
        return read_number(content or "0", "<int>")
    if tag == "ref":
        return resolve("local", read_number(attrs.get("oid"), "<ref>"))
    if tag == "outref":
        return resolve("out", read_number(attrs.get("index"), "<outref>"))
    if tag == "extref":
        return resolve("ext", attrs)
    if tag == "str":
        if attrs.get("enc") == "b64":
            return base64.b64decode(content or "").decode(
                "utf-8", errors="surrogatepass"
            )
        if attrs.get("empty") == "1":
            return ""
        return content if content is not None else ""
    if tag == "float":
        return float(content or "0")
    if tag == "bytes":
        return base64.b64decode(content or "")
    return _EMPTY_TAGS[tag]


def _read_wrapped(text: str, pos: int, resolve: Resolve) -> Tuple[Any, int]:
    """The one value inside a ``<k>``/``<v>`` wrapper of a dict entry."""
    wrapper = _OPEN_TAG.match(text, pos)
    if wrapper is None:
        raise NotCanonical("expected a dict entry key or value")
    if wrapper.group(3):
        raise NotCanonical("malformed <dict> entry")
    value, pos = _read_value(text, wrapper.end(), resolve)
    return value, _expect_close(text, pos, wrapper.group(1))


def _expect_close(text: str, pos: int, tag: str) -> int:
    close = f"</{tag}>"
    if not text.startswith(close, pos):
        raise NotCanonical(f"<{tag}> is not closed where expected")
    return pos + len(close)
