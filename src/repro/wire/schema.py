"""Structural validation of swap-cluster documents.

Swapped state lives on *dumb* devices: anything could come back.  The
digest check catches bit-rot; this validator catches well-formed XML
that is nevertheless not a legal swap-cluster document (truncated
conversions, foreign documents returned under our key, hand-edited
archives) with precise diagnostics, before decode attempts object
construction.
"""

from __future__ import annotations

from typing import List, Set
from xml.etree import ElementTree as ET

from repro.errors import CodecError

#: Value tags the wire format defines (see repro.wire.wrappers).
VALUE_TAGS = frozenset(
    {
        "none", "true", "false", "int", "float", "str", "bytes",
        "list", "tuple", "set", "fset", "dict",
        "ref", "outref", "extref",
    }
)

_INT_ATTRS = {
    "swap-cluster": ("sid", "epoch", "count"),
    "object": ("oid",),
    "ref": ("oid",),
    "outref": ("index",),
}


def validate_cluster_text(xml_text: str) -> List[str]:
    """Return a list of problems (empty when the document is valid)."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        return [f"not well-formed XML: {exc}"]
    return validate_cluster_element(root)


def validate_cluster_element(root: ET.Element) -> List[str]:
    problems: List[str] = []
    if root.tag != "swap-cluster":
        return [f"root element is <{root.tag}>, expected <swap-cluster>"]
    _check_int_attrs(root, "swap-cluster", problems)
    if root.get("space") is None:
        problems.append("<swap-cluster> missing space attribute")

    seen_oids: Set[str] = set()
    object_count = 0
    for obj_el in root:
        if obj_el.tag != "object":
            problems.append(
                f"unexpected <{obj_el.tag}> inside <swap-cluster>"
            )
            continue
        object_count += 1
        _check_int_attrs(obj_el, "object", problems)
        oid = obj_el.get("oid")
        if oid in seen_oids:
            problems.append(f"duplicate object oid={oid}")
        elif oid is not None:
            seen_oids.add(oid)
        if not obj_el.get("class"):
            problems.append(f"object oid={oid} missing class attribute")
        seen_fields: Set[str] = set()
        for field_el in obj_el:
            if field_el.tag != "field":
                problems.append(
                    f"object oid={oid}: unexpected <{field_el.tag}>"
                )
                continue
            name = field_el.get("name")
            if name is None:
                problems.append(f"object oid={oid}: <field> without name")
            elif name in seen_fields:
                problems.append(f"object oid={oid}: duplicate field {name!r}")
            else:
                seen_fields.add(name)
            if len(field_el) != 1:
                problems.append(
                    f"object oid={oid}.{name}: field must hold exactly one "
                    f"value element, found {len(field_el)}"
                )
                continue
            _check_value(field_el[0], f"oid={oid}.{name}", problems)

    declared = root.get("count")
    if declared is not None and declared.isdigit() and int(declared) != object_count:
        problems.append(
            f"count attribute says {declared}, document holds {object_count}"
        )
    return problems


def ensure_valid_cluster(xml_text: str) -> None:
    """Raise :class:`CodecError` with every problem when invalid."""
    problems = validate_cluster_text(xml_text)
    if problems:
        raise CodecError(
            "invalid swap-cluster document: " + "; ".join(problems)
        )


def _check_int_attrs(element: ET.Element, kind: str, problems: List[str]) -> None:
    for attr in _INT_ATTRS.get(kind, ()):
        value = element.get(attr)
        if value is None:
            problems.append(f"<{kind}> missing {attr} attribute")
        else:
            try:
                int(value)
            except ValueError:
                problems.append(f"<{kind}> {attr}={value!r} is not an integer")


def _check_value(element: ET.Element, where: str, problems: List[str]) -> None:
    tag = element.tag
    if tag not in VALUE_TAGS:
        problems.append(f"{where}: unknown value tag <{tag}>")
        return
    if tag in ("ref", "outref"):
        _check_int_attrs(element, tag, problems)
        return
    if tag == "extref":
        for attr in ("cid", "soid"):
            if element.get(attr) is None:
                problems.append(f"{where}: <extref> missing {attr}")
        return
    if tag in ("int", "float"):
        text = element.text or ""
        try:
            float(text) if tag == "float" else int(text)
        except ValueError:
            problems.append(f"{where}: <{tag}> holds non-numeric {text!r}")
        return
    if tag in ("list", "tuple", "set", "fset"):
        for child in element:
            _check_value(child, where + "[]", problems)
        return
    if tag == "dict":
        for entry in element:
            if entry.tag != "entry" or len(entry) != 2:
                problems.append(f"{where}: malformed <dict> entry")
                continue
            key_holder, value_holder = entry
            if key_holder.tag != "k" or value_holder.tag != "v" or len(
                key_holder
            ) != 1 or len(value_holder) != 1:
                problems.append(f"{where}: malformed <dict> entry structure")
                continue
            _check_value(key_holder[0], where + ".key", problems)
            _check_value(value_holder[0], where + ".value", problems)
