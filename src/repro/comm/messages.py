"""XML request/response envelopes for the web-service bridge.

Wire shape (canonical text, see :mod:`repro.wire.canonical`)::

    <envelope op="store">
      <param name="key"><str>pda/sc-3/e1</str></param>
      <param name="text"><str>…</str></param>
    </envelope>

    <response status="ok"><result><none/></result></response>
    <response kind="UnknownKeyError" status="error">message</response>

An error message XML cannot carry as text (control characters, ``\r``,
lone surrogates) travels base64-encoded under ``enc="b64"``, as a
``<str enc="b64">`` value does.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Tuple

from repro.errors import CodecError
from repro.wire.canonical import _escape_text, canonical_element
from repro.wire.scan import (
    NotCanonical,
    leading_element,
    read_document,
    read_fields,
    read_text,
    read_value,
    scan_once,
)
from repro.wire.wrappers import _xml_safe, emit_fields, emit_value


def _no_refs(_value: Any) -> None:
    return None


def _fail_refs(kind: str, _ident: int) -> Any:
    raise CodecError("envelope payloads cannot carry object references")


def build_request(op: str, params: Dict[str, Any]) -> str:
    parts: List[str] = []
    emit_fields(parts, params, _no_refs, tag="param")
    return canonical_element("envelope", {"op": op}, "".join(parts))


def parse_request(text: str) -> Tuple[str, Dict[str, Any]]:
    def read(candidate: str) -> Tuple[str, Dict[str, Any]]:
        attrs, body = read_document(candidate, "envelope")
        op = attrs.get("op", "")
        if not op:
            raise CodecError("envelope without op")
        return op, read_fields(body, _fail_refs, tag="param")

    return scan_once(text, "request envelope", read)


def build_response(result: Any = None, error: BaseException | None = None) -> str:
    if error is not None:
        message = str(error)
        attrs = {"status": "error", "kind": type(error).__name__}
        if _xml_safe(message):
            body = _escape_text(message)
        else:
            # XML cannot carry it as text: base64, as a <str enc="b64">
            attrs["enc"] = "b64"
            body = base64.b64encode(
                message.encode("utf-8", errors="surrogatepass")
            ).decode("ascii")
        return canonical_element("response", attrs, body)
    parts = ["<result>"]
    emit_value(parts, result, _no_refs)
    parts.append("</result>")
    return canonical_element("response", {"status": "ok"}, "".join(parts))


def parse_response(text: str) -> Any:
    """Return the result value, or raise the transported error."""

    def read(candidate: str) -> Tuple[bool, Any]:
        attrs, body = read_document(candidate, "response")
        if attrs.get("status") == "error":
            message = read_text(body)
            if attrs.get("enc") == "b64":
                message = base64.b64decode(message).decode(
                    "utf-8", errors="surrogatepass"
                )
            return False, (attrs.get("kind", "ObiError"), message)
        result, rest = leading_element(body, "result")
        if rest:
            raise NotCanonical("text after <result>")
        return True, read_value(result, _fail_refs)

    ok, outcome = scan_once(text, "response envelope", read)
    if ok:
        return outcome
    from repro import errors as errors_module

    kind, message = outcome
    error_cls = getattr(errors_module, kind, errors_module.ObiError)
    if not isinstance(error_cls, type) or not issubclass(error_cls, BaseException):
        error_cls = errors_module.ObiError
    raise error_cls(message)
