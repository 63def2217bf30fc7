"""Reference work: the host-speed yardstick wall times are scaled by.

:class:`ReferenceWork` is a fixed amount of work that runs no library
code, so its time says how fast the host runs this kind of code at the
moment it is measured.  A pass parses a swap-cluster-sized XML document
with the standard library's C parser and reads every member back.

Of the candidates tried on the machine the benchmark was built on (a
plain-list traversal as in Figure 5, object and dict churn, hashing and
JSON, weak-reference iteration, random access over a large list, and
this parse), timed every 20 ms between the ops of each workload while
the host moved between its speed states, this parse tracked all four
workloads best: it left a batch-to-batch spread of 2-4% where the
others left 3-14%.

The document and the reading loop are this module's own, so no change
to the library's Python code can move the yardstick.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

MEMBERS = 40
PARSES = 16


def _document() -> bytes:
    """A cluster-like document: ``MEMBERS`` elements with attributes and text."""
    root = ET.Element("cluster", sid="7", version="3")
    for index in range(MEMBERS):
        member = ET.SubElement(root, "member", oid=str(1000 + index), cls="Record")
        member.text = f"{index:08x}" * 8
    return ET.tostring(root)


class ReferenceWork:
    """Fixed input, built once; :meth:`run` is one reference pass."""

    def __init__(self) -> None:
        self.document = _document()

    def run(self) -> int:
        total = 0
        for _ in range(PARSES):
            for member in ET.fromstring(self.document):
                total += int(member.get("oid")) + len(member.text)
        return total
