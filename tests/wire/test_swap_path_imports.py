"""ElementTree stays off the swap path.

Delta apply and the stores read payload text with :mod:`repro.wire.scan`;
an ``xml.etree`` import in either module, at any level, means a parser
crept back onto swap I/O.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _etree_imports(path: Path):
    """``(line, module)`` of every import statement that reaches
    ``xml.etree``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [f"{module}.{alias.name}" for alias in node.names] + [module]
        else:
            continue
        hits = [name for name in names if name.split(".")[:2] == ["xml", "etree"]]
        if hits:
            found.append((node.lineno, hits[0]))
    return found


@pytest.mark.parametrize("module", ["wire/delta.py", "devices/store.py"])
def test_no_elementtree_on_the_swap_path(module):
    assert _etree_imports(SRC / module) == []


def test_the_guard_sees_nested_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f():\n"
        "    from xml import etree\n"
        "    import xml.etree.ElementTree as ET\n"
        "    from xml.etree import ElementTree\n",
        encoding="utf-8",
    )
    assert [line for line, _name in _etree_imports(probe)] == [2, 3, 4]
