"""ElementTree stays off the swap path, and out of every codec user.

Delta apply and the stores read payload text with :mod:`repro.wire.scan`;
an ``xml.etree`` import in either module, at any level, means a parser
crept back onto swap I/O.  Across ``src/``, only three modules may parse
XML with ElementTree: the canonicalizer for foreign text, the structural
validator and the policy-file reader.  Every other document is written
with the text writer and read with the scanner.
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


#: the only ``src/repro`` modules allowed to import ``xml.etree``
ETREE_MODULES = {"wire/canonical.py", "wire/schema.py", "policy/xmlpolicy.py"}


def test_only_three_modules_import_elementtree():
    importing = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if _etree_imports(path)
    }
    assert importing == ETREE_MODULES
