"""The manager's swap path stays in short, named stages.

Swap-out and swap-in are split into stage methods of
``core/manager.py`` (plan holders, ship, journal guard, commit, fetch,
install, retain or drop), each defined once.  A function longer than
:data:`MAX_LINES` means a stage grew back into a copy of its
neighbours.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: the longest a function of ``core/manager.py`` may be, in lines
MAX_LINES = 100


def _long_functions(path: Path, limit: int = MAX_LINES):
    """``(name, lines)`` of every function in ``path`` over ``limit``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.name, node.end_lineno - node.lineno + 1)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.end_lineno - node.lineno + 1 > limit
    ]


def test_no_manager_function_is_over_the_limit():
    assert _long_functions(SRC / "core" / "manager.py") == []


def test_the_guard_measures_nested_functions(tmp_path):
    probe = tmp_path / "probe.py"
    body = "".join(f"        x{index} = {index}\n" for index in range(4))
    probe.write_text(
        "class C:\n"
        "    def short(self):\n"
        "        return 1\n"
        "\n"
        "    def long(self):\n" + body,
        encoding="utf-8",
    )
    assert _long_functions(probe, limit=4) == [("long", 5)]
