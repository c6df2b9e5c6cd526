"""No module of the package reaches into another module's private names.

Each module is parsed, not imported: a `<sibling>._name` attribute access
on a sibling module imported with `from . import x`, or a
`from .x import _name`, is a violation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shotstego"
MODULES = sorted(PACKAGE.glob("*.py"))
SIBLINGS = {p.stem for p in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def violations(source: str) -> list[str]:
    tree = ast.parse(source)
    sibling_names = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in SIBLINGS:
                    sibling_names.add(alias.asname or alias.name)
                elif node.module is not None and _private(alias.name):
                    found.append(f"line {node.lineno}: from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in sibling_names and _private(node.attr)):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_access(module):
    assert violations(module.read_text()) == []


def test_checker_flags_both_forms():
    source = ("from . import codec\n"
              "from .stego import _check_dims, embed\n"
              "codec._rs_correct_block(b'', 8)\n"
              "codec.rs_decode(b'', 8)\n")
    assert violations(source) == ["line 2: from .stego import _check_dims",
                                  "line 3: codec._rs_correct_block"]
