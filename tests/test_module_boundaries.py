"""No module of the package, and no demo script, reaches into a module's
private names.

Each file is parsed, not imported: a `<module>._name` attribute access on a
package module imported with `from . import x` or `from shotstego import x`,
or a `from .x import _name` or `from shotstego.x import _name`, is a
violation.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shotstego"
MODULES = sorted(PACKAGE.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SIBLINGS = {p.stem for p in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _in_package(module, level: int):
    """The dotted path inside the package that an import names ('' for the
    package itself), or None for an import from anywhere else."""
    if level == 1:
        return module or ""
    if level == 0 and module is not None and (module + ".").startswith("shotstego."):
        return module[len("shotstego."):]
    return None


def violations(source: str) -> list[str]:
    tree = ast.parse(source)
    sibling_names = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            inside = _in_package(node.module, node.level)
            for alias in node.names:
                if inside == "" and alias.name in SIBLINGS:
                    sibling_names.add(alias.asname or alias.name)
                elif inside is not None and _private(alias.name):
                    found.append(f"line {node.lineno}: from {'.' * node.level}"
                                 f"{node.module or ''} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in sibling_names and _private(node.attr)):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_access(module):
    assert violations(module.read_text()) == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demos_use_public_names(demo):
    assert violations(demo.read_text()) == []


def test_checker_flags_both_forms():
    source = ("from . import codec\n"
              "from .stego import _check_dims, embed\n"
              "codec._rs_correct_block(b'', 8)\n"
              "codec.rs_decode(b'', 8)\n")
    assert violations(source) == ["line 2: from .stego import _check_dims",
                                  "line 3: codec._rs_correct_block"]


def test_checker_flags_absolute_forms():
    """The forms a script outside the package uses; private names of other
    packages and public names of this one pass."""
    source = ("import numpy as np\n"
              "from shotstego import stego as st\n"
              "from shotstego.stego import _slabs, embed\n"
              "from numpy.random import _pcg64\n"
              "st._slabs(None, 1)\n"
              "st.embed, np._NoValue\n")
    assert violations(source) == ["line 3: from shotstego.stego import _slabs",
                                  "line 5: st._slabs"]
