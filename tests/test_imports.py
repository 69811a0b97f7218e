"""No module of the package imports a name that it never uses, or a name
that another module of the package keeps private."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zsgen"


def unused_imports(source):
    """Names that source binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_names():
    source = ("import os\nimport numpy as np\nimport os.path\n"
              "from . import gan, nn\nfrom .x import a as b, c\nnp.zeros(c)\nnn.pack\n")
    assert unused_imports(source) == ["b", "gan", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_names_read(source):
    """`_`-prefixed names that source imports from, or reads off, another
    module of the package (imported relatively or as `zsgen`)."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            origin = "." * node.level + (node.module or "")
            if origin in (".", "zsgen"):   # the names are modules of the package
                modules.update(a.asname or a.name for a in node.names)
            if origin.split(".")[0] in ("", "zsgen"):
                found.extend(a.name for a in node.names if _private(a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return sorted(found)


def test_scan_finds_private_names():
    source = ("import os\nfrom . import data, cko as c\nfrom .gan import _probe, generate\n"
              "from zsgen import nn\nfrom zsgen.knn import _votes\nfrom os import _exit\n"
              "data._text_lines(c._x, nn._y, os._z, data.__name__, generate._w)\n")
    assert private_names_read(source) == ["_probe", "_votes", "c._x", "data._text_lines",
                                          "nn._y"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_no_private_name_of_another_module(module):
    assert private_names_read((PACKAGE / module).read_text(encoding="utf-8")) == []
