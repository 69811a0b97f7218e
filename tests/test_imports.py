"""No module of the package imports a name that it never uses, or a name
that another module of the package keeps private; and every top-level
function or class of the package is read outside the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zsgen"


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


def definitions(source):
    """Names of the top-level functions and classes that source defines."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def names_read(source):
    """Every name that source reads, bare or as an attribute of anything."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def traced_names(source):
    """The function names of the "module.function" keys of source's TARGETS
    dict: the tracer wraps them by name."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return {key.value.split(".")[-1] for key in node.value.keys}
    return set()


def test_scan_finds_unread_definitions():
    source = ("import os\n\nclass Kept:\n    pass\n\ndef helper():\n    return os.sep\n\n"
              "def orphan():\n    helper()\n\ndef traced():\n    pass\n\n"
              "TARGETS = {'m.traced': True}\nx = Kept\n")
    assert definitions(source) - names_read(source) - traced_names(source) == {"orphan"}


def unread_definitions(traced):
    """"module.name" of each package definition that no package module and no
    benchmark file reads, beside the tracer's TARGETS names when traced is
    True. Tests do not count: a definition that only tests read is dead code."""
    readers = [*PACKAGE.glob("*.py"),
               *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))]
    reads = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in readers))
    if traced:
        reads |= traced_names((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    return {f"{p.stem}.{name}" for p in PACKAGE.glob("*.py")
            for name in definitions(p.read_text(encoding="utf-8")) - reads}


def test_every_top_level_definition_is_read_by_a_module_or_the_benchmark():
    assert sorted(unread_definitions(traced=True)) == []


def test_the_definitions_only_the_tracer_names_are_the_known_ones():
    # kept only so that the tracer's TARGETS resolve; the benchmark's next
    # maintenance retargets the tracer and deletes them
    assert unread_definitions(traced=False) == {"knn.knn_predict_proba",
                                                "metrics.retrieval_precision"}
