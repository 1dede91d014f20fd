"""Every module of the package and of this test suite uses each name it
imports, and every private module-level name of the package is read
somewhere in the package."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "spintomo").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names an import in source binds that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_only_unread_names():
    source = "import os\nimport a.b\nfrom c import d as e, f\nfrom __future__ import annotations\ne(a.b)\n"
    assert unused_imports(source) == ["f", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: list) -> list:
    """Private module-level functions, classes and constants defined in
    sources that no expression of any source reads, by name or attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(n for n in defined - read if n.startswith("_") and not n.startswith("__"))


def test_unread_private_names_finds_only_dead_ones():
    first = "_A = 1\n_B = 2\nPUBLIC = 3\ndef _f():\n    return _A\nclass _C:\n    pass\n"
    second = "import first\nfirst._C()\n_D: int = 4\n"
    assert unread_private_names([first, second]) == ["_B", "_D", "_f"]


def test_every_private_name_of_the_package_is_read():
    assert unread_private_names([p.read_text() for p in PACKAGE]) == []
