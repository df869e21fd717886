"""Every module under ``src/oqst`` uses each name it imports, and every
public function is named somewhere.

An import counts as used when it is read anywhere in the module or listed
in its ``__all__``; ``from __future__`` imports are exempt.  A public
module-level function counts as used when any file under ``src/`` or
``tests/`` names it (a read, an attribute or an import) other than its def.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "oqst"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c\n__all__ = ['c']\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def named(sources) -> set:
    """Every identifier the sources read, take as an attribute or import."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
                names.add(node.name)
    return names


def unnamed_functions(module_source: str, names: set) -> list:
    tree = ast.parse(module_source)
    return sorted(
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in names
    )


def test_scan_finds_an_unnamed_function():
    module = ("def used():\n    pass\n\ndef dead():\n    return used()\n\n"
              "def _private():\n    pass\n")
    assert unnamed_functions(module, named([module])) == ["dead"]


def test_every_public_function_is_named():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    names = named(path.read_text(encoding="utf-8") for path in files)
    dead = {
        str(path.relative_to(SRC)): unnamed_functions(path.read_text(encoding="utf-8"), names)
        for path in MODULES
    }
    assert {mod: fns for mod, fns in dead.items() if fns} == {}
