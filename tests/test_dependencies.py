"""The package has no runtime dependencies: every module it imports is in
the standard library or is noethops itself.  Its checks are explicit
raises, never `assert` statements, so they survive `python -O`."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "noethops"


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("noethops" if node.level else node.module.split(".")[0])
    return roots


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    foreign = {
        (path.name, root)
        for path in files
        for root in _imported_roots(path)
        if root != "noethops" and root not in sys.stdlib_module_names
    }
    assert not foreign


def test_package_has_no_assert_statements():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    asserts = [
        (path.name, node.lineno)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts


def _unused_imports(path: Path) -> list[str]:
    """Names `path` imports and never reads (`from __future__` aside)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_use_every_name_they_import():
    # __init__.py imports to re-export
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert files
    unused = {path.name: names for path in files if (names := _unused_imports(path))}
    assert not unused
