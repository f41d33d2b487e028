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
