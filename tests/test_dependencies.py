"""The package has no runtime dependencies: every module it imports is in
the standard library or is noethops itself.  Its checks are explicit
raises, never `assert` statements, so they survive `python -O`.  It ships
no code, and stores no attribute, that only the tests call or read."""

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


# Methods a library calls by name, and attributes only a library caller
# reads, which the package itself never reads.
CALLED_BY_LIBRARIES = {
    "cli._Parser.error",  # argparse reports usage errors through it
    "poly.PolyParseError.position",  # where in the text a caller's parse failed
    "uniformity.FiltrationStep.failure",  # the product p_i * g outside a_(i-1), for a caller to inspect
}


def _stored_attributes(cls: ast.ClassDef) -> list[str]:
    """The fields of a dataclass and the attributes `__init__` assigns on
    `self`, in order of first appearance."""
    dataclass = any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass" for d in cls.decorator_list)
    names = []
    for node in cls.body:
        if dataclass and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            names += [
                sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"
            ]
    return list(dict.fromkeys(names))


def _unread_definitions(package: Path = PACKAGE) -> list[str]:
    """Functions, classes, methods and stored attributes defined in the
    package that it never reads.  A module-level definition is read when
    its module reads its name, another module imports it (and so reads it,
    by the test above, or re-exports it from `__init__`), or some module
    reads it as an attribute of its module.  A method is read when some
    module reads an attribute of that name; special methods are Python's to
    call.  A stored attribute (`_stored_attributes`) is read when some
    module loads an attribute of that name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    read, attributes, loaded = set(), set(), set()  # (module, name) pairs; attribute names; those loaded
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add((stem, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                if isinstance(node.value, ast.Name):
                    read.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level:
                read.update((node.module, alias.name) for alias in node.names)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            if (stem, node.name) not in read:
                unread.append(f"{stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for name in (m.name for m in node.body if isinstance(m, defs)):
                special = name.startswith("__") and name.endswith("__")
                if not special and name not in attributes:
                    unread.append(f"{stem}.{node.name}.{name}")
            unread += [f"{stem}.{node.name}.{name}" for name in _stored_attributes(node) if name not in loaded]
    return sorted(unread)


def test_the_package_reads_everything_it_defines():
    # and every allowlisted method and attribute is still there, unread
    assert _unread_definitions() == sorted(CALLED_BY_LIBRARIES)


def test_the_unread_check_reports_a_function_and_a_method_nothing_reads(tmp_path):
    for path in PACKAGE.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.name == "linalg.py":
            text += "\n\ndef rank(rows, ncols):\n    return len(rref(rows, ncols)[1])\n"
        if path.name == "diffops.py":
            text = text.replace("    def scale(self, factor)", "    def order_one(self):\n        return self\n\n    def scale(self, factor)")
        (tmp_path / path.name).write_text(text, encoding="utf-8")
    assert _unread_definitions(tmp_path) == sorted({"diffops.DiffOp.order_one", "linalg.rank", *CALLED_BY_LIBRARIES})


def test_the_unread_check_reports_stored_attributes_nothing_reads(tmp_path):
    # a dataclass field and an attribute `__init__` assigns, each stored and never loaded
    for path in PACKAGE.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.name == "uniformity.py":
            text = text.replace("    c_min: int | None", "    c_tried: int\n    c_min: int | None")
        if path.name == "diffops.py":
            text = text.replace("        self.nvars = nvars\n", "        self.nvars = nvars\n        self.arity = nvars\n", 1)
        (tmp_path / path.name).write_text(text, encoding="utf-8")
    expected = {"diffops.DiffOp.arity", "uniformity.ConstantRow.c_tried", *CALLED_BY_LIBRARIES}
    assert _unread_definitions(tmp_path) == sorted(expected)


# Where a true division may stand: the one coefficient-division helper, and
# the two `RationalFunction` methods whose operands are rational functions.
DIVISIONS_ALLOWED = {
    ("poly", "qdiv"),
    ("poly", "RationalFunction.__rtruediv__"),
    ("poly", "RationalFunction.__pow__"),
}


def _true_divisions(package: Path = PACKAGE) -> list[tuple[str, str, int]]:
    """(module, enclosing function or method, line) of every `/` and `/=`
    in the package: for two ints either one gives a float."""
    found = []

    def walk(stem: str, node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append((stem, ".".join(scope), child.lineno))
            inner = (*scope, child.name) if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
            walk(stem, child, inner)

    for path in sorted(package.glob("*.py")):
        walk(path.stem, ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_coefficient_division_goes_through_qdiv():
    # and every allowlisted site is still there
    found = _true_divisions()
    assert [d for d in found if d[:2] not in DIVISIONS_ALLOWED] == []
    assert {d[:2] for d in found} == DIVISIONS_ALLOWED


def test_the_division_check_reports_a_division_outside_qdiv(tmp_path):
    for path in PACKAGE.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.name == "groebner.py":
            text = text.replace("f.divide_by(c)", "f * (1 / c)")
        if path.name == "linalg.py":
            text += "\n\ndef halve(row):\n    row[0] /= 2\n"
        (tmp_path / path.name).write_text(text, encoding="utf-8")
    outside = [d[:2] for d in _true_divisions(tmp_path) if d[:2] not in DIVISIONS_ALLOWED]
    assert outside == [("groebner", "_monic_and_lead"), ("linalg", "halve")]
