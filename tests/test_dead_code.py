"""A standing guard against code in ``src/kum3check`` that only tests read.

Every module-level name that a package module defines (function, class or
assigned name) must be named somewhere else in the package: read in its own
module, imported by another module, or reached as an attribute.  A name
listed in a module's ``__all__`` counts as named, and ``__all__`` itself is
exempt.  Oracles and helpers that only tests use belong in ``tests/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kum3check"


def _definitions(tree: ast.Module):
    """(name, node) for each module-level name the module binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def _names(node: ast.AST):
    """Every name that the code under ``node`` reads, imports or exports."""
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name) and not isinstance(leaf.ctx, ast.Store):
            yield leaf.id
        elif isinstance(leaf, ast.Attribute):
            yield leaf.attr
        elif isinstance(leaf, ast.ImportFrom):
            yield from (alias.name for alias in leaf.names)
        elif (
            isinstance(leaf, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in leaf.targets)
        ):
            yield from (c.value for c in ast.walk(leaf.value) if isinstance(c, ast.Constant))


def unnamed_definitions(root: Path = SRC) -> list[str]:
    """``module.name`` for each module-level name no other package code names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    # the names of each top-level statement, so a definition can skip its own
    statements = [(node, set(_names(node))) for tree in trees.values() for node in tree.body]
    unnamed = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            if name != "__all__" and not any(
                name in names for node, names in statements if node is not definition
            ):
                unnamed.append(f"{module}.{name}")
    return unnamed


def test_every_module_level_name_is_named_by_other_package_code():
    assert unnamed_definitions() == []


def test_the_scan_finds_a_name_that_only_tests_read(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['kept']\n"
        "kept = 1\n"
        "def used():\n    return helper()\n"
        "def helper():\n    return helper\n"
        "def orphan():\n    return orphan()\n"
        "class Unread:\n    pass\n"
        "TABLE: dict = {}\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\nused()\n")
    assert unnamed_definitions(tmp_path) == ["a.orphan", "a.Unread", "a.TABLE"]
