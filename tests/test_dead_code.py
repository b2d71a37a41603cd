"""A standing guard against code in ``src/kum3check`` that only tests read.

Three passes over the package source:

* Every module-level name that a package module defines (function, class
  or assigned name) must be named somewhere else in the package: loaded by
  name in its own module, imported by another module, or listed in a
  module's ``__all__``.  ``__all__`` itself is exempt, and so is a module
  ``__getattr__`` (PEP 562), because the language calls it.  An attribute
  of the same name does not count, so ``seen.add(x)`` does not keep a
  function ``add`` alive.
* Every method, property, ``NamedTuple`` field and ``__slots__`` name of a
  package class must be read as an attribute (``x.name``) somewhere in the
  package outside its own definition.  A read of ``self.name`` inside a
  class counts only for that class's own member, so ``self.key`` in one
  class does not keep a field ``key`` of another alive.  Special methods
  (``__name__``) are exempt, because the language calls them.  A
  constructor keyword or an assignment is not a read: a field that is set
  but never read is dead.  The suite table reads the engine by path
  strings (``"relations.trail"``), so each segment of a path in the
  ``value`` or ``trail`` column of a ``SUITES`` row counts as a read too,
  as ``e.relations.trail`` would; suite names, check ids and other strings
  do not.
* Every parameter of a package function or method, nested functions
  included, must be loaded by name in that function's body (a closure's
  read counts).  ``self``, ``cls`` and the parameters of special methods
  are exempt, because the language passes them.

Oracles and helpers that only tests use belong in ``tests/``.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kum3check"


def _parse(root: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


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
    """Every name that the code under ``node`` loads, imports or exports."""
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load):
            yield leaf.id
        elif isinstance(leaf, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in leaf.names)
        elif (
            isinstance(leaf, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in leaf.targets)
        ):
            yield from (c.value for c in ast.walk(leaf.value) if isinstance(c, ast.Constant))


def unnamed_definitions(root: Path = SRC) -> list[str]:
    """``module.name`` for each module-level name no other package code names."""
    trees = _parse(root)
    # the names of each top-level statement, so a definition can skip its own
    statements = [(node, set(_names(node))) for tree in trees.values() for node in tree.body]
    unnamed = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            if name not in ("__all__", "__getattr__") and not any(
                name in names for node, names in statements if node is not definition
            ):
                unnamed.append(f"{module}.{name}")
    return unnamed


def _attribute_reads(node: ast.AST, owner: str | None) -> Counter:
    """How often the code under ``node`` reads each attribute, keyed by
    (reader, name): ``reader`` is ``owner``, the class around ``node``, for
    a read of ``self.name``, and None for any other read."""
    reads = Counter()
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Attribute) and isinstance(leaf.ctx, ast.Load):
            on_self = isinstance(leaf.value, ast.Name) and leaf.value.id == "self"
            reads[owner if on_self else None, leaf.attr] += 1
    return reads


def row_paths(tree: ast.Module):
    """(node, path) for each path string in the ``value`` and ``trail``
    columns of the module's ``SUITES = {suite: (row, ...)}``, whose rows are
    ``(id, ref, expected, value[, trail])`` and whose columns hold a path or
    a tuple of paths."""
    for node in tree.body:
        if not (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "SUITES" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            continue
        for rows in node.value.values:
            for row in getattr(rows, "elts", ()):
                if not isinstance(row, ast.Tuple):
                    continue
                for column in row.elts[3:5]:
                    for cell in column.elts if isinstance(column, ast.Tuple) else [column]:
                        if isinstance(cell, ast.Constant) and isinstance(cell.value, str):
                            yield cell, cell.value


def _is_named_tuple(node: ast.ClassDef) -> bool:
    """``class X(NamedTuple)``, as the package spells a record."""
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def _slot_names(item: ast.stmt) -> list[str]:
    """The names that ``__slots__ = (...)`` declares; none for any other statement."""
    if isinstance(item, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__slots__" for target in item.targets
    ):
        return [c.value for c in ast.walk(item.value) if isinstance(c, ast.Constant)]
    return []


def _members(tree: ast.Module):
    """(class, member, node) for each method, property, NamedTuple field and slot."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        fields = _is_named_tuple(node)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif fields and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names = [item.target.id]
            else:
                names = _slot_names(item)
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield node.name, name, item


def unread_members(root: Path = SRC) -> list[str]:
    """``module.Class.member`` for each member no package code reads as an attribute."""
    trees = _parse(root)
    reads = Counter()
    for module, tree in trees.items():
        for node in tree.body:
            owner = f"{module}.{node.name}" if isinstance(node, ast.ClassDef) else None
            reads += _attribute_reads(node, owner)
        reads += Counter((None, name) for _, path in row_paths(tree) for name in path.split("."))
    unread = []
    for module, tree in trees.items():
        for cls, name, node in _members(tree):
            owner = f"{module}.{cls}"
            own = _attribute_reads(node, owner)
            keys = ((None, name), (owner, name))
            if sum(reads[k] for k in keys) <= sum(own[k] for k in keys):
                unread.append(f"{owner}.{name}")
    return unread


def _functions(node: ast.AST, prefix: str):
    """(qualified name, node) for each function under ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def unread_parameters(root: Path = SRC) -> list[str]:
    """``module.function.parameter`` for each parameter its function never reads."""
    unread = []
    for module, tree in _parse(root).items():
        for name, node in _functions(tree, module):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            loaded = {
                leaf.id
                for statement in node.body
                for leaf in ast.walk(statement)
                if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load)
            }
            unread += [
                f"{name}.{p.arg}"
                for p in params
                if p and p.arg not in ("self", "cls") and p.arg not in loaded
            ]
    return unread


def test_every_module_level_name_is_named_by_other_package_code():
    assert unnamed_definitions() == []


def test_every_class_member_is_read_by_package_code():
    assert unread_members() == []


def test_every_parameter_is_read_by_its_function():
    assert unread_parameters() == []


def test_the_scan_finds_a_name_that_only_tests_read(tmp_path):
    (tmp_path / "a.py").write_text(
        "from typing import NamedTuple\n"
        "__all__ = ['kept']\n"
        "kept = 1\n"
        "def used():\n    return helper()\n"
        "def helper():\n    return helper\n"
        "def orphan():\n    return orphan()\n"
        "def add(x, y):\n    return x + y\n"
        "class Unread:\n    pass\n"
        "TABLE: dict = {}\n"
        "class Record(NamedTuple):\n"
        "    read: int\n"
        "    unread: int\n"
        "    def method(self):\n        return self.method()\n"
        "    @property\n"
        "    def shown(self):\n        return self.read\n"
        "    def __len__(self):\n        return 1\n"
        "class Entry:\n"
        "    __slots__ = ('key', 'kept')\n"
        "    def __init__(self, key):\n        self.key = self.kept = key\n"
        "    def __repr__(self):\n        return self.kept\n"
        "class Descriptor:\n"
        "    def __set_name__(self, owner, name):\n        self.key = name\n"
        "    def __get__(self, instance, owner=None):\n        return self.key\n"
        "def keyed(used, unused, *rest, flag, **extra):\n"
        "    def inner(value):\n        return used + flag\n"
        "    return inner, rest\n"
        "class Owner:\n"
        "    def pick(self, kept, dropped):\n        return kept\n"
        "    @classmethod\n"
        "    def make(cls, kept):\n        return kept\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import Descriptor, Entry, Owner, Record, keyed, used\n"
        "seen = set()\n"
        "seen.add(used())\n"
        "print(Record(read=1, unread=2).shown, Entry(key='k'), Descriptor)\n"
        "print(keyed, Owner.make, Owner().pick)\n"
    )
    (tmp_path / "c.py").write_text(
        "def __getattr__(name):\n    raise AttributeError(name)\n"
        "def stray():\n    return 1\n"
    )
    assert unnamed_definitions(tmp_path) == [
        "a.orphan", "a.add", "a.Unread", "a.TABLE", "c.stray"
    ]
    assert unread_members(tmp_path) == ["a.Record.unread", "a.Record.method", "a.Entry.key"]
    assert unread_parameters(tmp_path) == [
        "a.keyed.unused", "a.keyed.extra", "a.keyed.inner.value", "a.Owner.pick.dropped"
    ]


def test_the_scan_reads_the_paths_of_suite_rows(tmp_path):
    (tmp_path / "a.py").write_text(
        "from typing import NamedTuple\n"
        "class Result(NamedTuple):\n"
        "    by_path: int\n"
        "    by_tuple: int\n"
        "    by_trail: int\n"
        "    nowhere: int\n"
        "class Engine:\n"
        "    def result(self):\n        return Result(1, 2, 3, 4)\n"
        "    def gram19(self):\n        return 0\n"
        "SUITES = {\n"
        "    'gram19': (\n"
        "        ('nowhere', 'gram19', 1, 'result.by_path'),\n"
        "        ('two', 'ref', 'nowhere', ('result.by_tuple',), 'result.by_trail'),\n"
        "        ('three', 'ref', 1, lambda e: e.gram19 and 'nowhere'),\n"
        "    ),\n"
        "}\n"
        "print(SUITES, Engine)\n"
    )
    # a read inside a function row counts as any read does
    assert unread_members(tmp_path) == ["a.Result.nowhere"]
    (tmp_path / "a.py").write_text(
        (tmp_path / "a.py").read_text().replace("lambda e: e.gram19 and ", "lambda e: ")
    )
    # the suite name and the ref "gram19" keep no member alive
    assert unread_members(tmp_path) == ["a.Result.nowhere", "a.Engine.gram19"]
