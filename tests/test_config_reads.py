"""A standing guard on the one read path from the configuration document.

Outside ``config.py``, package code reads a ``ConfigDocument`` through its
methods (``value`` and ``integer`` for the scalar entries) and the H^2
field ``h2_squares``, never through another field.  The
scan finds the fields in the class definition and flags, in every other
module, an attribute access or a ``getattr`` with a literal name of any
other field.  It matches by attribute name, so it also flags another
package class that defines a member of the same name: such a name would
hide a read of the document behind an unrelated class.  A path in a
``SUITES`` row (``"doc.named_entries"``) is read by ``getattr`` segment by
segment, so a segment that names a closed field is flagged as well.
"""

import ast
from pathlib import Path

from test_dead_code import SRC, _members, _parse, _slot_names, row_paths

OPEN_FIELDS = {"h2_squares"}


def _closed_fields(config: ast.Module) -> set[str]:
    """The ``ConfigDocument`` fields (its ``__slots__``) that other modules may not read."""
    for node in config.body:
        if isinstance(node, ast.ClassDef) and node.name == "ConfigDocument":
            fields = {name for item in node.body for name in _slot_names(item)}
            if not fields:
                raise AssertionError("ConfigDocument declares no __slots__")
            return fields - OPEN_FIELDS
    raise AssertionError("config.py defines no ConfigDocument")


def config_read_violations(root: Path = SRC) -> list[str]:
    """``module:line: rule`` for each read that bypasses the read path."""
    trees = _parse(root)
    closed = _closed_fields(trees["config"])
    found = []
    for module, tree in trees.items():
        for cls, name, node in _members(tree):
            if name in closed and not (module == "config" and cls == "ConfigDocument"):
                found.append(f"{module}:{node.lineno}: {cls}.{name} shadows a document field")
        if module == "config":
            continue
        for cell, path in row_paths(tree):
            found += [
                f"{module}:{cell.lineno}: reads .{name}"
                for name in path.split(".")
                if name in closed
            ]
        for leaf in ast.walk(tree):
            if isinstance(leaf, ast.Attribute) and leaf.attr in closed:
                found.append(f"{module}:{leaf.lineno}: reads .{leaf.attr}")
            elif (
                isinstance(leaf, ast.Call)
                and isinstance(leaf.func, ast.Name)
                and leaf.func.id == "getattr"
                and len(leaf.args) >= 2
                and isinstance(leaf.args[1], ast.Constant)
                and leaf.args[1].value in closed
            ):
                found.append(f"{module}:{leaf.lineno}: reads .{leaf.args[1].value}")
    return sorted(found)


def test_the_package_reads_the_document_through_one_path():
    assert config_read_violations() == []


def test_the_scan_flags_each_bypass(tmp_path):
    (tmp_path / "config.py").write_text(
        "class ConfigDocument:\n"
        "    __slots__ = ('named_entries', 'h2_squares')\n"
        "    def value(self, name):\n"
        "        return self.named_entries[name].value\n"
    )
    (tmp_path / "engine.py").write_text(
        "def stage(doc):\n"
        "    a = doc.value('geometry_pack.xi_square')\n"
        "    b = doc.named_entries['geometry_pack.xi_square'].value\n"
        "    c = getattr(doc, 'named_entries')\n"
        "    return a, b, c, doc.h2_squares\n"
    )
    (tmp_path / "other.py").write_text(
        "from typing import NamedTuple\n"
        "class Table(NamedTuple):\n"
        "    named_entries: dict\n"
        "class Cache:\n"
        "    __slots__ = ('named_entries',)\n"
    )
    (tmp_path / "suites.py").write_text(
        "SUITES = {\n"
        "    'named_entries': (\n"
        "        ('named_entries', 'named_entries', 'named_entries', 'doc.h2_squares'),\n"
        "        ('row', 'ref', 1, ('doc.h2_squares', 'doc.named_entries')),\n"
        "        ('trail', 'ref', 1, 'doc.h2_squares', 'doc.named_entries.keys'),\n"
        "    ),\n"
        "}\n"
    )
    assert config_read_violations(tmp_path) == [
        "engine:3: reads .named_entries",
        "engine:4: reads .named_entries",
        "other:3: Table.named_entries shadows a document field",
        "other:5: Cache.named_entries shadows a document field",
        "suites:4: reads .named_entries",
        "suites:5: reads .named_entries",
    ]
