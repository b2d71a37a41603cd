"""A standing guard on the two promises of the runtime: exact rationals and
the standard library only.

A static pass over ``src/kum3check`` flags:

* an absolute import of a module outside ``sys.stdlib_module_names``;
* a float literal;
* a load of the name ``float``;
* an import from ``math`` other than the integer functions ``comb``,
  ``gcd`` and ``lcm`` (and ``import math`` as a whole);
* an import of ``dataclasses``, which builds its classes at every import
  and loads ``inspect``: records are ``NamedTuple`` or ``__slots__``
  classes;
* ``from __future__ import annotations``: it keeps every annotation as a
  string, and ``typing.NamedTuple`` then compiles each field's string into
  a ``ForwardRef`` at import.  Annotations are evaluated where they are
  defined; ``requires-python >= 3.10`` covers ``X | None``;
* an ``assert`` statement: ``python -O`` strips it, and the raise table
  (``test_raise_table.py``) cannot see it.  A runtime check is a ``raise``.

A second pass keeps each module's private fields its own: a module may
read ``obj._name`` only for a ``_name`` that it defines itself (binds, sets
as an attribute, or lists in ``__slots__``).  Reads through ``self`` and
``cls`` and the ``NamedTuple`` API (``_replace``, ``_asdict``,
``_fields``) are exempt.

A subprocess test pins the cold-start side of the last rule, and the load
path: importing ``kum3check.cli`` and loading a document, accepted or
rejected, compiles none of the derivation modules.  Another pins that
``list-suites`` compiles none of them either.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from test_dead_code import SRC, _parse

MATH_ALLOWED = {"comb", "gcd", "lcm"}
NAMEDTUPLE_API = {"_replace", "_asdict", "_fields"}


def runtime_violations(root: Path = SRC) -> list[str]:
    """``module:line: rule`` for each breach of the runtime contract."""
    found = []
    for module, tree in _parse(root).items():
        for leaf in ast.walk(tree):
            where = f"{module}:{getattr(leaf, 'lineno', 0)}"
            if isinstance(leaf, ast.Import):
                for alias in leaf.names:
                    top = alias.name.split(".")[0]
                    if top not in sys.stdlib_module_names:
                        found.append(f"{where}: imports {alias.name} outside the stdlib")
                    elif top == "math":
                        found.append(f"{where}: imports all of math")
                    elif top == "dataclasses":
                        found.append(f"{where}: imports dataclasses")
            elif isinstance(leaf, ast.ImportFrom) and leaf.level == 0:
                top = leaf.module.split(".")[0]
                if top not in sys.stdlib_module_names:
                    found.append(f"{where}: imports {leaf.module} outside the stdlib")
                elif leaf.module == "math":
                    for alias in leaf.names:
                        if alias.name not in MATH_ALLOWED:
                            found.append(f"{where}: imports math.{alias.name}")
                elif top == "dataclasses":
                    found.append(f"{where}: imports dataclasses")
                elif leaf.module == "__future__" and any(
                    alias.name == "annotations" for alias in leaf.names
                ):
                    found.append(f"{where}: defers annotations")
            elif isinstance(leaf, ast.Constant) and isinstance(leaf.value, float):
                found.append(f"{where}: float literal {leaf.value!r}")
            elif isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load):
                if leaf.id == "float":
                    found.append(f"{where}: loads float")
            elif isinstance(leaf, ast.Assert):
                found.append(f"{where}: assert statement")
    return sorted(found)


def test_the_package_keeps_the_runtime_contract():
    assert runtime_violations() == []


def test_the_scan_flags_each_rule(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import numpy\n"
        "from fractions import Fraction\n"
        "from math import gcd, isqrt, sqrt\n"
        "from . import b\n"
        "x = 0.5\n"
        "y = Fraction(1, 2)\n"
        "z = float(y)\n"
    )
    (tmp_path / "b.py").write_text(
        "import math\nimport os.path\nimport dataclasses\nfrom dataclasses import field\n"
        "assert os.path.sep\n"
    )
    assert runtime_violations(tmp_path) == [
        "a:1: defers annotations",
        "a:2: imports numpy outside the stdlib",
        "a:4: imports math.isqrt",
        "a:4: imports math.sqrt",
        "a:6: float literal 0.5",
        "a:8: loads float",
        "b:1: imports all of math",
        "b:3: imports dataclasses",
        "b:4: imports dataclasses",
        "b:5: assert statement",
    ]


def _own_private_names(tree: ast.Module) -> set[str]:
    """The ``_name``s a module defines: bound names, attributes it sets and
    ``__slots__`` entries."""
    names = set()
    for leaf in ast.walk(tree):
        if isinstance(leaf, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(leaf.name)
        elif isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store):
            names.add(leaf.id)
        elif isinstance(leaf, ast.Attribute) and isinstance(leaf.ctx, ast.Store):
            names.add(leaf.attr)
        elif isinstance(leaf, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in leaf.targets
        ):
            names.update(
                c.value for c in ast.walk(leaf.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return names


def private_reads(root: Path = SRC) -> list[str]:
    """``module:line: reads obj._name`` for each read of a private field that
    the reading module does not define."""
    found = []
    for module, tree in _parse(root).items():
        own = _own_private_names(tree) | NAMEDTUPLE_API
        for leaf in ast.walk(tree):
            if (
                isinstance(leaf, ast.Attribute)
                and isinstance(leaf.ctx, ast.Load)
                and leaf.attr.startswith("_")
                and not leaf.attr.startswith("__")
                and leaf.attr not in own
                and not (isinstance(leaf.value, ast.Name) and leaf.value.id in ("self", "cls"))
            ):
                found.append(f"{module}:{leaf.lineno}: reads {ast.unparse(leaf.value)}.{leaf.attr}")
    return sorted(found)


def test_no_module_reads_a_private_field_of_another():
    assert private_reads() == []


def test_the_private_read_scan_flags_a_foreign_field(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    __slots__ = ('_cells',)\n"
        "    def total(self, other):\n"
        "        return sum(self._cells) + sum(other._cells) + len(self._rows)\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls._build()\n"
        "def _build():\n"
        "    return A()\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import A, _build\n"
        "def peek(x, row):\n"
        "    row = row._replace(cells=x._cells)\n"
        "    x._cache = row._asdict()\n"
        "    return x._cache, row._fields, x.__class__, _build()\n"
    )
    assert private_reads(tmp_path) == ["b:3: reads x._cells"]


DERIVATION = ("engine", "suites", "wgeometry", "kummer", "quadspace", "fujiki", "bookkeeping")


def test_the_cli_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    raw = json.loads((SRC / "data" / "default_config.json").read_text())
    raw["h2_space"]["labels"][0] = "zz"
    rejected = tmp_path / "renamed.json"
    rejected.write_text(json.dumps(raw))
    watched = {"dataclasses", "inspect", *(f"kum3check.{name}" for name in DERIVATION)}
    # each case ends on the status it returns; -S keeps site's own imports out of the picture
    cases = {
        "import kum3check.cli; from kum3check.config import default_config_text, parse_config; "
        "parse_config(default_config_text()); status = 0": "0",
        "from kum3check.cli import main; status = main(['show-config'])": "0",
        f"from kum3check.cli import main; status = main(['verify', 'all', '--config', {str(rejected)!r}])": "2",
    }
    for statements, status in cases.items():
        assert _run_and_list_modules(statements, watched)[-1] == f"{status} []", statements


def _run_and_list_modules(statements, watched):
    """The stdout lines of a fresh interpreter that runs ``statements`` and
    then prints ``status`` and the watched modules it has loaded."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); {statements}; "
        f"print(status, sorted({sorted(watched)!r} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return proc.stdout.splitlines()


def test_list_suites_loads_no_derivation_module():
    from kum3check.suites import SUITE_NAMES

    watched = {f"kum3check.{name}" for name in DERIVATION}
    lines = _run_and_list_modules("from kum3check.cli import main; status = main(['list-suites'])", watched)
    assert lines == [*SUITE_NAMES, "0 []"]
