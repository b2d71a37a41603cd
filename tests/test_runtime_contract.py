"""A standing guard on the two promises of the runtime: exact rationals and
the standard library only.

A static pass over ``src/kum3check`` flags:

* an absolute import of a module outside ``sys.stdlib_module_names``;
* a float literal;
* a load of the name ``float``;
* an import from ``math`` other than the integer functions ``comb``,
  ``gcd``, ``isqrt`` and ``lcm`` (and ``import math`` as a whole);
* an import of ``dataclasses``, which builds its classes at every import
  and loads ``inspect``: records are ``NamedTuple`` or ``__slots__``
  classes;
* ``from __future__ import annotations``: it keeps every annotation as a
  string, and ``typing.NamedTuple`` then compiles each field's string into
  a ``ForwardRef`` at import.  Annotations are evaluated where they are
  defined; ``requires-python >= 3.10`` covers ``X | None``.

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

MATH_ALLOWED = {"comb", "gcd", "isqrt", "lcm"}


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
    return sorted(found)


def test_the_package_keeps_the_runtime_contract():
    assert runtime_violations() == []


def test_the_scan_flags_each_rule(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import numpy\n"
        "from fractions import Fraction\n"
        "from math import gcd, sqrt\n"
        "from . import b\n"
        "x = 0.5\n"
        "y = Fraction(1, 2)\n"
        "z = float(y)\n"
    )
    (tmp_path / "b.py").write_text(
        "import math\nimport os.path\nimport dataclasses\nfrom dataclasses import field\n"
    )
    assert runtime_violations(tmp_path) == [
        "a:1: defers annotations",
        "a:2: imports numpy outside the stdlib",
        "a:4: imports math.sqrt",
        "a:6: float literal 0.5",
        "a:8: loads float",
        "b:1: imports all of math",
        "b:3: imports dataclasses",
        "b:4: imports dataclasses",
    ]


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
