"""Every runtime ``raise`` in ``src/kum3check`` and the reason it stays.

A runtime raise stays only where a document can trip it or where it guards
its function's arguments; every other invariant is a tier-1 test.
``RAISES`` holds one entry per raise, keyed by module, function and the
literal start of its message (f-string fields written ``{name}``), and each
entry is one of three kinds:

* ``Witness``: ``kum3check verify <suite> --config <file>`` over a document
  of the failure corpus (``test_failure_golden.corpus``, so its output is
  pinned there), or over a path that names no file, whose run starts an
  exception at the raise.  The suite is the smallest one that reaches it; a
  document that the loader rejects reaches its raise under any suite.
* ``Guard``: an argument check of a kernel function, and the tier-1 test
  that passes it bad arguments and expects the raise.
* ``PassThrough``: a raise that passes on an exception or an exit status
  made elsewhere, and the test that pins it.

The tests walk every ``raise`` with ``ast`` and require exactly one entry
for each, then run each witness and each guard's test under an
exception-origin tracer and require an exception to start at the raise.
The origin of an exception is the frame it was raised in: the tracer
records the ``exception`` events whose traceback has no deeper frame.  A
re-raise such as the engine's stage memo adds a frame in front of the
stored traceback, so it is no origin.
"""

import ast
import contextlib
import importlib
import io
import os
import sys
from pathlib import Path
from typing import NamedTuple

import kum3check
from kum3check.cli import main

from test_dead_code import SRC, _parse
from test_failure_golden import corpus


class Witness(NamedTuple):
    suite: str
    document: str | None  # a name in the failure corpus; None for a missing file


class Guard(NamedTuple):
    test: str  # "<test module>::<test function>"
    args: tuple = ()  # the arguments of a parametrized test


class PassThrough(NamedTuple):
    test: str  # "<test module>::<test function>"


LINALG = "test_linalg::"
QUADSPACE = "test_quadspace::"

RAISES = {
    # the loader: one document for each check
    ("config", "integer", "{name}: expected an integer"):
        Witness("bookkeeping", "hodge_pack.spin rank = 1/2"),
    ("config", "_reject_duplicates", "duplicate key"):
        Witness("all", "duplicate key fujiki_constants.C(1)"),
    ("config", "_parse_entry", "{where}: entry must be an object"):
        Witness("all", "fujiki_constants.C(1): a bare value"),
    ("config", "_parse_entry", "{where}: source must be a nonempty string"):
        Witness("all", "fujiki_constants.C(1): empty source"),
    ("config", "_parse_entry", "{where}: must be nonzero"):
        Witness("all", "geometry_pack.xi_square = 0"),
    ("config", "_parse_rational", "{where}: value must be a rational string"):
        Witness("all", "fujiki_constants.C(1) = 60, a JSON number"),
    ("config", "_parse_rational", "{where}: invalid rational value {value[:80]}"):
        Witness("all", "fujiki_constants.C(1) = 1.5"),
    ("config", "_parse_rational", "{where}: invalid rational value {value}"):
        Witness("all", "fujiki_constants.C(1) = 1/0"),
    ("config", "_parse_pack", "{pack}: must be an object of entries"):
        Witness("all", "fujiki_constants: a list"),
    ("config", "_parse_pack", "{pack}: missing required keys"):
        Witness("all", "fujiki_constants.C(c6) dropped"),
    ("config", "_parse_pack", "{pack}: unrecognised keys"):
        Witness("all", "fujiki_constants.C(c8) added"),
    ("config", "_parse_h2_space", "h2_space: must be an object"):
        Witness("all", "h2_space.gram dropped"),
    ("config", "_parse_h2_space", "h2_space.labels: must be a nonempty list"):
        Witness("all", "h2_space.labels empty"),
    ("config", "_parse_h2_space", "h2_space.labels: names must be unique"):
        Witness("all", "h2_space.labels: y1 renamed y2"),
    ("config", "_parse_h2_space", "h2_space.labels: expected the names"):
        Witness("all", "h2_space.labels: y1 renamed w1"),
    ("config", "_parse_h2_space", "h2_space.gram: must have {n} rows"):
        Witness("all", "h2_space.gram: last row dropped"),
    ("config", "_parse_h2_space", "h2_space.gram row {i}: must have {n} entries"):
        Witness("all", "h2_space.gram[0]: last entry dropped"),
    ("config", "_parse_h2_space", "h2_space.gram[{i}][{j}]: the Gram must be diagonal"):
        Witness("all", "h2_space.gram[0][1] = 1"),
    ("config", "parse_config", "document is longer than {MAX_DOCUMENT_CHARS} characters"):
        Witness("all", "fujiki_constants.C(1): a source note of 2^20 characters"),
    ("config", "parse_config", "not valid JSON: {exc}"):
        Witness("all", "not JSON: the last brace dropped"),
    ("config", "parse_config", "not valid JSON: nested too deeply"):
        Witness("all", "JSON nested 100000 deep"),
    ("config", "parse_config", "document root must be an object"):
        Witness("all", "document root a list"),
    ("config", "parse_config", "missing required sections"):
        Witness("all", "hodge_pack dropped"),
    ("config", "parse_config", "unrecognised sections"):
        Witness("all", "notes section added"),
    ("config", "load_config", "cannot read {path}"): Witness("all", None),
    # the derivations: a published value that a document can break
    ("fujiki", "qbar_factor", "qbar multiplication factors disagree"):
        Witness("fujiki-table", "fujiki_constants.C(qbar) = 1/2"),
    ("fujiki", "derive_z_relations", "integral qbar*z^2 vanishes"): Witness(
        "fujiki-table", "fujiki_constants.C(qbar*c2^2) = 1596672/121, C(c2^2) = 228096/121"
    ),
    ("wgeometry", "expand_in_basis", "class not in the span"):
        Witness("restrictions", "h2_space.gram[0][0] = 6"),
    ("bookkeeping", "__init__", "Hodge numbers are nonnegative"):
        Witness("bookkeeping", "hodge_pack.sixfold h(1,1) = -1"),
    ("bookkeeping", "row_diff", "subtraction {a} - {b} leaves a negative dimension"):
        Witness("bookkeeping", "hodge_pack.length4 h(2,2) = 0"),
    ("bookkeeping", "invariant_weight6", "known weight-6 summands exceed the total"):
        Witness("bookkeeping", "hodge_pack.length4 b6 = 0"),
    ("bookkeeping", "trace_averages", "trace sum {total} is not divisible"):
        Witness("bookkeeping", "hodge_pack.sixfold h(0,0) = 0"),
    ("bookkeeping", "trace_averages", "negative invariant dimension"):
        Witness("bookkeeping", "hodge_pack.surface euler = 0"),
    ("suites", "run_suite", "unknown suite"): Witness("nosuch", "default"),
    # the kernels' argument checks
    ("linalg", "rat", "cannot interpret"):
        Guard(LINALG + "test_rat_accepts_ints_and_fractions_only"),
    ("linalg", "__init__", "a row given as a mapping needs cols"):
        Guard(LINALG + "test_matrix_shape_and_immutability"),
    ("linalg", "__init__", "mapping row has a column outside the matrix"):
        Guard(LINALG + "test_matrix_shape_and_immutability"),
    ("linalg", "__init__", "ragged rows in matrix"):
        Guard(LINALG + "test_matrix_shape_and_immutability"),
    ("linalg", "__setattr__", "Matrix is immutable"):
        Guard(LINALG + "test_matrix_shape_and_immutability"),
    ("linalg", "mat_vec", "vector length does not match column count"):
        Guard(LINALG + "test_transpose_and_mat_vec"),
    ("linalg", "mat_vec", "mapping vector has a column outside the matrix"):
        Guard(LINALG + "test_mat_vec_of_a_mapping_is_mat_vec_of_its_dense_vector"),
    ("linalg", "pairings", "vector length does not match matrix shape"):
        Guard(LINALG + "test_pairings_are_the_bilinear_form"),
    ("linalg", "combine", "vectors of different lengths"):
        Guard(LINALG + "test_pairings_are_the_bilinear_form"),
    ("linalg", "solve_linear", "right-hand side length does not match"):
        Guard(LINALG + "test_solve_reports_inconsistent_and_underdetermined"),
    ("linalg", "solve_linear", "inconsistent system"):
        Guard(LINALG + "test_solve_reports_inconsistent_and_underdetermined"),
    ("linalg", "solve_linear", "underdetermined system: free columns"):
        Guard(LINALG + "test_solve_reports_inconsistent_and_underdetermined"),
    ("quadspace", "__init__", "duplicate labels"): Guard(QUADSPACE + "test_space_validation"),
    ("quadspace", "__init__", "square count does not match"):
        Guard(QUADSPACE + "test_space_validation"),
    ("quadspace", "__init__", "basis vector {label} is isotropic"):
        Guard(QUADSPACE + "test_zero_square_is_rejected_at_construction", (0,)),
    ("quadspace", "index", "unknown label"): Guard(QUADSPACE + "test_vector_and_pairing"),
    ("quadspace", "pair", "vector length does not match the space"):
        Guard(QUADSPACE + "test_pair_checks_vector_length"),
    ("quadspace", "from_map", "monomial indices must satisfy i <= j"):
        Guard(QUADSPACE + "test_sym2_vector_is_canonical"),
    ("quadspace", "sym2_sum", "cannot add Sym2 vectors from different spaces"):
        Guard(QUADSPACE + "test_sym2_sum_rejects_a_class_of_another_space"),
    ("quadspace", "sym2_pair", "cannot pair Sym2 vectors from different spaces"):
        Guard(QUADSPACE + "test_sym2_pair_rejects_a_class_of_another_space"),
    ("report", "render_value", "cannot render"): Guard("test_config_report::test_render_value"),
    ("report", "make_check", "{check_id}: reference string must be nonempty"):
        Guard("test_config_report::test_make_check_compares_raw_values"),
    ("report", "__init__", "duplicate check ids"):
        Guard("test_config_report::test_report_sorts_and_rejects_duplicates"),
    ("__init__", "__getattr__", "module {__name__} has no attribute"):
        Guard("test_config_report::test_an_unknown_package_name_is_an_attribute_error"),
    # raises that pass on what another frame made
    ("engine", "__get__", "exc.with_traceback(traceback)"):
        PassThrough("test_engine::test_failing_stage_reraises_the_same_exception"),
    ("cli", "<module>", "SystemExit(main())"):
        PassThrough("test_config_report::test_python_dash_m_runs_each_command"),
}


# ---------------------------------------------------------------------------
# the raise statements of the package


def _message(node: ast.Raise) -> str:
    """The message a raise writes, f-string fields as ``{name}``; the
    raised expression itself when it has no string message."""
    exc = node.exc
    arg = exc.args[0] if isinstance(exc, ast.Call) and exc.args else None
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "{" + ast.unparse(part.value) + "}"
            for part in arg.values
        )
    return ast.unparse(exc)


def raise_sites(root: Path = SRC) -> list[tuple[str, str, str, int, int]]:
    """``(module, function, message, first line, last line)`` of each raise;
    the function is the innermost enclosing one, or ``<module>``."""
    sites = []

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                sites.append((module, function, _message(child), child.lineno, child.end_lineno))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(module, child, child.name if is_function else function)

    for module, tree in _parse(root).items():
        visit(module, tree, "<module>")
    return sites


def table_mismatches(table: dict, root: Path = SRC) -> list[str]:
    """A line for each raise with no entry or more than one, and for each
    entry that names no raise."""
    found = []
    used = set()
    for module, function, message, line, _ in raise_sites(root):
        keys = [
            key for key in table
            if key[:2] == (module, function) and message.startswith(key[2])
        ]
        used.update(keys)
        if len(keys) != 1:
            found.append(f"{module}.{function}:{line}: {len(keys)} entries for {message[:60]!r}")
    found += [f"{'.'.join(key[:2])}: no raise for {key[2]!r}" for key in table if key not in used]
    return found


def raise_at(root: Path = SRC) -> dict[tuple[str, int], tuple[str, str, str]]:
    """``(module, line) -> (module, function, message)`` for each line of each raise."""
    return {
        (module, n): (module, function, message)
        for module, function, message, first, last in raise_sites(root)
        for n in range(first, last + 1)
    }


# ---------------------------------------------------------------------------
# the exception-origin tracer


def raise_origins(run) -> set[tuple[str, int]]:
    """``(module, line)`` of each exception raised in a package frame while
    ``run()`` runs: the frames of its traceback end there."""
    origins = set()
    # the package as imported, whose frames carry its file names
    src = os.path.dirname(kum3check.__file__) + os.sep

    def on_event(frame, event, arg):
        if event == "exception" and arg[2].tb_next is None:
            origins.add((Path(frame.f_code.co_filename).stem, frame.f_lineno))
        return on_event

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(src):
            return None
        frame.f_trace_lines = False
        return on_event

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return origins


def started_raises(run, at: dict) -> set[tuple[str, str, str]]:
    """The raises of ``at`` (``raise_at``) at which an exception starts
    while ``run()`` runs."""
    return {at[origin] for origin in raise_origins(run) if origin in at}


def run_witness(witness: Witness, directory: Path, docs: dict[str, str]) -> None:
    path = directory / "missing.json"
    if witness.document is not None:
        path = directory / "document.json"
        path.write_text(docs[witness.document], encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["verify", witness.suite, "--config", str(path)])


def _test_function(name: str):
    module, function = name.split("::")
    return getattr(importlib.import_module(module), function)


# ---------------------------------------------------------------------------
# the tests


def test_every_raise_has_exactly_one_entry():
    assert table_mismatches(RAISES) == []


def test_an_unlisted_raise_is_named_by_module_and_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def check(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(f'negative {x}')\n"
        "    raise TypeError('not a number')\n"
    )
    table = {
        ("a", "check", "not a number"): Guard("test_a::test_check"),
        ("a", "gone", "x"): Guard("test_a::test_gone"),
    }
    assert table_mismatches(table, tmp_path) == [
        "a.check:3: 0 entries for 'negative {x}'",
        "a.gone: no raise for 'x'",
    ]


def _unreached(table: dict, directory: Path) -> list[str]:
    """The witnesses and guard tests of ``table`` that start no exception at their raise."""
    docs = corpus()
    at = raise_at()
    found = []
    for key, entry in table.items():
        if isinstance(entry, Witness):
            started = started_raises(lambda: run_witness(entry, directory, docs), at)
        elif isinstance(entry, Guard):
            started = started_raises(lambda: _test_function(entry.test)(*entry.args), at)
        else:
            continue
        if not any(key[:2] == site[:2] and site[2].startswith(key[2]) for site in started):
            found.append(f"{'.'.join(key[:2])}: {entry} does not reach {key[2]!r}")
    return found


def test_each_witness_and_guard_test_starts_an_exception_at_its_raise(tmp_path):
    assert _unreached(RAISES, tmp_path) == []


def test_a_witness_that_misses_its_raise_fails(tmp_path):
    key = ("config", "_parse_entry", "{where}: source must be a nonempty string")
    assert _unreached({key: RAISES[key]}, tmp_path) == []
    # a bare value stops at the entry's shape check, before its source is read
    missed = Witness("all", "fujiki_constants.C(1): a bare value")
    assert _unreached({key: missed}, tmp_path) == [
        f"config._parse_entry: {missed} does not reach {key[2]!r}"
    ]


def test_each_pass_through_names_a_test():
    for entry in RAISES.values():
        if isinstance(entry, PassThrough):
            assert callable(_test_function(entry.test)), entry
