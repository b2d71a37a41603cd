"""Verification reports: typed checks with deterministic json and markdown.

A check records one verified equality: an identifier, a human-readable
reference for where the expected value comes from, the expected and
computed values rendered as exact strings, a pass/fail status, and a
derivation trail of intermediate values.  A check is a ``NamedTuple``;
the ``all`` suite prefixes each id with its suite.  ``render_value``
renders rationals, booleans, the cells of a matrix and plain tuples and
lists of them; a record or a string is not a value.  Reports sort their
checks by identifier so the output is byte-identical however the checks
were produced.  The json report is the text ``json.dumps(obj, indent=2)``
gives for the report object; ``emit_json`` writes that fixed layout
itself and encodes only the strings with ``json.dumps``, which runs the
C encoder (an indent makes ``json.dumps`` run the pure-Python one).
"""

import json
from fractions import Fraction
from typing import NamedTuple

from .linalg import ZERO, Matrix


# The cell types that render as ``str(x)``; a list of only these is
# rendered without a call per cell, and its ``ZERO`` cells without one
# into ``Fraction``.
_NUMBERS = {int, Fraction}


def render_value(value) -> str:
    """Deterministic exact rendering for report fields."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, Matrix):
        return render_value(value.entries)
    if type(value) in (tuple, list):
        if set(map(type, value)) <= _NUMBERS:
            cells = ["0" if x is ZERO else str(x) for x in value]
        else:
            cells = map(render_value, value)
        return "[" + ", ".join(cells) + "]"
    raise TypeError(f"cannot render {type(value).__name__} deterministically")


class Check(NamedTuple):
    id: str
    ref: str
    expected: str
    computed: str
    status: str
    trail: tuple[str, ...]


def make_check(check_id: str, ref: str, expected, computed, trail=()) -> Check:
    """Compare raw values exactly, then render both sides."""
    if not ref:
        raise ValueError(f"{check_id}: reference string must be nonempty")
    status = "pass" if expected == computed else "fail"
    return Check(
        id=check_id,
        ref=ref,
        expected=render_value(expected),
        computed=render_value(computed),
        status=status,
        trail=tuple(trail),
    )


def error_check(check_id: str, ref: str, error: Exception) -> Check:
    return Check(
        id=check_id,
        ref=ref,
        expected="no error",
        computed=f"{type(error).__name__}: {error}",
        status="fail",
        trail=(),
    )


class SuiteReport:
    """A suite's checks, sorted by id; ids must be unique."""

    __slots__ = ("suite", "checks")

    def __init__(self, suite: str, checks: tuple[Check, ...]):
        ids = [c.id for c in checks]
        if len(set(ids)) != len(ids):
            dupes = sorted({x for x in ids if ids.count(x) > 1})
            raise ValueError(f"duplicate check ids: {dupes}")
        self.suite = suite
        self.checks = tuple(sorted(checks, key=lambda c: c.id))

    @property
    def status(self) -> str:
        return "pass" if all(c.status == "pass" for c in self.checks) else "fail"

    @property
    def counts(self) -> tuple[int, int]:
        passed = sum(1 for c in self.checks if c.status == "pass")
        return passed, len(self.checks) - passed


def _json_array(items: list[str], indent: str) -> str:
    """The ``indent=2`` layout of an array whose items are already encoded,
    at the nesting of ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def emit_json(report: SuiteReport) -> str:
    """``json.dumps(obj, indent=2) + "\n"`` for the object ``{"suite",
    "status", "checks"}`` whose checks are ``Check._asdict()``, with the
    trail as an array; the layout is written here and only the strings
    go through ``json.dumps``."""
    dumps = json.dumps
    checks = [
        "{\n"
        f'      "id": {dumps(c.id)},\n'
        f'      "ref": {dumps(c.ref)},\n'
        f'      "expected": {dumps(c.expected)},\n'
        f'      "computed": {dumps(c.computed)},\n'
        f'      "status": {dumps(c.status)},\n'
        f'      "trail": {_json_array(list(map(dumps, c.trail)), "      ")}\n'
        "    }"
        for c in report.checks
    ]
    return (
        "{\n"
        f'  "suite": {dumps(report.suite)},\n'
        f'  "status": {dumps(report.status)},\n'
        f'  "checks": {_json_array(checks, "  ")}\n'
        "}\n"
    )


def emit_markdown(report: SuiteReport) -> str:
    """One table per suite; the merged report groups by id prefix."""
    passed, failed = report.counts
    lines = [
        f"# suite {report.suite}: {report.status}",
        "",
        f"{passed} passed, {failed} failed",
    ]
    groups: dict[str, list[Check]] = {}
    for check in report.checks:
        prefix, _, rest = check.id.partition("/")
        if report.suite == "all" and rest:
            groups.setdefault(prefix, []).append(check)
        else:
            groups.setdefault(report.suite, []).append(check)
    for group in sorted(groups):
        lines += [
            "",
            f"## {group}",
            "",
            "| check | reference | expected | computed | status |",
            "| --- | --- | --- | --- | --- |",
        ]
        for check in groups[group]:
            cells = (
                check.id,
                check.ref,
                check.expected,
                check.computed,
                check.status,
            )
            lines.append("| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |")
    return "\n".join(lines) + "\n"
