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
itself and encodes only the strings, with
``json.encoder.encode_basestring_ascii``: the C encoder that
``json.dumps(s)`` calls for a string ``s`` under its default arguments,
so each string's bytes are those ``json.dumps`` gives (an indent makes
``json.dumps`` run the pure-Python encoder).
"""

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .linalg import ZERO, Matrix


# The cell types that render as ``str(x)``; a list of only these is
# rendered without a call per cell, and its ``ZERO`` cells without one
# into ``Fraction``.
_NUMBERS = {int, Fraction}


def render_value(value) -> str:
    """Deterministic exact rendering for report fields."""
    if type(value) in (tuple, list):
        if set(map(type, value)) <= _NUMBERS:
            cells = ["0" if x is ZERO else str(x) for x in value]
        else:
            cells = map(render_value, value)
        return "[" + ", ".join(cells) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, Matrix):
        return "[" + ", ".join("[" + ", ".join(row) + "]" for row in value.cell_texts()) + "]"
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
        check_id, ref, render_value(expected), render_value(computed), status, tuple(trail)
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
    go through the encoder that ``json.dumps`` calls for a string."""
    encode = encode_basestring_ascii
    checks = [
        "{\n"
        f'      "id": {encode(c.id)},\n'
        f'      "ref": {encode(c.ref)},\n'
        f'      "expected": {encode(c.expected)},\n'
        f'      "computed": {encode(c.computed)},\n'
        f'      "status": {encode(c.status)},\n'
        f'      "trail": {_json_array(list(map(encode, c.trail)), "      ")}\n'
        "    }"
        for c in report.checks
    ]
    return (
        "{\n"
        f'  "suite": {encode(report.suite)},\n'
        f'  "status": {encode(report.status)},\n'
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
