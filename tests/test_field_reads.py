"""A typed guard against record fields that nothing reads.

``test_dead_code.py`` matches members by name, so a field ``trail`` of one
record stays "read" while any other record's ``trail`` is read.  This guard
tells the records apart: it replaces every ``NamedTuple`` field of every
``src/kum3check`` module with a property that counts its reads, runs the
command line in process (``verify all`` to JSON and to markdown, and
``show-config``), restores the fields, and lists each field that no read
reached.  No record is exempt: the json report writes each field of a
``report.Check`` by name.
"""

import contextlib
import importlib
import io
import pkgutil
from collections import Counter
from typing import NamedTuple

import kum3check
from kum3check.cli import main

COMMANDS = (["verify", "all"], ["verify", "all", "--format", "markdown"], ["show-config"])


def named_tuples() -> dict[str, type]:
    """Each ``NamedTuple`` class of the package, as ``module.Class``."""
    found = {}
    for info in pkgutil.iter_modules(kum3check.__path__):
        module = importlib.import_module(f"kum3check.{info.name}")
        for name, value in vars(module).items():
            if (
                isinstance(value, type)
                and issubclass(value, tuple)
                and hasattr(value, "_fields")
                and value.__module__ == module.__name__
            ):
                found[f"{info.name}.{name}"] = value
    return found


def unread_fields(classes: dict[str, type], run) -> list[str]:
    """``module.Class.field`` for each field of ``classes`` that ``run()`` never reads."""
    reads = Counter()
    originals = {}

    def counting(key, getter):
        def read(self):
            reads[key] += 1
            return getter.__get__(self)

        return property(read)

    try:
        for cls in classes.values():
            for field in cls._fields:
                key = cls, field
                originals[key] = getter = vars(cls)[field]
                setattr(cls, field, counting(key, getter))
        run()
    finally:
        for (cls, field), getter in originals.items():
            setattr(cls, field, getter)
    names = {cls: name for name, cls in classes.items()}
    return [f"{names[cls]}.{field}" for cls, field in originals if not reads[cls, field]]


def run_commands() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for command in COMMANDS:
            assert main(command) == 0, command


def test_every_record_field_is_read_by_a_run():
    classes = named_tuples()
    assert len(classes) >= 20
    assert unread_fields(classes, run_commands) == []


def test_the_fields_are_restored():
    classes = named_tuples()
    before = {(cls, f): vars(cls)[f] for cls in classes.values() for f in cls._fields}
    unread_fields(classes, lambda: None)
    assert all(vars(cls)[f] is getter for (cls, f), getter in before.items())


class _Probe(NamedTuple):
    used: int
    unused: int


def test_an_unread_field_is_flagged():
    assert unread_fields({"probe._Probe": _Probe}, lambda: _Probe(1, 2).used) == [
        "probe._Probe.unused"
    ]
