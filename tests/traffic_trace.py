"""Which lines of ``src/kum3check`` does no document reach?

Traces every line that runs in the package while ``cli.main`` serves a
fixed traffic in process:

* every suite on the default document, in JSON and in markdown;
* ``list-suites``, ``show-config``, ``verify nosuch`` and
  ``verify all --out <file>``;
* ``verify all`` on each document of the failure golden's corpus
  (``test_failure_golden.corpus()``);
* ``verify all`` with each of the 57 scalar entries set to each of
  ``VALUES``.

It then prints each executable line of the package that no run reached
(the lines of every code object compiled from its modules), and
``N of M unrun`` last.  A line listed here serves no document of the
traffic: a loader guard, an argument check, an I/O path, or code that a
change could drop.

    PYTHONPATH=src python tests/traffic_trace.py

A run takes under a minute.  The trace is set before ``kum3check`` is
imported, so module-level lines count too.  The module imports only the
standard library and ``kum3check``, and pytest does not collect it.
"""

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kum3check"
VALUES = ("-3", "7/3", "-16", "-4", "1")

# the lines reached in each module of the package, by resolved path
reached: dict[Path, set[int]] = {}
_by_filename: dict[str, set[int] | None] = {}


def _trace(frame, event, arg):
    """The global trace: line-trace only frames of the package's modules."""
    name = frame.f_code.co_filename
    if name not in _by_filename:
        _by_filename[name] = reached.get(Path(name).resolve())
    lines = _by_filename[name]
    if lines is None:
        return None
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local

    return local


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    out, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        out |= {line for _, _, line in code.co_lines() if line is not None}
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def serve(main, argv: list[str]) -> None:
    """``main(argv)`` with its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)


def traffic(directory: Path) -> int:
    """Serve the traffic; returns the number of documents run."""
    from kum3check import SUITE_NAMES
    from kum3check.cli import main
    from kum3check.config import default_config_text
    from test_failure_golden import SCALAR_PACKS, corpus, run_document

    for suite in SUITE_NAMES:
        for form in ("json", "markdown"):
            serve(main, ["verify", suite, "--format", form])
    serve(main, ["list-suites"])
    serve(main, ["show-config"])
    serve(main, ["verify", "nosuch"])
    serve(main, ["verify", "all", "--out", str(directory / "report.json")])

    raw = json.loads(default_config_text())
    docs = list(corpus().values())
    for pack in SCALAR_PACKS:
        for key in raw[pack]:
            for value in VALUES:
                doc = json.loads(default_config_text())
                doc[pack][key]["value"] = value
                docs.append(json.dumps(doc, indent=2))
    path = directory / "document.json"
    for text in docs:
        run_document(text, path)
    return len(docs)


if __name__ == "__main__":
    start = time.perf_counter()
    reached.update({path: set() for path in sorted(PACKAGE.glob("*.py"))})
    sys.settrace(_trace)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            documents = traffic(Path(scratch))
    finally:
        sys.settrace(None)
    unrun = total = 0
    for path, lines in reached.items():
        source = path.read_text(encoding="utf-8").splitlines()
        executable = executable_lines(path)
        total += len(executable)
        for line in sorted(executable - lines):
            unrun += 1
            print(f"{path.relative_to(PACKAGE.parent)}:{line}: {source[line - 1].strip()}")
    print(
        f"{documents} documents in {time.perf_counter() - start:.0f} s",
        file=sys.stderr,
    )
    print(f"{unrun} of {total} unrun")
