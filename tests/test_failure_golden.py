"""A golden for failing documents: what ``verify all`` prints on bad input.

The default golden (``bench/golden.json``) pins only a passing document.
This one pins, for a fixed corpus built from the default config, each
document's exit code, the sha256 of its stdout and of its stderr, and the
ids of its failing checks, run in process through ``cli.main``:

* every one of the 57 scalar entries set to 0 and to 1/2;
* the H^2 Gram edit, a renamed H^2 label and a duplicate key;
* negative and fractional Hodge numbers;
* the default document itself;
* a two-entry Fujiki edit that makes integral qbar*z^2 vanish;
* one document for each loader check that the edits above leave unrun.

The raise table (``test_raise_table.py``) names its document witnesses
from this corpus.  The same run also checks that no check of any document
prints the text of an interpreter exception (``ZeroDivisionError: ...``),
which the interpreter, not the checker, words.

A change that alters failing output on purpose rewrites the manifest and
shows as its diff:

    PYTHONPATH=src python tests/test_failure_golden.py

With ``--check`` the script writes nothing: it prints the name of each
document whose record differs from the manifest and exits 1 if there is
one.  The module imports only the standard library and ``kum3check``, so
the check runs on an interpreter without pytest.
"""

import argparse
import contextlib
import hashlib
import io
import json
import operator
import sys
import tempfile
from functools import reduce
from pathlib import Path

from kum3check.cli import main
from kum3check.config import default_config_text

MANIFEST = Path(__file__).resolve().parent / "failure_golden.json"
SCALAR_PACKS = ("fujiki_constants", "fourfold_pack", "geometry_pack", "hodge_pack")


DROP = object()  # an edit's value that deletes the item at its path

# Documents that the loader rejects, one for each of its checks that the
# entry edits leave unrun: (name, path into the default document, value).
REJECTED = (
    ("fujiki_constants.C(1): a bare value", ("fujiki_constants", "C(1)"), "60"),
    ("fujiki_constants.C(1): empty source", ("fujiki_constants", "C(1)", "source"), ""),
    ("fujiki_constants.C(1) = 60, a JSON number", ("fujiki_constants", "C(1)", "value"), 60),
    ("fujiki_constants.C(1) = 1.5", ("fujiki_constants", "C(1)", "value"), "1.5"),
    ("fujiki_constants.C(1) = 1/0", ("fujiki_constants", "C(1)", "value"), "1/0"),
    ("fujiki_constants: a list", ("fujiki_constants",), []),
    ("fujiki_constants.C(c6) dropped", ("fujiki_constants", "C(c6)"), DROP),
    (
        "fujiki_constants.C(c8) added",
        ("fujiki_constants", "C(c8)"),
        {"value": "1", "source": "an unknown key"},
    ),
    ("h2_space.gram dropped", ("h2_space", "gram"), DROP),
    ("h2_space.labels empty", ("h2_space", "labels"), []),
    ("h2_space.labels: y1 renamed y2", ("h2_space", "labels", 0), "y2"),
    ("h2_space.gram: last row dropped", ("h2_space", "gram", 6), DROP),
    ("h2_space.gram[0]: last entry dropped", ("h2_space", "gram", 0, 6), DROP),
    ("h2_space.gram[0][1] = 1", ("h2_space", "gram", 0, 1), "1"),
    ("hodge_pack dropped", ("hodge_pack",), DROP),
    ("notes section added", ("notes",), {}),
    (
        "fujiki_constants.C(1): a source note of 2^20 characters",
        ("fujiki_constants", "C(1)", "source"),
        "x" * (1 << 20),
    ),
)


def _edited(*edits) -> str:
    """The default document with each ``(path, value)`` edit applied."""
    raw = json.loads(default_config_text())
    for (*parents, last), value in edits:
        target = reduce(operator.getitem, parents, raw)
        if value is DROP:
            del target[last]
        else:
            target[last] = value
    return json.dumps(raw, indent=2)


def _with_entry(pack: str, key: str, value: str) -> str:
    return _edited(((pack, key, "value"), value))


def corpus() -> dict[str, str]:
    """Each document of the golden, by name, in a fixed order."""
    raw = json.loads(default_config_text())
    docs = {"default": json.dumps(raw, indent=2)}
    for value in ("0", "1/2"):
        for pack in SCALAR_PACKS:
            for key in raw[pack]:
                docs[f"{pack}.{key} = {value}"] = _with_entry(pack, key, value)
    for key, value in (
        ("spin rank", "-3"),
        ("sixfold h(1,1)", "-1"),
        ("odd rank", "255/2"),
    ):
        docs[f"hodge_pack.{key} = {value}"] = _with_entry("hodge_pack", key, value)

    gram = json.loads(default_config_text())
    gram["h2_space"]["gram"][0][0] = "6"
    docs["h2_space.gram[0][0] = 6"] = json.dumps(gram, indent=2)
    renamed = json.loads(default_config_text())
    renamed["h2_space"]["labels"][0] = "w1"
    docs["h2_space.labels: y1 renamed w1"] = json.dumps(renamed, indent=2)
    text = json.dumps(raw, indent=2)
    first = '"fujiki_constants": {'
    duplicate = '"C(1)": {"value": "60", "source": "a second C(1)"},'
    docs["duplicate key fujiki_constants.C(1)"] = text.replace(first, first + duplicate, 1)

    # both degree-8 entries keep the factor 7, and integral qbar*z^2 is 0
    docs["fujiki_constants.C(qbar*c2^2) = 1596672/121, C(c2^2) = 228096/121"] = _edited(
        (("fujiki_constants", "C(qbar*c2^2)", "value"), "1596672/121"),
        (("fujiki_constants", "C(c2^2)", "value"), "228096/121"),
    )
    for name, path, value in REJECTED:
        docs[name] = _edited((path, value))
    docs["not JSON: the last brace dropped"] = text[:-1]
    docs["JSON nested 100000 deep"] = "[" * 100_000 + "]" * 100_000
    docs["document root a list"] = "[]"
    return docs


def run_document(text: str, path: Path) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one document through ``kum3check verify all``."""
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "all", "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def _checks(code: int, stdout: str) -> list[dict]:
    """The checks of a report; none when the run printed no report."""
    return json.loads(stdout)["checks"] if code in (0, 1) else []


def record(code: int, stdout: str, stderr: str) -> dict:
    """A document's manifest record: exit code, output hashes and failing checks."""
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.encode()).hexdigest(),
        "failing": [c["id"] for c in _checks(code, stdout) if c["status"] == "fail"],
    }


def run_corpus(directory: Path, names=None) -> dict[str, tuple[int, str, str]]:
    """``run_document`` of each document of the corpus, or of ``names``."""
    docs = corpus()
    path = directory / "document.json"
    return {name: run_document(docs[name], path) for name in names or docs}


def records_of(runs: dict[str, tuple[int, str, str]]) -> dict[str, dict]:
    return {name: record(*run) for name, run in runs.items()}


def differences(records: dict[str, dict]) -> list[str]:
    """The names of the documents whose record differs from the manifest."""
    pinned = json.loads(MANIFEST.read_text())
    names = pinned.keys() | records.keys()
    return sorted(name for name in names if pinned.get(name) != records.get(name))


# Error texts that an interpreter exception wrote: its type, then its message.
INTERPRETER_ERRORS = (
    "ZeroDivisionError:", "KeyError:", "IndexError:", "TypeError:", "AttributeError:"
)


def interpreter_errors(runs: dict[str, tuple[int, str, str]]) -> list[str]:
    """``<document>: <check>`` for each check whose computed text starts
    with an interpreter exception's name."""
    return [
        f"{name}: {c['id']}"
        for name, (code, stdout, _) in runs.items()
        for c in _checks(code, stdout)
        if c["computed"].startswith(INTERPRETER_ERRORS)
    ]


def test_failing_output_matches_the_golden(failure_corpus_runs):
    assert len(failure_corpus_runs) >= 110
    assert differences(records_of(failure_corpus_runs)) == []


def test_no_check_prints_interpreter_exception_text(failure_corpus_runs):
    assert interpreter_errors(failure_corpus_runs) == []


def test_a_stage_that_divides_by_zero_is_flagged(tmp_path, monkeypatch):
    from kum3check import engine

    def divide(constant, square):
        """A restriction factor that divides by a zero it makes itself."""
        return constant / (square * 0)

    monkeypatch.setattr(engine, "derive_restriction_factor", divide)
    flagged = interpreter_errors(run_corpus(tmp_path, ["default"]))
    assert "default: gram19/restriction scaling factor" in flagged


# A document whose report carries a FujikiTableError message.
FUJIKI_ERROR_DOCUMENT = "fujiki_constants.C(qbar) = 1/2"


def test_an_edited_error_message_fails_the_golden(tmp_path, monkeypatch):
    from kum3check.fujiki import FujikiTableError

    pinned = json.loads(MANIFEST.read_text())
    names = [FUJIKI_ERROR_DOCUMENT]
    assert differences({**pinned, **records_of(run_corpus(tmp_path, names))}) == []
    monkeypatch.setattr(
        FujikiTableError, "__str__", lambda self: f"edited: {ValueError.__str__(self)}"
    )
    edited = records_of(run_corpus(tmp_path, names))
    assert differences({**pinned, **edited}) == names
    # the same checks fail; only the message in the report moved
    assert edited[FUJIKI_ERROR_DOCUMENT]["failing"] == pinned[FUJIKI_ERROR_DOCUMENT]["failing"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the failure golden manifest.")
    parser.add_argument(
        "--check", action="store_true", help="compare with the manifest instead; write nothing"
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        pinned = records_of(run_corpus(Path(scratch)))
    if args.check:
        changed = differences(pinned)
        for name in changed:
            print(name)
        print(f"{len(changed)} of {len(pinned)} documents differ from {MANIFEST}", file=sys.stderr)
        sys.exit(1 if changed else 0)
    MANIFEST.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} documents to {MANIFEST}", file=sys.stderr)
