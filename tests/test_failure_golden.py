"""A golden for failing documents: what ``verify all`` prints on bad input.

The default golden (``bench/golden.json``) pins only a passing document.
This one pins, for a fixed corpus built from the default config, each
document's exit code, the sha256 of its stdout and of its stderr, and the
ids of its failing checks, run in process through ``cli.main``:

* every one of the 57 scalar entries set to 0 and to 1/2;
* the H^2 Gram edit, a renamed H^2 label and a duplicate key;
* negative and fractional Hodge numbers;
* the default document itself.

A change that alters failing output on purpose rewrites the manifest and
shows as its diff:

    PYTHONPATH=src python tests/test_failure_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from kum3check.cli import main
from kum3check.config import default_config_text

MANIFEST = Path(__file__).resolve().parent / "failure_golden.json"
SCALAR_PACKS = ("fujiki_constants", "fourfold_pack", "geometry_pack", "hodge_pack")


def _with_entry(pack: str, key: str, value: str) -> str:
    raw = json.loads(default_config_text())
    raw[pack][key]["value"] = value
    return json.dumps(raw, indent=2)


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
    return docs


def run_document(text: str, path: Path) -> dict:
    """The record of one document through ``kum3check verify all``."""
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "all", "--config", str(path)])
    stdout = out.getvalue()
    failing = []
    if code in (0, 1):
        failing = [c["id"] for c in json.loads(stdout)["checks"] if c["status"] == "fail"]
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "failing": failing,
    }


def run_corpus(directory: Path, names=None) -> dict[str, dict]:
    docs = corpus()
    path = directory / "document.json"
    return {name: run_document(docs[name], path) for name in names or docs}


def differences(records: dict[str, dict]) -> list[str]:
    """The names of the documents whose record differs from the manifest."""
    pinned = json.loads(MANIFEST.read_text())
    names = pinned.keys() | records.keys()
    return sorted(name for name in names if pinned.get(name) != records.get(name))


def test_failing_output_matches_the_golden(tmp_path):
    records = run_corpus(tmp_path)
    assert len(records) >= 110
    assert differences(records) == []


# A document whose report carries a FujikiTableError message.
FUJIKI_ERROR_DOCUMENT = "fujiki_constants.C(qbar) = 1/2"


def test_an_edited_error_message_fails_the_golden(tmp_path, monkeypatch):
    from kum3check.fujiki import FujikiTableError

    pinned = json.loads(MANIFEST.read_text())
    names = [FUJIKI_ERROR_DOCUMENT]
    assert differences({**pinned, **run_corpus(tmp_path, names)}) == []
    monkeypatch.setattr(
        FujikiTableError, "__str__", lambda self: f"edited: {ValueError.__str__(self)}"
    )
    edited = run_corpus(tmp_path, names)
    assert differences({**pinned, **edited}) == names
    # the same checks fail; only the message in the report moved
    assert edited[FUJIKI_ERROR_DOCUMENT]["failing"] == pinned[FUJIKI_ERROR_DOCUMENT]["failing"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        records = run_corpus(Path(scratch))
    MANIFEST.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} documents to {MANIFEST}", file=sys.stderr)
