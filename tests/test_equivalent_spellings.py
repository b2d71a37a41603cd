"""The report is a function of the document's content, not of its spelling.

Each spelling below writes the default document differently without
changing what it says: the H^2 labels in another order (with the Gram
permuted to match), the packs and their entries in reverse order, every
rational unreduced, another JSON indentation, or other ``source`` text.
Each must give the default document's bytes from ``verify all`` in JSON
and in markdown, and, except for the source rewrite, from ``show-config``.
``show-config`` prints each entry with its source, so a rewritten source
changes its output by design; the reports never print a source.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from kum3check.cli import main
from kum3check.config import H2_LABELS, default_config_text

SCALAR_PACKS = ("fujiki_constants", "fourfold_pack", "geometry_pack", "hodge_pack")
COMMANDS = (["verify", "all"], ["verify", "all", "--format", "markdown"], ["show-config"])


def _relabelled(order: tuple[str, ...]):
    def spell(raw: dict) -> dict:
        h2 = raw["h2_space"]
        at = [h2["labels"].index(label) for label in order]
        h2["labels"] = list(order)
        h2["gram"] = [[h2["gram"][i][j] for j in at] for i in at]
        return raw

    return spell


def _reversed(raw: dict) -> dict:
    return {
        section: dict(reversed(raw[section].items())) if section in SCALAR_PACKS else raw[section]
        for section in reversed(raw)
    }


def _unreduced(value: str) -> str:
    q = Fraction(value)
    return f"{3 * q.numerator}/{3 * q.denominator}"


def _all_unreduced(raw: dict) -> dict:
    for pack in SCALAR_PACKS:
        for entry in raw[pack].values():
            entry["value"] = _unreduced(entry["value"])
    raw["h2_space"]["gram"] = [list(map(_unreduced, row)) for row in raw["h2_space"]["gram"]]
    return raw


def _sources_rewritten(raw: dict) -> dict:
    for pack in SCALAR_PACKS:
        for key, entry in raw[pack].items():
            entry["source"] = f"another source for {pack}.{key}"
    return raw


# name: (edit of the parsed default document, JSON indentation)
SPELLINGS = {
    "labels xi z1 y1 z3 y2 z2 y3": (_relabelled(("xi", "z1", "y1", "z3", "y2", "z2", "y3")), 2),
    "labels y1 and y2 swapped": (_relabelled(("y2", "y1", "y3", "z1", "z2", "z3", "xi")), 2),
    "labels reversed": (_relabelled(H2_LABELS[::-1]), 2),
    "packs and entries reversed": (_reversed, 2),
    "every value an unreduced 3p/3q": (_all_unreduced, 2),
    "7-space indentation": (lambda raw: raw, 7),
    "every source rewritten": (_sources_rewritten, 2),
}
# The spellings whose ``show-config`` output differs by design: it echoes sources.
SHOWN_DIFFERENTLY = {"every source rewritten"}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def default_outputs():
    return [_run(argv) for argv in COMMANDS]


@pytest.mark.parametrize("name", SPELLINGS)
def test_an_equivalent_spelling_gives_the_default_bytes(name, default_outputs, tmp_path):
    edit, indent = SPELLINGS[name]
    path = tmp_path / "document.json"
    path.write_text(json.dumps(edit(json.loads(default_config_text())), indent=indent))
    commands = COMMANDS[:2] if name in SHOWN_DIFFERENTLY else COMMANDS
    outputs = [_run([*argv, "--config", str(path)]) for argv in commands]
    assert outputs == default_outputs[: len(commands)]
