"""Search for two-entry edits of the default document that still pass.

Every scalar entry is load-bearing alone: moving one by +1 fails a check.
Two entries can still move together unseen, when the checks read only a
combination of them that the edit keeps.  This script takes each unordered
pair of the 57 scalar entries and moves both by each delta pair of
``DELTAS`` (seven pairs and their negatives, twelve in all).  It skips a
document that the loader rejects, runs ``verify all`` on the others in
process, and prints each document that passes, with whether its JSON report
is byte-identical to the default one.  It exits 1 if any document passes.

    PYTHONPATH=src python tests/compensation_search.py

A full run takes about ten minutes.  The module imports only the standard
library and ``kum3check``, and pytest does not collect it.
"""

import json
import sys
import time
from fractions import Fraction
from itertools import combinations

from kum3check.config import ConfigError, default_config_text, parse_config
from kum3check.engine import Engine
from kum3check.report import emit_json
from kum3check.suites import run_suite

SCALAR_PACKS = ("fujiki_constants", "fourfold_pack", "geometry_pack", "hodge_pack")
_PAIRS = ((1, -1), (1, 1), (1, -2), (2, -1), (-1, -1), (1, -16), (16, -1))
# the seven delta pairs and their negatives, without repeats
DELTAS = tuple(dict.fromkeys(_PAIRS + tuple((-a, -b) for a, b in _PAIRS)))


def scalar_entries(raw: dict) -> list[tuple[str, str]]:
    return [(pack, key) for pack in SCALAR_PACKS for key in raw[pack]]


def edited(raw: dict, edits) -> str:
    """The document with each ``((pack, key), delta)`` added to its value."""
    doc = json.loads(json.dumps(raw))
    for (pack, key), delta in edits:
        entry = doc[pack][key]
        entry["value"] = str(Fraction(entry["value"]) + delta)
    return json.dumps(doc, indent=2)


def search() -> tuple[int, int, list[str]]:
    """(documents, documents loaded, names of the passing ones)."""
    raw = json.loads(default_config_text())
    default_report = emit_json(run_suite(Engine(parse_config(default_config_text())), "all"))
    entries = scalar_entries(raw)
    tried = loaded = 0
    passing = []
    for a, b in combinations(entries, 2):
        for da, db in DELTAS:
            tried += 1
            try:
                doc = parse_config(edited(raw, [(a, da), (b, db)]))
            except ConfigError:
                continue
            loaded += 1
            report = run_suite(Engine(doc), "all")
            if report.status == "pass":
                name = f"{'.'.join(a)} {da:+d}, {'.'.join(b)} {db:+d}"
                same = emit_json(report) == default_report
                print(f"passes: {name} (report identical to the default: {same})", flush=True)
                passing.append(name)
    return tried, loaded, passing


if __name__ == "__main__":
    start = time.perf_counter()
    tried, loaded, passing = search()
    print(
        f"{len(passing)} of {loaded} loaded documents pass ({tried} tried, "
        f"{len(DELTAS)} delta pairs) in {time.perf_counter() - start:.0f} s",
        file=sys.stderr,
    )
    sys.exit(1 if passing else 0)
