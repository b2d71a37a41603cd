"""Benchmark inputs: seeded mutated documents and the golden reports.

Document ``i`` of seed ``s`` perturbs or breaks one scalar entry of the
default configuration; every ``MALFORMED_EVERY``-th document breaks one.
Perturbed and malformed documents each walk the entries systematically: a
seeded offset into the configuration order, then a fixed stride coprime to
the number of entries.  Every entry is therefore equally likely at every
position of either walk, and any ``SPREAD_OVER`` consecutive perturbed
documents step once around all four packs.  The cost of one document depends
on where in the configuration its entry sits (most Fujiki constants stop the
derivation early, a Hodge number does not), so a whole lap of perturbed
documents keeps the means of runs with different seeds comparable.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd
from pathlib import Path
from typing import Iterator

PACKS = ("fujiki_constants", "fourfold_pack", "geometry_pack", "hodge_pack")
PERTURBATIONS = ("+1", "-1", "shift")
MALFORMED = ("non-rational", "missing-key", "duplicate-key", "renamed-label")
# Every MALFORMED_EVERY-th document is malformed; the rest perturb a value.
MALFORMED_EVERY = 4
# SPREAD_OVER consecutive perturbed documents step once around the entries.
SPREAD_OVER = 12

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass(frozen=True)
class MutatedDoc:
    index: int
    entry: str  # the drawn scalar entry, "pack.key"
    target: str  # what the mutation changed; differs only for renamed-label
    kind: str
    text: str

    @property
    def name(self) -> str:
        return f"doc{self.index:03d}"

    @property
    def malformed(self) -> bool:
        return is_malformed(self.index)

    def describe(self) -> str:
        return f"{self.name} {self.target} {self.kind}"


class _Pairs(list):
    """A JSON object written from (key, value) pairs, so keys may repeat."""


def _dump(obj) -> str:
    if isinstance(obj, dict):
        obj = _Pairs(obj.items())
    if isinstance(obj, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in obj) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(_dump(x) for x in obj) + "]"
    return json.dumps(obj)


def is_malformed(index: int) -> bool:
    return index % MALFORMED_EVERY == MALFORMED_EVERY - 1


def scalar_entries(base: dict) -> list[tuple[str, str]]:
    return [(pack, key) for pack in PACKS for key in base[pack]]


def _stride(n: int) -> int:
    step = max(1, -(-n // SPREAD_OVER))
    while gcd(step, n) != 1:
        step += 1
    return step


def _mutate(base: dict, pack: str, key: str, kind: str, rng: random.Random) -> tuple[str, str, str]:
    """Return (target, kind label, document text) for one mutation."""
    doc = copy.deepcopy(base)
    entry = doc[pack][key]
    target = f"{pack}.{key}"
    if kind in ("+1", "-1"):
        entry["value"] = str(Fraction(entry["value"]) + int(kind))
    elif kind == "shift":
        delta = Fraction(rng.choice((1, -1)), rng.choice((2, 3)))
        entry["value"] = str(Fraction(entry["value"]) + delta)
        kind = ("+" if delta > 0 else "") + str(delta)
    elif kind == "non-rational":
        entry["value"] += "x"
    elif kind == "missing-key":
        del doc[pack][key]
    elif kind == "duplicate-key":
        doc[pack] = _Pairs(list(doc[pack].items()) + [(key, dict(entry))])
    elif kind == "renamed-label":
        labels = doc["h2_space"]["labels"]
        j = rng.randrange(len(labels))
        target = f"h2_space.labels[{labels[j]}]"
        labels[j] = "zz"
    else:
        raise ValueError(f"unknown mutation kind {kind!r}")
    return target, kind, _dump(doc)


def mutation_docs(base_text: str, seed: int) -> Iterator[MutatedDoc]:
    """The endless document sequence of one seed; a pure function of it."""
    base = json.loads(base_text)
    entries = scalar_entries(base)
    rng = random.Random(seed)
    offsets = {False: rng.randrange(len(entries)), True: rng.randrange(len(entries))}
    step = _stride(len(entries))
    drawn = {False: 0, True: 0}  # documents so far of each walk
    for i in count():
        malformed = is_malformed(i)
        pack, key = entries[(offsets[malformed] + drawn[malformed] * step) % len(entries)]
        drawn[malformed] += 1
        kind = rng.choice(MALFORMED if malformed else PERTURBATIONS)
        target, label, text = _mutate(base, pack, key, kind, rng)
        yield MutatedDoc(i, f"{pack}.{key}", target, label, text)


def load_golden() -> dict[str, str]:
    """Suite name -> sha256 of its default-config JSON report at the seed."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return {suite: entry["sha256"] for suite, entry in json.load(handle).items()}


def matches_golden(golden: dict[str, str], suite: str, report: bytes) -> bool:
    return hashlib.sha256(report).hexdigest() == golden[suite]
