"""Load and validate the exact-rational configuration document.

The document is JSON with four packs of scalar entries plus one quadratic
space.  Every scalar entry is an object {"value": "p/q", "source": text}
whose value parses as an exact rational and whose source records where the
number comes from.  Scalar values and Gram cells share one wire format: a
string ``n`` or ``p/q`` of ASCII digits with an optional leading minus,
each integer at most 64 digits long.  JSON numbers, booleans, decimals and
exponents are rejected, which also bounds the size of every integer the
exact kernels see.  Validation is strict: duplicate keys, malformed
rationals, missing required keys and unrecognised keys are all errors that
name the offending key.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping

from .linalg import Matrix

FUJIKI_KEYS = (
    "C(1)",
    "C(qbar)",
    "C(qbar^2)",
    "C(qbar^3)",
    "C(c2)",
    "C(qbar*c2)",
    "C(qbar^2*c2)",
    "C(c2^2)",
    "C(qbar*c2^2)",
    "C(c4)",
    "C(qbar*c4)",
    "C(c2^3)",
    "C(c2*c4)",
    "C(c6)",
)

FOURFOLD_KEYS = (
    "fujiki_constant",
    "qbar_fujiki",
    "qbar_square",
    "c2_qbar_ratio",
    "c4_degree",
)

GEOMETRY_KEYS = (
    "xi_square",
    "surface_c2_degree",
    "normal_c2_degree",
    "restricted_c2_degree",
    "surface_delta_square",
    "transversal_points",
    "c4_component_pairing",
)

SIXFOLD_HODGE_PAIRS = (
    (0, 0), (1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (3, 1),
    (2, 2), (5, 0), (4, 1), (3, 2), (6, 0), (5, 1), (4, 2), (3, 3),
)

ABELIAN_HODGE_PAIRS = ((0, 0), (1, 0), (2, 0), (1, 1))

HODGE_KEYS = (
    tuple(f"sixfold h({p},{q})" for p, q in SIXFOLD_HODGE_PAIRS)
    + tuple(f"abelian h({p},{q})" for p, q in ABELIAN_HODGE_PAIRS)
    + (
        "length4 h(4,0)",
        "length4 h(3,1)",
        "length4 h(2,2)",
        "length4 b6",
        "spin rank",
        "odd rank",
        "reflection extra points",
        "translation surface count",
        "surface euler",
        "blowup h(3,1) target",
        "blowup h(4,0) target",
    )
)

_PACKS = {
    "fujiki_constants": FUJIKI_KEYS,
    "fourfold_pack": FOURFOLD_KEYS,
    "geometry_pack": GEOMETRY_KEYS,
    "hodge_pack": HODGE_KEYS,
}

_SECTIONS = tuple(_PACKS) + ("h2_space",)


# The one wire format of a rational: "n" or "p/q", at most 64 digits each.
MAX_DIGITS = 64
_RATIONAL = re.compile(rf"-?[0-9]{{1,{MAX_DIGITS}}}(/[0-9]{{1,{MAX_DIGITS}}})?")


class ConfigError(Exception):
    """Raised for any structural or parse problem in the document."""


@dataclass(frozen=True)
class ConfigEntry:
    key: str
    value: Fraction
    source: str


@dataclass(frozen=True)
class ConfigDocument:
    fujiki_constants: Mapping[str, ConfigEntry]
    fourfold_pack: Mapping[str, ConfigEntry]
    geometry_pack: Mapping[str, ConfigEntry]
    hodge_pack: Mapping[str, ConfigEntry]
    h2_labels: tuple[str, ...]
    h2_gram: Matrix

    def fujiki_values(self) -> dict[str, Fraction]:
        return {k: e.value for k, e in self.fujiki_constants.items()}

    def fourfold(self, key: str) -> Fraction:
        return self._get("fourfold_pack", self.fourfold_pack, key)

    def geometry(self, key: str) -> Fraction:
        return self._get("geometry_pack", self.geometry_pack, key)

    def hodge(self, key: str) -> Fraction:
        return self._get("hodge_pack", self.hodge_pack, key)

    def hodge_int(self, key: str) -> int:
        value = self.hodge(key)
        if value.denominator != 1:
            raise ConfigError(f"hodge_pack.{key}: expected an integer, got {value}")
        return value.numerator

    def sixfold_half(self) -> dict[tuple[int, int], int]:
        return {
            (p, q): self.hodge_int(f"sixfold h({p},{q})")
            for p, q in SIXFOLD_HODGE_PAIRS
        }

    def abelian_half(self) -> dict[tuple[int, int], int]:
        return {
            (p, q): self.hodge_int(f"abelian h({p},{q})")
            for p, q in ABELIAN_HODGE_PAIRS
        }

    def length4_weight4_row(self) -> tuple[int, ...]:
        a = self.hodge_int("length4 h(4,0)")
        b = self.hodge_int("length4 h(3,1)")
        c = self.hodge_int("length4 h(2,2)")
        return (a, b, c, b, a)

    @staticmethod
    def _get(pack: str, entries: Mapping[str, ConfigEntry], key: str) -> Fraction:
        if key not in entries:
            raise ConfigError(f"{pack}.{key}: missing required key")
        return entries[key].value

    def to_json_obj(self) -> dict:
        out: dict = {}
        for pack_name, entries in (
            ("fujiki_constants", self.fujiki_constants),
            ("fourfold_pack", self.fourfold_pack),
            ("geometry_pack", self.geometry_pack),
            ("hodge_pack", self.hodge_pack),
        ):
            out[pack_name] = {
                k: {"value": str(e.value), "source": e.source}
                for k, e in entries.items()
            }
        out["h2_space"] = {
            "labels": list(self.h2_labels),
            "gram": self.h2_gram.to_lists(),
        }
        return out


def _reject_duplicates(pairs: list[tuple[str, object]]) -> dict:
    seen: dict = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key: {key}")
        seen[key] = value
    return seen


def _parse_entry(pack: str, key: str, raw: object) -> ConfigEntry:
    where = f"{pack}.{key}"
    if not isinstance(raw, dict) or set(raw) != {"value", "source"}:
        raise ConfigError(f"{where}: entry must be an object with value and source")
    source = raw["source"]
    if not isinstance(source, str) or not source:
        raise ConfigError(f"{where}: source must be a nonempty string")
    return ConfigEntry(key=key, value=_parse_rational(where, raw["value"]), source=source)


def _parse_rational(where: str, value: object) -> Fraction:
    """Parse one value in the wire format, or name ``where`` in the error."""
    if not isinstance(value, str):
        raise ConfigError(
            f"{where}: value must be a rational string, got {type(value).__name__}"
        )
    if not _RATIONAL.fullmatch(value):
        raise ConfigError(
            f"{where}: invalid rational value {value[:80]!r}; "
            f"expected 'n' or 'p/q' with at most {MAX_DIGITS} digits each"
        )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ConfigError(f"{where}: invalid rational value {value!r}") from None


def _parse_pack(pack: str, raw: object, required: tuple[str, ...]) -> dict[str, ConfigEntry]:
    if not isinstance(raw, dict):
        raise ConfigError(f"{pack}: must be an object of entries")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigError(f"{pack}: missing required keys {missing}")
    unknown = sorted(set(raw) - set(required))
    if unknown:
        raise ConfigError(f"{pack}: unrecognised keys {unknown}")
    return {key: _parse_entry(pack, key, raw[key]) for key in required}


def _parse_h2_space(raw: object) -> tuple[tuple[str, ...], Matrix]:
    if not isinstance(raw, dict) or set(raw) != {"labels", "gram"}:
        raise ConfigError("h2_space: must be an object with labels and gram")
    labels = raw["labels"]
    if (
        not isinstance(labels, list)
        or not labels
        or not all(isinstance(x, str) and x for x in labels)
    ):
        raise ConfigError("h2_space.labels: must be a nonempty list of names")
    if len(set(labels)) != len(labels):
        raise ConfigError("h2_space.labels: names must be unique")
    gram_raw = raw["gram"]
    n = len(labels)
    if not isinstance(gram_raw, list) or len(gram_raw) != n:
        raise ConfigError(f"h2_space.gram: must have {n} rows")
    rows = []
    for i, row in enumerate(gram_raw):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"h2_space.gram row {i}: must have {n} entries")
        rows.append(
            [_parse_rational(f"h2_space.gram[{i}][{j}]", cell) for j, cell in enumerate(row)]
        )
    return tuple(labels), Matrix(rows)


def parse_config(text: str) -> ConfigDocument:
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates)
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise ConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("document root must be an object")
    missing = [name for name in _SECTIONS if name not in raw]
    if missing:
        raise ConfigError(f"missing required sections {missing}")
    unknown = sorted(set(raw) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unrecognised sections {unknown}")
    packs = {
        name: _parse_pack(name, raw[name], required)
        for name, required in _PACKS.items()
    }
    labels, gram = _parse_h2_space(raw["h2_space"])
    return ConfigDocument(
        fujiki_constants=packs["fujiki_constants"],
        fourfold_pack=packs["fourfold_pack"],
        geometry_pack=packs["geometry_pack"],
        hodge_pack=packs["hodge_pack"],
        h2_labels=labels,
        h2_gram=gram,
    )


def load_config(path: str) -> ConfigDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return parse_config(text)


def default_config_text() -> str:
    return (
        resources.files("kum3check").joinpath("data/default_config.json").read_text()
    )


def default_config() -> ConfigDocument:
    return parse_config(default_config_text())
