"""Load and validate the exact-rational configuration document.

The document is JSON with four packs of scalar entries plus one quadratic
space.  Every scalar entry is an object {"value": "p/q", "source": text}
whose value parses as an exact rational and whose source records where the
number comes from.  Scalar values and Gram cells share one wire format: a
string ``n`` or ``p/q`` of ASCII digits with an optional leading minus,
each integer at most 64 digits long.  JSON numbers, booleans, decimals and
exponents are rejected, which also bounds the size of every integer the
exact kernels see.  The whole document is bounded too: text longer than
``MAX_DOCUMENT_CHARS`` is rejected before it is parsed, and ``load_config``
reads at most one character more.  Validation is strict: duplicate keys,
malformed rationals, missing required keys and unrecognised keys are all
errors that name the offending key.  The H^2 labels must be the seven
names of ``H2_LABELS``, in any order, and the H^2 Gram must be diagonal
with nonzero diagonal cells, because every quadratic space of the engine
is an orthogonal basis.  The loader keeps the squares in ``H2_LABELS``
order, so documents that differ only in label order are equal.  The
entries of ``NONZERO_ENTRIES`` must be nonzero, because a derivation
divides by each.

A scalar entry has one name, ``<pack>.<key>`` (``geometry_pack.xi_square``),
the name the loader's errors use.  ``ConfigDocument`` maps each name to
its entry, and ``value(name)`` is the one way the engine and the suites
read an entry; ``integer(name)`` reads the entries that must be integers.
The H^2 space is kept as the squares on the diagonal of its checked Gram,
in ``H2_LABELS`` order.  The default document is the file
``data/default_config.json`` next to this module, read by ``load_config``.
"""

import json
import os
import re
from fractions import Fraction
from typing import Mapping, NamedTuple

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

# The ambient H^2 basis, in the one order the loader stores its squares in;
# ``wgeometry.restriction_images`` gives the images in the same order.
H2_LABELS = ("y1", "y2", "y3", "z1", "z2", "z3", "xi")

_PACKS = {
    "fujiki_constants": FUJIKI_KEYS,
    "fourfold_pack": FOURFOLD_KEYS,
    "geometry_pack": GEOMETRY_KEYS,
    "hodge_pack": HODGE_KEYS,
}

_SECTIONS = tuple(_PACKS) + ("h2_space",)

# The entries a derivation divides by: the low sides of ``fujiki.DUAL_PAIRS``,
# C(1) of a fixed fourfold, its c2 to qbar ratio, and the square of xi.
NONZERO_ENTRIES = frozenset(
    [f"fujiki_constants.C({m})" for m in ("qbar", "qbar^2", "c2", "qbar*c2", "c2^2", "c4")]
    + ["fourfold_pack.fujiki_constant", "fourfold_pack.c2_qbar_ratio", "geometry_pack.xi_square"]
)


# The longest document the loader accepts, in characters (the default
# document has 7,480).
MAX_DOCUMENT_CHARS = 1 << 20

# The one wire format of a rational: "n" or "p/q", at most 64 digits each.
MAX_DIGITS = 64
_RATIONAL = re.compile(rf"-?[0-9]{{1,{MAX_DIGITS}}}(/[0-9]{{1,{MAX_DIGITS}}})?")


class ConfigError(Exception):
    """Raised for any structural or parse problem in the document."""


class ConfigEntry(NamedTuple):
    value: Fraction
    source: str


class ConfigDocument:
    """The validated document: each scalar entry under its name
    ``<pack>.<key>``, and the H^2 squares in ``H2_LABELS`` order.

    Not a tuple or a mapping: indexing or iterating the document would
    bypass ``value`` and ``integer``.  Documents with the same entries and
    H^2 squares are equal, so documents that differ only in label order
    are equal.
    """

    __slots__ = ("named_entries", "h2_squares")

    def __init__(
        self, named_entries: Mapping[str, ConfigEntry], h2_squares: tuple[Fraction, ...]
    ):
        self.named_entries = named_entries
        self.h2_squares = h2_squares

    def __eq__(self, other) -> bool:
        return isinstance(other, ConfigDocument) and (
            self.named_entries, self.h2_squares
        ) == (other.named_entries, other.h2_squares)

    def value(self, name: str) -> Fraction:
        """The value of the entry ``<pack>.<key>``."""
        return self.named_entries[name].value

    def integer(self, name: str) -> int:
        """The value of the entry ``<pack>.<key>``, which must be an integer."""
        value = self.value(name)
        if value.denominator != 1:
            raise ConfigError(f"{name}: expected an integer, got {value}")
        return value.numerator

    def to_json_obj(self) -> dict:
        out: dict = {pack: {} for pack in _PACKS}
        for name, e in self.named_entries.items():
            pack, key = name.split(".", 1)
            out[pack][key] = {"value": str(e.value), "source": e.source}
        squares = self.h2_squares
        out["h2_space"] = {
            "labels": list(H2_LABELS),
            "gram": [
                [str(q) if i == j else "0" for j in range(len(squares))]
                for i, q in enumerate(squares)
            ],
        }
        return out


def _reject_duplicates(pairs: list[tuple[str, object]]) -> dict:
    seen: dict = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key: {key}")
        seen[key] = value
    return seen


def _parse_entry(where: str, raw: object) -> ConfigEntry:
    if not isinstance(raw, dict) or set(raw) != {"value", "source"}:
        raise ConfigError(f"{where}: entry must be an object with value and source")
    source = raw["source"]
    if not isinstance(source, str) or not source:
        raise ConfigError(f"{where}: source must be a nonempty string")
    value = _parse_rational(where, raw["value"])
    if not value and where in NONZERO_ENTRIES:
        raise ConfigError(f"{where}: must be nonzero, because a derivation divides by it")
    return ConfigEntry(value=value, source=source)


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
    return {
        f"{pack}.{key}": _parse_entry(f"{pack}.{key}", raw[key]) for key in required
    }


def _parse_h2_space(raw: object) -> tuple[Fraction, ...]:
    """The squares of the checked H^2 Gram, in ``H2_LABELS`` order."""
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
    missing = [x for x in H2_LABELS if x not in labels]
    unknown = [x for x in labels if x not in H2_LABELS]
    if missing or unknown:
        raise ConfigError(
            f"h2_space.labels: expected the names {list(H2_LABELS)}; "
            f"missing {missing}, unknown {[x[:80] for x in unknown]}"
        )
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
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if (i == j) != bool(cell):
                raise ConfigError(
                    f"h2_space.gram[{i}][{j}]: the Gram must be diagonal with a "
                    f"nonzero diagonal (an orthogonal basis); got {cell}"
                )
    return tuple(rows[i][i] for i in map(labels.index, H2_LABELS))


def parse_config(text: str) -> ConfigDocument:
    if len(text) > MAX_DOCUMENT_CHARS:
        raise ConfigError(f"document is longer than {MAX_DOCUMENT_CHARS} characters")
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates)
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise ConfigError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("not valid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError("document root must be an object")
    missing = [name for name in _SECTIONS if name not in raw]
    if missing:
        raise ConfigError(f"missing required sections {missing}")
    unknown = sorted(set(raw) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unrecognised sections {unknown}")
    entries: dict[str, ConfigEntry] = {}
    for pack, required in _PACKS.items():
        entries.update(_parse_pack(pack, raw[pack], required))
    return ConfigDocument(named_entries=entries, h2_squares=_parse_h2_space(raw["h2_space"]))


def load_config(path: str) -> ConfigDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read(MAX_DOCUMENT_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return parse_config(text)


_DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "data", "default_config.json")


def default_config_text() -> str:
    with open(_DEFAULT_PATH, "r", encoding="utf-8") as handle:
        return handle.read()


def default_config() -> ConfigDocument:
    return load_config(_DEFAULT_PATH)
