import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from kum3check.bookkeeping import rank_table_matches_diamond, rep_dims
from kum3check.config import default_config_text, parse_config
from kum3check.engine import Engine, stage
from kum3check.fujiki import evaluate_fujiki, qbar_factor
from kum3check.linalg import Matrix, rank
from kum3check.report import emit_json, emit_markdown
from kum3check.suites import EXPECTED_CONSTANTS, SUITE_NAMES, SUITES, run_suite
from kum3check.wgeometry import restriction_is_similitude

EXPECTED_COUNTS = {
    "fujiki-table": 23,
    "basis-lemma": 6,
    "w-classes": 18,
    "w17-rank": 10,
    "gram19": 7,
    "restrictions": 24,
    "d-classes": 12,
    "bookkeeping": 34,
}


def engine_with(mutate) -> Engine:
    raw = json.loads(default_config_text())
    mutate(raw)
    return Engine(parse_config(json.dumps(raw)))


def test_suite_names():
    assert SUITE_NAMES == tuple(EXPECTED_COUNTS) + ("all",)


def test_rows_name_their_stage_without_a_run():
    # Every value and trail column is a path or a tuple of paths, never a
    # function, and each path starts at an engine stage, so the table alone
    # tells which stages a row reads.
    assert tuple(SUITES) == SUITE_NAMES[:-1]
    rows = [row for suite in SUITES.values() for row in suite]
    assert len(rows) == sum(EXPECTED_COUNTS.values()) == 134
    columns = [column for row in rows for column in row[3:]]
    assert [c for c in columns if callable(c)] == []
    paths = [path for column in columns for path in (column if isinstance(column, tuple) else (column,))]
    assert [p for p in paths if not isinstance(p, str)] == []
    assert [p for p in paths if not isinstance(Engine.__dict__.get(p.split(".")[0]), stage)] == []


def _calls(run, functions) -> Counter:
    """How often ``run()`` enters each of ``functions``, by qualified name."""
    names = {f.__code__: f.__qualname__ for f in functions}
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def test_a_warm_engine_computes_nothing_for_the_rows(doc):
    # each computation a check prints belongs to a stage, so a second run
    # on the same engine reads memos only
    computations = (
        rank,
        qbar_factor,
        evaluate_fujiki,
        restriction_is_similitude,
        Matrix.pairings,
        rank_table_matches_diamond,
        rep_dims,
    )
    engine = Engine(doc)
    first = _calls(lambda: run_suite(engine, "all"), computations)
    assert set(first) == {f.__qualname__ for f in computations}
    assert _calls(lambda: run_suite(engine, "all"), computations) == Counter()


def test_every_suite_passes(engine):
    for name, count in EXPECTED_COUNTS.items():
        report = run_suite(engine, name)
        assert report.status == "pass", name
        assert report.counts == (count, 0), name


def test_all_suite_merges_everything(engine):
    report = run_suite(engine, "all")
    assert report.status == "pass"
    assert report.counts == (sum(EXPECTED_COUNTS.values()), 0)
    prefixes = {check.id.split("/", 1)[0] for check in report.checks}
    assert prefixes == set(EXPECTED_COUNTS)
    assert all("/" in check.id for check in report.checks)


def test_named_checks_exist(engine):
    ids = {check.id for check in run_suite(engine, "all").checks}
    for needed in (
        "fujiki-table/z3 derivation",
        "fujiki-table/auxiliary square constant",
        "basis-lemma/square expansion",
        "w-classes/sum class cube",
        "w17-rank/independence rank",
        "gram19/intersection matrix rank",
        "restrictions/self solution",
        "d-classes/difference relations in kernel",
        "bookkeeping/spin invariant dimension",
    ):
        assert needed in ids


def test_expected_constants_cover_the_table(engine):
    assert set(EXPECTED_CONSTANTS) == set(engine.table)


def test_unknown_suite_is_rejected(engine):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(engine, "nope")


def test_reports_are_deterministic(doc):
    first = run_suite(Engine(doc), "all")
    second = run_suite(Engine(doc), "all")
    assert emit_json(first) == emit_json(second)
    assert emit_markdown(first) == emit_markdown(second)


def test_value_mutation_fails_without_aborting():
    def mutate(raw):
        raw["fujiki_constants"]["C(c2^3)"]["value"] = "30209"

    engine = engine_with(mutate)
    report = run_suite(engine, "fujiki-table")
    assert report.status == "fail"
    failed = {c.id for c in report.checks if c.status == "fail"}
    assert "z3 derivation" in failed
    assert "constant C(c2^3)" in failed


def test_inconsistent_table_turns_into_error_checks():
    def mutate(raw):
        raw["fujiki_constants"]["C(qbar)"]["value"] = "133"

    engine = engine_with(mutate)
    # the nineteen-class matrix never consumes the tabulated constants
    for name, count in EXPECTED_COUNTS.items():
        report = run_suite(engine, name)
        expected = "pass" if name == "gram19" else "fail"
        assert report.status == expected, name
        assert len(report.checks) == count, name
    report = run_suite(engine, "basis-lemma")
    assert any("Error" in c.computed for c in report.checks)


def test_basis_lemma_is_exactly_six_checks(engine):
    assert len(run_suite(engine, "basis-lemma").checks) == 6


SCALAR_PACKS = ("fujiki_constants", "fourfold_pack", "geometry_pack", "hodge_pack")

# Checks of the lattice data built into the checker (the nodal lattice of W,
# the surface space SURFACE, the rank 7 of H^2, and a rank that the configured
# restriction factor only rescales): no single-entry mutation flips them.
# The README lists them too.
BUILT_IN_DATA_CHECKS = {
    "bookkeeping/symmetric cube",
    "bookkeeping/symmetric square and exterior square",
    "gram19/intersection matrix rank",
    "gram19/restricted half-diagonal square",
    "gram19/shifted divisor identity per coset",
    "gram19/shifted divisor sum expansion",
    "restrictions/surface compositions agree",
    "restrictions/surface diagonal square",
    "restrictions/surface half-diagonal square",
    "restrictions/surface mixed pairings",
}


def test_every_scalar_entry_is_load_bearing():
    # +1 on any one of the 57 scalar entries must fail a check of `all`;
    # every entry, the whole of `all`, no sampling.  The checks that no
    # run fails are exactly the checks of built-in data.
    entries = [
        (pack, key)
        for pack in SCALAR_PACKS
        for key in json.loads(default_config_text())[pack]
    ]
    assert len(entries) == 57
    missed = []
    ids, flipped = set(), set()
    for pack, key in entries:
        def mutate(raw, pack=pack, key=key):
            entry = raw[pack][key]
            entry["value"] = str(Fraction(entry["value"]) + 1)

        report = run_suite(engine_with(mutate), "all")
        if report.status != "fail":
            missed.append(f"{pack}.{key}")
        ids |= {c.id for c in report.checks}
        flipped |= {c.id for c in report.checks if c.status == "fail"}
    assert missed == []
    assert ids - flipped == BUILT_IN_DATA_CHECKS


@pytest.mark.parametrize("key, value", [("qbar_square", "576"), ("qbar_fujiki", "26")])
def test_dual_class_entries_feed_the_nineteen_class_matrix(key, value):
    def mutate(raw):
        raw["fourfold_pack"][key]["value"] = value

    report = run_suite(engine_with(mutate), "gram19")
    failed = [c.id for c in report.checks if c.status == "fail"]
    assert failed == ["intersection matrix of the invariant classes"]
