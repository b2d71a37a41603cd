import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

import kum3check
from kum3check.cli import main
from kum3check.config import (
    ABELIAN_HODGE_PAIRS,
    FOURFOLD_KEYS,
    FUJIKI_KEYS,
    GEOMETRY_KEYS,
    H2_LABELS,
    HODGE_KEYS,
    MAX_DOCUMENT_CHARS,
    NONZERO_ENTRIES,
    ConfigError,
    default_config,
    default_config_text,
    load_config,
    parse_config,
)
from kum3check.engine import Engine
from kum3check.fujiki import DUAL_PAIRS, Deg4
from kum3check.report import (
    Check,
    SuiteReport,
    emit_json,
    emit_markdown,
    error_check,
    make_check,
    render_value,
)
from kum3check.linalg import Matrix
from kum3check.suites import SUITE_NAMES, SUITES, run_suite


def raw_default() -> dict:
    return json.loads(default_config_text())


def parse_mutated(mutate) -> None:
    raw = raw_default()
    mutate(raw)
    parse_config(json.dumps(raw))


# ---------------------------------------------------------------------------
# configuration document


def test_default_config_parses(doc):
    packs = (
        ("fujiki_constants", FUJIKI_KEYS),
        ("fourfold_pack", FOURFOLD_KEYS),
        ("geometry_pack", GEOMETRY_KEYS),
        ("hodge_pack", HODGE_KEYS),
    )
    assert tuple(doc.named_entries) == tuple(
        f"{pack}.{key}" for pack, keys in packs for key in keys
    )
    assert len(HODGE_KEYS) == 31
    assert doc.to_json_obj()["h2_space"]["labels"] == list(H2_LABELS)
    assert len(doc.h2_squares) == 7
    gram = doc.to_json_obj()["h2_space"]["gram"]
    assert len(gram) == 7 and all(len(row) == 7 for row in gram)


def test_config_values(doc):
    assert doc.value("fujiki_constants.C(qbar)") == 132
    assert doc.value("fourfold_pack.qbar_square") == 575
    assert doc.value("fourfold_pack.c2_qbar_ratio") == Fraction(6, 5)
    assert doc.value("geometry_pack.xi_square") == -8
    assert doc.integer("hodge_pack.spin rank") == 240
    length4 = [doc.integer(f"hodge_pack.length4 h({pq})") for pq in ("4,0", "3,1", "2,2")]
    assert length4 == [2, 23, 61]
    assert {
        (p, q): doc.integer(f"hodge_pack.abelian h({p},{q})")
        for p, q in ABELIAN_HODGE_PAIRS
    } == {(0, 0): 1, (1, 0): 2, (2, 0): 1, (1, 1): 4}
    assert doc.integer("hodge_pack.sixfold h(2,2)") == 37
    assert all(entry.source for entry in doc.named_entries.values())


def test_integer_rejects_fractions():
    raw = raw_default()
    raw["hodge_pack"]["spin rank"]["value"] = "1/2"
    doc = parse_config(json.dumps(raw))
    with pytest.raises(ConfigError) as raised:
        doc.integer("hodge_pack.spin rank")
    assert str(raised.value) == "hodge_pack.spin rank: expected an integer, got 1/2"


def test_invalid_rational_names_the_key():
    def mutate(raw):
        raw["fujiki_constants"]["C(qbar)"]["value"] = "1/0"

    with pytest.raises(ConfigError, match=r"fujiki_constants\.C\(qbar\)"):
        parse_mutated(mutate)


def test_non_string_value_rejected():
    def mutate(raw):
        raw["fujiki_constants"]["C(qbar)"]["value"] = 132

    with pytest.raises(ConfigError, match="rational string"):
        parse_mutated(mutate)


@pytest.mark.parametrize(
    "value", ["1e400", "1" * 65, "1/" + "3" * 65, "0.5", "+5", " 5", "5/", True, 3, 2.5, None]
)
def test_one_wire_format_for_values_and_gram_cells(value):
    def scalar(raw):
        raw["geometry_pack"]["xi_square"]["value"] = value

    def cell(raw):
        raw["h2_space"]["gram"][1][2] = value

    with pytest.raises(ConfigError, match=r"geometry_pack\.xi_square"):
        parse_mutated(scalar)
    with pytest.raises(ConfigError, match=r"h2_space\.gram\[1\]\[2\]"):
        parse_mutated(cell)


def test_wire_format_allows_64_digits():
    big = "-" + "9" * 64 + "/" + "7" * 64

    def mutate(raw):
        raw["geometry_pack"]["xi_square"]["value"] = big
        raw["h2_space"]["gram"][0][0] = big

    parse_mutated(mutate)


def test_cli_rejects_an_off_format_value_once(tmp_path, capsys):
    raw = raw_default()
    raw["h2_space"]["gram"][0][0] = 2
    raw["fujiki_constants"]["C(qbar)"]["value"] = "1e5000"
    path = tmp_path / "numbers.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "all", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error") == 1 and "C(qbar)" in err


def test_overlong_json_integer_is_a_config_error():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config('{"fujiki_constants": ' + "1" * 4301 + "}")


# deep enough to exhaust the recursion limit of the json decoder on every
# supported interpreter, as the failure golden's witness is
DEEP = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_json_is_a_config_error():
    with pytest.raises(ConfigError, match="nested too deeply"):
        parse_config(DEEP)


def test_cli_rejects_deeply_nested_json_once(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    assert main(["verify", "all", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "configuration error" in err


def test_document_length_is_bounded_at_load(tmp_path):
    text = default_config_text()
    padded = text + " " * (MAX_DOCUMENT_CHARS - len(text))
    assert parse_config(padded) == default_config()
    with pytest.raises(ConfigError, match=f"longer than {MAX_DOCUMENT_CHARS} characters"):
        parse_config(padded + " ")
    # the loader stops reading one character past the bound: a byte that is
    # not UTF-8, a MiB further on, is never decoded
    path = tmp_path / "long.json"
    path.write_bytes(b" " * (2 * MAX_DOCUMENT_CHARS) + b"\xff")
    with pytest.raises(ConfigError, match="longer than"):
        load_config(str(path))


@pytest.mark.parametrize("command", (["verify", "all"], ["show-config"]), ids=("verify", "show"))
def test_cli_rejects_an_overlong_source_note_once(tmp_path, capsys, command):
    raw = raw_default()
    raw["fujiki_constants"]["C(1)"]["source"] = "x" * MAX_DOCUMENT_CHARS
    path = tmp_path / "long.json"
    path.write_text(json.dumps(raw))
    assert main([*command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "configuration error" in err and "longer than" in err


def test_cli_rejects_a_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["verify", "all", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"cannot read {path}" in err


def test_missing_key_named():
    def mutate(raw):
        del raw["fourfold_pack"]["qbar_square"]

    with pytest.raises(ConfigError, match="qbar_square"):
        parse_mutated(mutate)


def test_unknown_key_named():
    def mutate(raw):
        raw["geometry_pack"]["mystery"] = {"value": "1", "source": "x"}

    with pytest.raises(ConfigError, match="mystery"):
        parse_mutated(mutate)


def test_fujiki_constants_are_exactly_the_fourteen_names():
    def drop(raw):
        del raw["fujiki_constants"]["C(c6)"]

    def add_bare_name(raw):
        raw["fujiki_constants"]["c6"] = {"value": "448", "source": "x"}

    with pytest.raises(ConfigError, match=r"missing required keys \['C\(c6\)'\]"):
        parse_mutated(drop)
    with pytest.raises(ConfigError, match=r"unrecognised keys \['c6'\]"):
        parse_mutated(add_bare_name)


def test_missing_section_named():
    def mutate(raw):
        del raw["h2_space"]

    with pytest.raises(ConfigError, match="h2_space"):
        parse_mutated(mutate)


def test_unknown_section_named():
    def mutate(raw):
        raw["extras"] = {}

    with pytest.raises(ConfigError, match="extras"):
        parse_mutated(mutate)


def test_entry_shape_enforced():
    def mutate(raw):
        raw["geometry_pack"]["xi_square"] = {"value": "-8"}

    with pytest.raises(ConfigError, match="value and source"):
        parse_mutated(mutate)


def test_empty_source_rejected():
    def mutate(raw):
        raw["geometry_pack"]["xi_square"]["source"] = ""

    with pytest.raises(ConfigError, match="source"):
        parse_mutated(mutate)


def test_duplicate_key_rejected():
    text = default_config_text().replace(
        '"C(1)": {', '"C(qbar)": {', 1
    )
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(text)


def test_invalid_json_rejected():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="root"):
        parse_config("[1, 2]")


def test_gram_shape_errors():
    with pytest.raises(ConfigError, match="gram"):
        parse_mutated(lambda raw: raw["h2_space"]["gram"].pop())

    def bad_cell(raw):
        raw["h2_space"]["gram"][0][0] = "x"

    with pytest.raises(ConfigError, match=r"gram\[0\]\[0\]"):
        parse_mutated(bad_cell)

    def short_row(raw):
        raw["h2_space"]["gram"][2] = ["0"]

    with pytest.raises(ConfigError, match="row 2"):
        parse_mutated(short_row)


def test_label_errors():
    def dupe(raw):
        raw["h2_space"]["labels"][1] = raw["h2_space"]["labels"][0]

    with pytest.raises(ConfigError, match="unique"):
        parse_mutated(dupe)

    def empty(raw):
        raw["h2_space"]["labels"] = []

    with pytest.raises(ConfigError, match="labels"):
        parse_mutated(empty)


def test_labels_must_be_the_ambient_names():
    def rename(raw):
        raw["h2_space"]["labels"][0] = "zz"

    with pytest.raises(ConfigError, match=r"missing \['y1'\], unknown \['zz'\]"):
        parse_mutated(rename)

    def reverse(raw):
        h2 = raw["h2_space"]
        h2["labels"].reverse()
        h2["gram"] = [row[::-1] for row in h2["gram"][::-1]]

    raw = raw_default()
    reverse(raw)
    assert parse_config(json.dumps(raw)) == default_config()


# Gram cells that make the H^2 basis non-orthogonal or isotropic, and the
# cell each document's load error must name.
NON_ORTHOGONAL_GRAMS = [
    ({(0, 1): "1", (1, 0): "1"}, "h2_space.gram[0][1]"),
    ({(0, 1): "1"}, "h2_space.gram[0][1]"),
    ({(6, 6): "0"}, "h2_space.gram[6][6]"),
]


def test_h2_gram_must_be_diagonal_with_nonzero_diagonal(tmp_path, capsys):
    for cells, where in NON_ORTHOGONAL_GRAMS:
        raw = raw_default()
        for (i, j), value in cells.items():
            raw["h2_space"]["gram"][i][j] = value
        with pytest.raises(ConfigError) as caught:
            parse_config(json.dumps(raw))
        assert str(caught.value).startswith(where + ":")
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "all", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"configuration error: {caught.value}"]


def test_nonzero_entries_are_the_divisors_of_the_derivations():
    # the low side of each dual pair divides, and the three entries that the
    # restriction factor, the pair-class constant and the c2 route divide by
    lows = {f"fujiki_constants.{low}" for pairs in DUAL_PAIRS.values() for low, _ in pairs}
    others = {
        "fourfold_pack.fujiki_constant",
        "fourfold_pack.c2_qbar_ratio",
        "geometry_pack.xi_square",
    }
    assert NONZERO_ENTRIES == lows | others
    assert len(NONZERO_ENTRIES) == 9


@pytest.mark.parametrize("name", sorted(NONZERO_ENTRIES))
def test_cli_rejects_a_zero_divisor_once(name, tmp_path, capsys):
    pack, key = name.split(".", 1)
    raw = raw_default()
    raw[pack][key]["value"] = "0"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "all", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: {name}: must be nonzero, because a derivation divides by it"
    ]


def test_cli_rejects_a_renamed_label_once(tmp_path, capsys):
    raw = raw_default()
    raw["h2_space"]["labels"][0] = "zz"
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "all", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("configuration error") == 1
    assert "h2_space.labels" in captured.err and "'zz'" in captured.err


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.json"))


def test_to_json_obj_round_trips(doc):
    text = json.dumps(doc.to_json_obj())
    again = parse_config(text)
    assert again.named_entries == doc.named_entries
    assert again.h2_squares == doc.h2_squares
    assert again.to_json_obj() == doc.to_json_obj()


def test_abelian_pairs_stay_in_generating_half():
    assert all(p >= q and p + q <= 2 for p, q in ABELIAN_HODGE_PAIRS)


# ---------------------------------------------------------------------------
# report rendering


def test_render_value():
    assert render_value(Fraction(-3, 7)) == "-3/7"
    assert render_value(True) == "true"
    assert render_value((1, Fraction(1, 2))) == "[1, 1/2]"
    assert render_value(Matrix([[Fraction(1, 2), 3]])) == "[[1/2, 3]]"
    with pytest.raises(TypeError):
        render_value(object())
    with pytest.raises(TypeError):  # a string is not a value either
        render_value("x")
    with pytest.raises(TypeError):  # a record is a tuple, but not a value
        render_value(Deg4(Fraction(1), Fraction(2)))


def test_make_check_compares_raw_values():
    good = make_check("x", "somewhere", Fraction(2, 4), Fraction(1, 2))
    assert good.status == "pass"
    assert good.expected == "1/2"
    bad = make_check("x", "somewhere", 1, 2)
    assert bad.status == "fail"
    with pytest.raises(ValueError):
        make_check("x", "", 1, 1)


def test_error_check_records_the_exception():
    check = error_check("x", "somewhere", ValueError("boom"))
    assert check.status == "fail"
    assert "ValueError" in check.computed and "boom" in check.computed


def test_report_sorts_and_rejects_duplicates():
    a = make_check("b", "r", 1, 1)
    b = make_check("a", "r", 1, 1)
    report = SuiteReport(suite="s", checks=(a, b))
    assert [c.id for c in report.checks] == ["a", "b"]
    assert report.status == "pass" and report.counts == (2, 0)
    with pytest.raises(ValueError, match="duplicate"):
        SuiteReport(suite="s", checks=(a, a))


def test_all_suite_is_every_suite_with_prefixed_ids(engine):
    raw = raw_default()
    raw["fujiki_constants"]["C(qbar)"]["value"] = "1/2"
    broken = Engine(parse_config(json.dumps(raw)))
    for e, error_count in ((engine, 0), (broken, 63)):
        merged = run_suite(e, "all")
        prefixed = [
            c._replace(id=f"{suite}/{c.id}")
            for suite in SUITES
            for c in run_suite(e, suite).checks
        ]
        assert merged.suite == "all"
        assert list(merged.checks) == sorted(prefixed, key=lambda c: c.id)
        assert sum(c.expected == "no error" for c in merged.checks) == error_count


def test_emit_json_shape():
    report = SuiteReport(suite="s", checks=(make_check("x", "r", 1, 1),))
    obj = json.loads(emit_json(report))
    assert obj["suite"] == "s" and obj["status"] == "pass"
    assert obj["checks"][0] == {
        "id": "x",
        "ref": "r",
        "expected": "1",
        "computed": "1",
        "status": "pass",
        "trail": [],
    }


def _stdlib_json(report: SuiteReport) -> str:
    """The report as the standard library writes it, with an indent of 2."""
    obj = {
        "suite": report.suite,
        "status": report.status,
        "checks": [c._asdict() for c in report.checks],
    }
    return json.dumps(obj, indent=2) + "\n"


# texts that json escapes: quotes, backslashes, control characters and
# non-ASCII text (an accent, a symbol, a character outside the BMP, and a
# line separator), and the empty string
AWKWARD_TEXTS = (
    'say "x" and \\"y\\"',
    "back\\slash \\n",
    "tab\tnew\nline\rnul\x00unit\x1fdel\x7f",
    "caf\u00e9 \u2264 \u221e \U0001f600",
    "\u2028 \u2029 \ufeff",
    "",
)


def test_emit_json_writes_what_the_stdlib_writes():
    checks = [
        Check(
            id=f"{k} {text}",
            ref=text or "r",
            expected=text[::-1],
            computed=text,
            status="fail",
            trail=(text, "plain", text + text),
        )
        for k, text in enumerate(AWKWARD_TEXTS)
    ]
    reports = [
        run_suite(Engine(default_config()), "all"),
        SuiteReport(suite="awkward", checks=tuple(checks)),
        SuiteReport(suite='a "suite"\n', checks=(make_check("no trail", "r", 1, 1),)),
        SuiteReport(suite="empty", checks=()),
    ]
    assert reports[2].checks[0].trail == ()
    for report in reports:
        assert emit_json(report) == _stdlib_json(report)


def test_emit_json_writes_what_the_stdlib_writes_for_the_failure_corpus():
    from test_failure_golden import corpus

    loaded = 0
    for name, text in corpus().items():
        try:
            doc = parse_config(text)
        except ConfigError:
            continue
        report = run_suite(Engine(doc), "all")
        assert emit_json(report) == _stdlib_json(report), name
        loaded += 1
    assert loaded == 111


def test_emit_markdown_escapes_pipes():
    check = make_check("x", "a|b", 1, 1)
    text = emit_markdown(SuiteReport(suite="s", checks=(check,)))
    assert "a\\|b" in text
    assert text.startswith("# suite s: pass")
    assert "| x |" in text


def test_emit_markdown_groups_merged_reports():
    checks = (make_check("one/x", "r", 1, 1), make_check("two/y", "r", 1, 1))
    text = emit_markdown(SuiteReport(suite="all", checks=checks))
    assert "## one" in text and "## two" in text


# ---------------------------------------------------------------------------
# command line


def test_cli_list_suites(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == list(SUITE_NAMES)


def test_cli_verify_passes(capsys):
    assert main(["verify", "basis-lemma"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "pass"
    assert len(obj["checks"]) == 6


def test_cli_verify_markdown(capsys):
    assert main(["verify", "basis-lemma", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# suite basis-lemma: pass")


def test_cli_verify_fails_on_mutated_config(tmp_path, capsys):
    raw = raw_default()
    raw["fujiki_constants"]["C(qbar)"]["value"] = "133"
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(raw))
    out_path = tmp_path / "report.json"
    code = main(
        ["verify", "fujiki-table", "--config", str(path), "--out", str(out_path)]
    )
    assert code == 1
    obj = json.loads(out_path.read_text())
    assert obj["status"] == "fail"
    assert any(c["status"] == "fail" for c in obj["checks"])
    assert capsys.readouterr().out == ""


def test_cli_unknown_suite(capsys):
    assert main(["verify", "no-such-suite"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite" in err and "fujiki-table" in err


def test_cli_bad_config_path(tmp_path, capsys):
    assert main(["verify", "all", "--config", str(tmp_path / "nope.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_bad_config_content(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["verify", "all", "--config", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_unwritable_out_path(tmp_path, capsys):
    out_path = tmp_path / "missing" / "r.json"
    assert main(["verify", "all", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"cannot write {out_path}: ")
    assert not out_path.exists()


def test_cli_show_config(capsys):
    assert main(["show-config"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {
        "fujiki_constants",
        "fourfold_pack",
        "geometry_pack",
        "hodge_pack",
        "h2_space",
    }
    assert obj["fujiki_constants"]["C(qbar)"]["value"] == "132"


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["verify", "all", "--format", "yaml"])
    assert info.value.code == 2


def test_python_dash_m_runs_each_command():
    env = {**os.environ, "PYTHONPATH": str(Path(kum3check.__file__).parents[1])}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "kum3check.cli", *args],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )

    verify = run("verify", "basis-lemma")
    assert verify.returncode == 0 and json.loads(verify.stdout)["status"] == "pass"
    listed = run("list-suites")
    assert listed.returncode == 0 and listed.stdout.splitlines() == list(SUITE_NAMES)
    shown = run("show-config")
    assert shown.returncode == 0 and json.loads(shown.stdout) == default_config().to_json_obj()
    usage = run("verify", "all", "--format", "yaml")
    assert usage.returncode == 2 and usage.stdout == "" and "invalid choice" in usage.stderr


# ---------------------------------------------------------------------------
# package names

PUBLIC = {
    "config": (
        "ConfigDocument",
        "ConfigError",
        "default_config",
        "default_config_text",
        "load_config",
        "parse_config",
    ),
    "engine": ("Engine",),
    "report": ("Check", "SuiteReport", "emit_json", "emit_markdown"),
    "suites": ("SUITE_NAMES", "run_suite"),
}


def test_each_public_name_is_its_defining_modules_object():
    assert sorted(kum3check.__all__) == sorted(["__version__", *chain(*PUBLIC.values())])
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"kum3check.{module_name}")
        for name in names:
            namespace = {}
            exec(f"from kum3check import {name}", namespace)
            assert namespace[name] is getattr(module, name)
            assert getattr(namespace[name], "__module__", module.__name__) == module.__name__


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kum3check.no_such_name
    with pytest.raises(ImportError):
        exec("from kum3check import Matrix", {})


def test_default_config_matches_packaged_file(doc):
    assert default_config().to_json_obj() == doc.to_json_obj()
