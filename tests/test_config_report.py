import json
from fractions import Fraction

import pytest

from kum3check.cli import main
from kum3check.config import (
    ABELIAN_HODGE_PAIRS,
    FOURFOLD_KEYS,
    FUJIKI_KEYS,
    GEOMETRY_KEYS,
    HODGE_KEYS,
    ConfigError,
    default_config,
    default_config_text,
    load_config,
    parse_config,
)
from kum3check.report import (
    SuiteReport,
    emit_json,
    emit_markdown,
    error_check,
    make_check,
    merge_reports,
    render_value,
)
from kum3check.suites import SUITE_NAMES


def raw_default() -> dict:
    return json.loads(default_config_text())


def parse_mutated(mutate) -> None:
    raw = raw_default()
    mutate(raw)
    parse_config(json.dumps(raw))


# ---------------------------------------------------------------------------
# configuration document


def test_default_config_parses(doc):
    assert tuple(doc.fujiki_constants) == FUJIKI_KEYS
    assert tuple(doc.fourfold_pack) == FOURFOLD_KEYS
    assert tuple(doc.geometry_pack) == GEOMETRY_KEYS
    assert tuple(doc.hodge_pack) == HODGE_KEYS
    assert len(HODGE_KEYS) == 31
    assert doc.h2_labels == ("y1", "y2", "y3", "z1", "z2", "z3", "xi")
    assert doc.h2_gram.rows == 7 and doc.h2_gram.cols == 7


def test_config_values(doc):
    assert doc.fujiki_values()["C(qbar)"] == 132
    assert doc.fourfold("qbar_square") == 575
    assert doc.fourfold("c2_qbar_ratio") == Fraction(6, 5)
    assert doc.geometry("xi_square") == -8
    assert doc.hodge_int("spin rank") == 240
    assert doc.length4_weight4_row() == (2, 23, 61, 23, 2)
    assert doc.abelian_half() == {(0, 0): 1, (1, 0): 2, (2, 0): 1, (1, 1): 4}
    assert doc.sixfold_half()[(2, 2)] == 37
    assert all(entry.source for entry in doc.fujiki_constants.values())


def test_config_accessor_errors(doc):
    with pytest.raises(ConfigError, match="missing required key"):
        doc.geometry("no such key")
    with pytest.raises(ConfigError, match="missing required key"):
        doc.fourfold("xi_square")


def test_hodge_int_rejects_fractions():
    raw = raw_default()
    raw["hodge_pack"]["spin rank"]["value"] = "1/2"
    doc = parse_config(json.dumps(raw))
    with pytest.raises(ConfigError, match="spin rank"):
        doc.hodge_int("spin rank")


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


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.json"))


def test_to_json_obj_round_trips(doc):
    text = json.dumps(doc.to_json_obj())
    again = parse_config(text)
    assert again.fujiki_values() == doc.fujiki_values()
    assert again.h2_gram == doc.h2_gram
    assert again.to_json_obj() == doc.to_json_obj()


def test_abelian_pairs_stay_in_generating_half():
    assert all(p >= q and p + q <= 2 for p, q in ABELIAN_HODGE_PAIRS)


# ---------------------------------------------------------------------------
# report rendering


def test_render_value():
    assert render_value(Fraction(-3, 7)) == "-3/7"
    assert render_value(True) == "true"
    assert render_value((1, Fraction(1, 2))) == "[1, 1/2]"
    assert render_value({"b": 2, "a": 1}) == "{a: 1, b: 2}"
    with pytest.raises(TypeError):
        render_value(object())


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


def test_merge_reports_prefixes_ids():
    r1 = SuiteReport(suite="one", checks=(make_check("x", "r", 1, 1),))
    r2 = SuiteReport(suite="two", checks=(make_check("x", "r", 1, 2),))
    merged = merge_reports("all", [r2, r1])
    assert [c.id for c in merged.checks] == ["one/x", "two/x"]
    assert merged.status == "fail" and merged.counts == (1, 1)


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


def test_emit_markdown_escapes_pipes():
    check = make_check("x", "a|b", 1, 1)
    text = emit_markdown(SuiteReport(suite="s", checks=(check,)))
    assert "a\\|b" in text
    assert text.startswith("# suite s: pass")
    assert "| x |" in text


def test_emit_markdown_groups_merged_reports():
    r1 = SuiteReport(suite="one", checks=(make_check("x", "r", 1, 1),))
    r2 = SuiteReport(suite="two", checks=(make_check("y", "r", 1, 1),))
    text = emit_markdown(merge_reports("all", [r1, r2]))
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


def test_default_config_matches_packaged_file(doc):
    assert default_config().to_json_obj() == doc.to_json_obj()
