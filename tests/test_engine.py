import inspect
import json

import pytest

from kum3check import engine as engine_module
from kum3check.config import default_config_text, parse_config
from kum3check.engine import Engine, stage
from kum3check.fujiki import FujikiTableError
from kum3check.suites import run_suite


def _document(pack: str, key: str, value: str):
    raw = json.loads(default_config_text())
    raw[pack][key]["value"] = value
    return parse_config(json.dumps(raw))


def test_failing_stage_runs_once_per_engine(monkeypatch):
    calls = []
    derive = engine_module.derive_z_relations

    def counting(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(engine_module, "derive_z_relations", counting)
    report = run_suite(Engine(_document("fujiki_constants", "C(qbar)", "1/2")), "all")
    assert report.status == "fail"
    assert len(calls) == 1


def test_a_fractional_euler_number_names_its_entry():
    report = run_suite(Engine(_document("fourfold_pack", "c4_degree", "1/2")), "bookkeeping")
    errors = {c.id: c.computed for c in report.checks if c.expected == "no error"}
    message = "ConfigError: fourfold_pack.c4_degree: expected an integer, got 1/2"
    assert errors == dict.fromkeys(
        ("group element euler numbers", "spin traces", "spin invariant dimension"), message
    )


@pytest.mark.parametrize("xi_square", ["-4", "-3", "1/2", "-7"])
def test_a_restriction_factor_other_than_two_runs_every_derivation(xi_square):
    # 16/|xi_square| is the factor; the expansions must not depend on it
    report = run_suite(Engine(_document("geometry_pack", "xi_square", xi_square)), "all")
    assert report.status == "fail"  # verify all exits 1
    assert [c.id for c in report.checks if c.expected == "no error"] == []


def test_failing_stage_reraises_the_same_exception():
    engine = Engine(_document("fujiki_constants", "C(qbar)", "1/2"))
    with pytest.raises(FujikiTableError) as first:
        engine.relations
    with pytest.raises(FujikiTableError) as again:
        engine.relations
    with pytest.raises(FujikiTableError) as downstream:
        engine.aux
    assert again.value is first.value
    assert downstream.value is first.value


def test_stage_value_is_computed_once(monkeypatch, doc):
    calls = []
    build = engine_module.build_w_model

    def counting(factor):
        calls.append(factor)
        return build(factor)

    monkeypatch.setattr(engine_module, "build_w_model", counting)
    engine = Engine(doc)
    assert engine.w_model is engine.w_model
    engine.gram19
    assert len(calls) == 1


def test_stages_are_non_function_descriptors_on_the_class():
    # the benchmark tracer finds stages this way and times them by access
    names = [
        name
        for name, value in vars(Engine).items()
        if not name.startswith("_")
        and not inspect.isfunction(value)
        and hasattr(value, "__get__")
    ]
    assert "d_gram" in names and "restriction_factor" in names
    assert all(isinstance(vars(Engine)[name], stage) for name in names)
    assert len(names) == 37
