from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kum3check import engine as engine_module
from kum3check.config import FUJIKI_KEYS, default_config
from kum3check.engine import Engine
from kum3check.fujiki import (
    DUAL_PAIRS,
    Deg4,
    FujikiTableError,
    auxiliary_values,
    c_of,
    deg8,
    derive_z_relations,
    evaluate_fujiki,
    express_w_v,
    multiply,
    qbar_factor,
)
from kum3check.suites import run_suite

EXPECTED = {
    "C(1)": 60,
    "C(qbar)": 132,
    "C(qbar^2)": 396,
    "C(qbar^3)": 2772,
    "C(c2)": 288,
    "C(qbar*c2)": 864,
    "C(qbar^2*c2)": 6048,
    "C(c2^2)": 1920,
    "C(qbar*c2^2)": 13440,
    "C(c4)": 480,
    "C(qbar*c4)": 3360,
    "C(c2^3)": 30208,
    "C(c2*c4)": 6784,
    "C(c6)": 448,
}


@pytest.fixture(scope="module")
def table():
    return {key: Fraction(value) for key, value in EXPECTED.items()}


@pytest.fixture(scope="module")
def rel(table):
    return derive_z_relations(table)


def test_qbar_factors(table):
    assert qbar_factor(table, 4) == 3
    assert qbar_factor(table, 8) == 7


def test_qbar_factor_detects_inconsistency(table):
    broken = dict(table)
    broken["C(qbar*c4)"] = Fraction(3361)
    with pytest.raises(FujikiTableError):
        qbar_factor(broken, 8)


def test_qbar_factor_names_the_pair_that_breaks_the_ratio(table):
    # degree 4 walks c2 before qbar, so the first ratio is C(qbar*c2)/C(c2)
    broken = dict(table)
    broken["C(qbar)"] = Fraction(133)
    with pytest.raises(FujikiTableError, match=r"C\(qbar\*qbar\) breaks the ratio 3$"):
        qbar_factor(broken, 4)


def test_dual_pairs_name_table_entries():
    pairs = [pair for pairs in DUAL_PAIRS.values() for pair in pairs]
    assert len(pairs) == 6
    assert {name for pair in pairs for name in pair} <= set(FUJIKI_KEYS)


def test_z_relations_values(rel):
    assert rel.ratio == Fraction(24, 11)
    assert rel.c_z == 0
    assert rel.c_qbarz == 0
    assert rel.top_qbar2_z == 0
    assert rel.c_z2 == Fraction(384, 11)
    assert rel.top_qbar_z2 == Fraction(2688, 11)
    assert rel.z3 == Fraction(-22016, 121)
    assert (rel.z2.qbar2, rel.z2.qbarz) == (Fraction(32, 363), Fraction(-172, 231))
    assert (rel.c2_squared.qbar2, rel.c2_squared.qbarz) == (
        Fraction(160, 33),
        Fraction(76, 21),
    )
    assert (rel.c4.qbar2, rel.c4.qbarz) == (Fraction(40, 33), Fraction(-47, 21))


def test_z_relations_reject_a_degree8_factor_break(table):
    broken = dict(table)
    broken["C(c2^2)"] = Fraction(1921)
    message = r"^qbar multiplication factors disagree in degree 8: C\(qbar\*c2\^2\) breaks the ratio 7$"
    with pytest.raises(FujikiTableError, match=message):
        derive_z_relations(broken)


constants = st.integers(-5000, 5000).map(Fraction)
factors = st.fractions(-50, 50, max_denominator=20).filter(bool)


@st.composite
def consistent_tables(draw):
    """Tables whose qbar factors agree in degrees 4 and 8; the other
    constants are drawn freely."""
    t = {key: draw(constants.filter(bool)) for key in ("C(qbar)", "C(c2)", "C(c2^2)", "C(c4)")}
    t.update({key: draw(constants) for key in ("C(1)", "C(c2^3)", "C(c2*c4)", "C(c6)")})
    factor4, factor8 = draw(factors), draw(factors)
    t["C(qbar*c2)"], t["C(qbar^2)"] = factor4 * t["C(c2)"], factor4 * t["C(qbar)"]
    for low, high in DUAL_PAIRS[8]:
        t[high] = factor8 * t[low]
    return t


@settings(max_examples=50)
@given(consistent_tables())
def test_consistent_factors_give_the_z_relations_their_identities(t):
    # C(qbar*z) and integral qbar^2*z vanish, and C(z^2) by the degree-8
    # factor equals its direct expansion C(c2^2) - ratio^2 * C(qbar^2)
    assert set(t) == set(FUJIKI_KEYS)
    try:
        rel = derive_z_relations(t)
    except FujikiTableError as exc:
        assert str(exc) == "integral qbar*z^2 vanishes; z-basis expansions are singular"
        return
    assert rel.c_qbarz == rel.top_qbar2_z == 0
    assert rel.c_z2 == t["C(c2^2)"] - rel.ratio**2 * t["C(qbar^2)"]


def test_multiply_and_integrate(rel):
    # c2 written in the z basis reproduces its own constants
    c2_sq = multiply(rel.c2, rel.c2, rel)
    assert (c2_sq.qbar2, c2_sq.qbarz) == (
        rel.c2_squared.qbar2,
        rel.c2_squared.qbarz,
    )
    assert c_of(c2_sq, rel) == 1920
    assert multiply(rel.c2, c2_sq, rel) == 30208
    assert multiply(rel.c2, rel.c4, rel) == 6784
    assert multiply(Deg4(Fraction(1), Fraction(0)), deg8(1, 0), rel) == 2772
    assert multiply(Deg4(Fraction(0), Fraction(1)), deg8(1, 0), rel) == 0
    assert multiply(Deg4(Fraction(0), Fraction(1)), deg8(0, 1), rel) == Fraction(2688, 11)


def test_evaluate_fujiki(monkeypatch):
    assert evaluate_fujiki(60, 0, 2) == 480
    assert evaluate_fujiki(132, 4, 3) == 1188
    assert evaluate_fujiki(448, 12, 7) == 448
    # integral omega * gamma^(6 - deg/2) = C(omega) * q(gamma)^((12 - deg)/4)
    for degree, power in ((0, 3), (4, 2), (8, 1), (12, 0)):
        for c, q in ((60, 2), (132, -3), (Fraction(-7, 3), Fraction(5, 2))):
            assert evaluate_fujiki(c, degree, q) == Fraction(c) * Fraction(q) ** power
    # the engine evaluates only in that domain: multiples of 4 up to 12
    degrees = []

    def recorded(c_omega, deg_omega, q_gamma):
        degrees.append(deg_omega)
        return evaluate_fujiki(c_omega, deg_omega, q_gamma)

    monkeypatch.setattr(engine_module, "evaluate_fujiki", recorded)
    assert run_suite(Engine(default_config()), "fujiki-table").status == "pass"
    assert degrees and set(degrees) <= {0, 4, 8, 12}


@pytest.fixture(scope="module")
def wv(rel):
    c_v_pair = Fraction(4)
    classes = express_w_v(
        rel,
        w_sq_w_other=Fraction(12),
        w_triple_distinct=Fraction(4),
        c2_v_pair=Fraction(48),
        c_w_component=Fraction(12),
        c_v_pair=c_v_pair,
    )
    return c_v_pair, classes


def test_sum_class_expansion(wv):
    _, classes = wv
    assert (classes.w.qbar, classes.w.z) == (Fraction(16, 11), -3)
    assert (classes.v.qbar2, classes.v.qbarz) == (Fraction(40, 33), Fraction(-45, 7))
    assert classes.c_w == 192
    assert classes.c_v == 480
    assert classes.c2_dot_v == 5760
    assert classes.w_dot_v == 9600
    assert classes.w_cube == 23040
    assert classes.w_component_cube == 60
    # integral identities hold on the expansions themselves
    assert (classes.integral_w.qbar, classes.integral_w.z) == (
        classes.w.qbar,
        classes.w.z,
    )
    assert (classes.integral_3v.qbar2, classes.integral_3v.qbarz) == (
        3 * classes.v.qbar2,
        3 * classes.v.qbarz,
    )


def test_auxiliary_values(wv, rel):
    c_v_pair, classes = wv
    aux = auxiliary_values(rel, classes, c_v_pair)
    assert aux.c_w_sq == 1152
    assert aux.c_w_component_sq == 12
    assert aux.c4_w_component == 408
    assert aux.qbar_w_sq == 84
    assert aux.qbar_w_pair == 28
