"""End-to-end acceptance checks over the default configuration.

One test per criterion; each prints a single pass/fail line that stays
visible through output capture.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from kum3check.config import FUJIKI_KEYS, default_config_text, parse_config
from kum3check.engine import Engine
from kum3check.fujiki import Deg4, deg8, qbar_factor
from kum3check.kummer import ALPHAS, ORIGIN
from kum3check.linalg import Matrix, kernel_basis, rank
from kum3check.quadspace import sym2_pair, sym2_product, sym2_sum
from kum3check.suites import run_suite
from kum3check.wgeometry import MIXED, expected_gram19

from label_group import (
    DClass,
    GroupElement,
    act,
    enumerated_sum,
    four_torsion,
    halving_fiber,
    orbit_sum,
)
from matrix_entries import entries


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def run(number: int):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capfd.disabled():
                verdict = "PASS" if ok else "FAIL"
                print(f"acceptance criterion {number}: {verdict}")

    return run


FACTOR_BY_DEGREE = {0: Fraction(11, 5), 4: Fraction(3), 8: Fraction(7)}

DUAL_PAIRS = (
    ("C(1)", "C(qbar)", 0),
    ("C(qbar)", "C(qbar^2)", 4),
    ("C(qbar^2)", "C(qbar^3)", 8),
    ("C(c2)", "C(qbar*c2)", 4),
    ("C(qbar*c2)", "C(qbar^2*c2)", 8),
    ("C(c2^2)", "C(qbar*c2^2)", 8),
    ("C(c4)", "C(qbar*c4)", 8),
)


def test_constant_table_factor_consistency(criterion, engine):
    with criterion(1):
        table = engine.table
        for degree in (4, 8):
            assert qbar_factor(table, degree) == FACTOR_BY_DEGREE[degree]
        for low, high, degree in DUAL_PAIRS:
            assert table[high] == FACTOR_BY_DEGREE[degree] * table[low]


def test_auxiliary_class_relations(criterion, engine):
    with criterion(2):
        rel = engine.relations
        assert rel.c_z == 0
        assert rel.c_z2 == Fraction(384, 11)
        assert rel.top_qbar_z2 == Fraction(2688, 11)
        assert rel.z3 == Fraction(-22016, 121)
        assert rel.z2 == deg8(Fraction(32, 363), Fraction(-172, 231))
        assert rel.c2_squared == deg8(Fraction(160, 33), Fraction(76, 21))
        assert rel.c4 == deg8(Fraction(40, 33), Fraction(-47, 21))
        assert rel.top_qbar2_z == 0


def test_sum_class_identities(criterion, engine):
    with criterion(3):
        wv = engine.wv
        assert wv.w == Deg4(Fraction(16, 11), Fraction(-3))
        assert wv.v == deg8(Fraction(40, 33), Fraction(-45, 7))
        assert wv.w_dot_v == 9600
        assert wv.w_cube == 23040
        assert wv.w_component_cube == 60
        assert wv.integral_w == wv.w
        assert wv.integral_3v == deg8(3 * wv.v.qbar2, 3 * wv.v.qbarz)


def test_rank_and_kernel_certificates(criterion, engine):
    with criterion(4):
        assert engine.independence.rank == 17
        assert engine.injectivity.matrix.rows == 17
        assert engine.injectivity.rank == 17
        dg = engine.d_gram
        assert engine.d_pairings.diagonal == -52
        assert engine.d_pairings.same_block == 12
        assert dg.cross_block == 8
        assert dg.rank == 241
        assert dg.nullity == 15
        assert dg.kernel_is_block_structured
        assert dg.difference_relations_in_kernel
        assert dg.difference_relations_rank == 15
        assert dg.block_square == 2048


def test_nineteen_class_matrix(criterion, engine):
    with criterion(5):
        gram = engine.gram19
        reference = expected_gram19(
            engine.doc.value("fourfold_pack.qbar_square"),
            engine.doc.value("fourfold_pack.qbar_fujiki"),
        )
        assert (gram.rows, gram.cols) == (19, 19)
        cells, want = entries(gram), entries(reference)
        for i in range(19):
            for j in range(19):
                assert cells[i][j] == want[i][j], (i, j)
                assert cells[i][j] == cells[j][i], (i, j)


def test_restriction_solutions(criterion, engine):
    with criterion(6):
        q = engine.qbar_restriction.coeffs
        assert q[0] == 2
        assert q[1] == Fraction(1, 2)
        assert q[2] == Fraction(31, 32)
        assert set(q[3:18]) == {Fraction(-1, 32)}
        assert q[18] == Fraction(-1, 4)
        for other in engine.w_other_all:
            c = other.coeffs
            assert (c[0], c[1], c[2], c[18]) == (Fraction(2, 5), 0, Fraction(1, 4), 0)
            pos = MIXED[other.theta]
            assert c[pos] == Fraction(-1, 4)
            assert all(c[k] == 0 for k in range(3, 18) if k != pos)
            assert other.rhs[0] == 30
        ws = engine.w_self
        assert (ws.eta, ws.beta, ws.gamma) == (
            Fraction(4, 5),
            Fraction(9, 640),
            Fraction(1, 640),
        )
        final = ws.coeffs
        assert (final[0], final[1], final[2]) == (Fraction(8, 5), 1, 1)
        assert all(final[k] == 0 for k in range(3, 18))
        assert final[18] == Fraction(-1, 2)
        # re-pairing the solved class reproduces every input number
        assert ws.qbar_pairing == 70
        assert ws.pair_with_other == 12
        assert ws.ambient_dual_pairing == 84
        v = engine.v_data
        assert v.delta_sq == -4
        assert v.s_pair_same_coset == -2
        assert v.s_pair_other == 0


def test_dimension_bookkeeping(criterion, engine):
    with criterion(7):
        table = engine.rank_table
        assert table.degree_totals == (1, 7, 51, 458, 51, 7, 1)
        assert table.component_totals + (table.odd,) == (156, 36, 144, 240, 128)
        w6 = engine.weight6
        assert w6.known_dim == 479
        assert w6.invariant_dim == 113
        assert w6.missing_multiplicity == 0
        tr = engine.traces
        assert (tr.chi_identity, tr.chi_reflection, tr.chi_translation) == (
            448,
            464,
            192,
        )
        assert (tr.trace_identity, tr.trace_reflection, tr.trace_translation) == (
            240,
            0,
            -16,
        )
        assert tr.invariant_dim == 0
        assert engine.blowup.h31_blowup == 22
        assert engine.blowup.matches


def _oracle_rank(entries):
    rows = [[Fraction(x) for x in row] for row in entries]
    cols = len(rows[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def _rank_nullity_against_oracle():
    rng = random.Random(20260815)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        entries = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            for _ in range(n)
        ]
        mat = Matrix(entries)
        r = rank(mat)
        assert r == _oracle_rank(entries)
        kernel = kernel_basis(mat)
        assert r + len(kernel) == m
        for vec in kernel:
            assert mat.mat_vec(vec) == tuple([Fraction(0)] * n)


def _sym2_pairing_is_bilinear_and_symmetric(space):
    rng = random.Random(11)

    def rand_vec():
        return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(7))

    for _ in range(25):
        a, b, c, d = (rand_vec() for _ in range(4))
        x = sym2_product(space, a, b)
        y = sym2_product(space, c, d)
        z = sym2_product(space, a, d)
        assert sym2_pair(x, y) == sym2_pair(y, x)
        scale = Fraction(rng.randint(-3, 3), 2)
        assert sym2_pair(sym2_sum(space, [(scale, x)]), y) == scale * sym2_pair(x, y)
        assert sym2_pair(sym2_sum(space, [(1, x), (1, z)]), y) == sym2_pair(x, y) + sym2_pair(z, y)


def _pairings_are_equivariant_on_generators():
    generators = (
        GroupElement(four_torsion()[1], 1),
        GroupElement(ALPHAS[1], 1),
        GroupElement(ORIGIN, -1),
    )
    labels = [
        DClass(t, halving_fiber(t)[k]) for t in ALPHAS[:4] for k in (0, 7)
    ]

    def pairing(x, y):
        # the certified pairings depend only on these two coincidences
        return (x.tau == y.tau, x.alpha == y.alpha)

    for g in generators:
        for x in labels:
            for y in labels:
                assert pairing(act(g, x), act(g, y)) == pairing(x, y)


def _orbit_counting_matches_enumeration():
    rng = random.Random(5)
    values = {}

    def value(pattern):
        return values.setdefault(pattern, Fraction(rng.randint(-9, 9), 3))

    for n in (2, 5, 16):
        assert orbit_sum(n, 2, value) == enumerated_sum(n, 2, value)


def test_property_suites(criterion, engine):
    with criterion(8):
        _rank_nullity_against_oracle()
        _sym2_pairing_is_bilinear_and_symmetric(engine.ambient)
        _pairings_are_equivariant_on_generators()
        _orbit_counting_matches_enumeration()


def test_single_entry_mutation_sensitivity(criterion):
    with criterion(9):
        for key in FUJIKI_KEYS:
            raw = json.loads(default_config_text())
            entry = raw["fujiki_constants"][key]
            entry["value"] = str(Fraction(entry["value"]) + 1)
            engine = Engine(parse_config(json.dumps(raw)))
            report = run_suite(engine, "fujiki-table")
            assert report.status == "fail", key
