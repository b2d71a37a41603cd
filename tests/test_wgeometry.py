from collections.abc import Mapping
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kum3check import engine as engine_module
from kum3check import kummer, linalg, wgeometry
from kum3check.config import H2_LABELS, default_config
from kum3check.engine import Engine
from kum3check.kummer import ALPHAS, COSETS, ORIGIN, SHIFTED, THETAS
from kum3check.quadspace import (
    QuadSpace,
    Sym2Vector,
    qbar_dual,
    sym2_pair,
    sym2_product,
    sym2_sum,
)
from kum3check.suites import run_suite
from kum3check.wgeometry import (
    CLASS_COUNT,
    DELTA_S,
    DELTA_SQ,
    MIXED,
    QBAR,
    S_SQ,
    XI_ON_W,
    build_gram19,
    build_w_model,
    combination,
    d_self_pairings,
    derive_restriction_factor,
    expand_in_basis,
    expected_gram19,
    nodal_space,
    restrict_qbar,
    restrict_w_other,
    restrict_w_self,
    restriction_images,
    restriction_is_similitude,
    s_label,
    s_prime_vectors,
    v_restriction_data,
)

from label_group import add
from matrix_entries import entries

FUJIKI_CONSTANT = Fraction(3)
QBAR_FUJIKI = Fraction(25)
QBAR_SQUARE = Fraction(575)
C2_QBAR_RATIO = Fraction(6, 5)
C4_DEGREE = Fraction(324)
XI_SQUARE = Fraction(-8)


@pytest.fixture(scope="module")
def factor():
    return derive_restriction_factor(FUJIKI_CONSTANT, XI_SQUARE)


@pytest.fixture(scope="module")
def model(factor):
    return build_w_model(factor.factor)


@pytest.fixture(scope="module")
def gram(model):
    return build_gram19(model)


@pytest.fixture(scope="module")
def ambient(engine):
    return engine.ambient


@pytest.fixture(scope="module")
def qbar_rest(model, ambient):
    return restrict_qbar(model, ambient)


@pytest.fixture(scope="module")
def others(model, gram):
    return tuple(
        restrict_w_other(model, gram, C2_QBAR_RATIO, theta, Fraction(24), Fraction(12))
        for theta in THETAS
    )


@pytest.fixture(scope="module")
def sprime(model):
    return s_prime_vectors(model)


@pytest.fixture(scope="module")
def w_self(model, gram, qbar_rest, sprime, others):
    return restrict_w_self(
        gram,
        C4_DEGREE,
        C2_QBAR_RATIO,
        qbar_rest,
        sprime,
        others,
        c4_w_component=Fraction(408),
        w_sq_w_other=Fraction(12),
        qbar_w_sq=Fraction(84),
    )


def test_labels():
    assert len(ALPHAS) == 16 and len(THETAS) == 15
    assert ALPHAS[0] == ORIGIN and ORIGIN not in THETAS
    assert s_label(ORIGIN) == "s0000"


def test_nodal_space_and_scaling(factor):
    nodal = nodal_space()
    xi_w = nodal.vector(XI_ON_W)
    assert nodal.pair(xi_w, xi_w) == -16
    assert factor.c_w_component == 12
    assert factor.factor == 2
    assert factor.xi_restriction_square == -16


nonzero_fractions = st.fractions(-1000, 1000, max_denominator=50).filter(bool)


@given(nonzero_fractions, nonzero_fractions)
def test_restriction_factor_is_the_positive_root(fujiki_constant, xi_square):
    # C(w)/C(1) = (q(xi|_W)/xi_square)^2 is a rational square for every
    # document, so the factor is read off without a square root
    result = derive_restriction_factor(fujiki_constant, xi_square)
    assert result.factor > 0
    assert result.factor**2 == result.c_w_component / fujiki_constant


def test_w_model_shape(model):
    space = model.space
    assert space.dim == 23
    assert len(model.basis) == CLASS_COUNT == 19
    assert space.index(s_label(ALPHAS[0])) == 6
    assert MIXED[THETAS[0]] == 3
    assert sorted(MIXED) == sorted(THETAS)
    assert sorted((QBAR, DELTA_SQ, S_SQ, DELTA_S, *MIXED.values())) == list(range(19))
    d = space.index("delta")
    s_idx = [space.index(s_label(alpha)) for alpha in ALPHAS]
    assert model.basis[QBAR] == qbar_dual(space)
    assert dict(model.basis[DELTA_SQ].coeffs) == {(d, d): 1}
    assert dict(model.basis[S_SQ].coeffs) == {(i, i): 1 for i in s_idx}
    pos = dict(zip(ALPHAS, s_idx))
    for theta, k in MIXED.items():
        cosets = {tuple(sorted((pos[alpha], pos[add(alpha, theta)]))) for alpha in ALPHAS}
        assert len(cosets) == 8
        assert dict(model.basis[k].coeffs) == dict.fromkeys(cosets, 2)
    assert dict(model.basis[DELTA_S].coeffs) == {(min(d, i), max(d, i)): 1 for i in s_idx}


def test_gram19_matches_reference(model, gram):
    assert gram == expected_gram19(QBAR_SQUARE, QBAR_FUJIKI)
    cells = entries(gram)
    head = [[cells[i][j] for j in range(3)] for i in range(3)]
    assert head == [[575, -50, -800], [-50, 12, 64], [-800, 64, 1152]]
    for k in range(3, 18):
        assert cells[k][k] == 128
    assert cells[18][18] == 64


def test_expand_in_basis_round_trips(model):
    coeffs = tuple(Fraction(k - 9, 3) for k in range(19))
    x = combination(model, coeffs)
    assert expand_in_basis(model, x) == coeffs


small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
# restriction factors 16/|xi_square| of xi_square = -8, -4, -32, -3, -7 and -16
FACTORS = tuple(map(Fraction, (2, 4, Fraction(1, 2), Fraction(16, 3), Fraction(16, 7), 1)))
_model_for = cache(build_w_model)


@given(st.sampled_from(FACTORS), st.lists(small, min_size=19, max_size=19))
def test_expand_in_basis_is_linear(factor, coeffs):
    model = _model_for(factor)
    x = combination(model, coeffs)
    assert expand_in_basis(model, x) == tuple(Fraction(c) for c in coeffs)


@pytest.mark.parametrize("factor", FACTORS)
def test_expansion_premise_holds_for_every_factor(factor):
    # expand_in_basis reads qbar_W off the lambda squares and every other
    # class at its own monomials; both need this shape of the basis
    model = _model_for(factor)
    space = model.space
    lambda_squares = {
        (space.index(l), space.index(l)) for l in wgeometry.PLUS_LABELS + wgeometry.MINUS_LABELS
    }
    assert lambda_squares <= set(model.basis[QBAR].cells)
    others = [set(v.cells) for k, v in enumerate(model.basis) if k != QBAR]
    assert len(others) == 18 and all(others)
    assert all(not keys & lambda_squares for keys in others)
    assert sum(map(len, others)) == len(set().union(*others))
    # the least monomial of each class, which expand_in_basis reads
    assert model.leads == tuple(min(v.cells.items()) for v in model.basis)


def test_expand_in_basis_rejects_outside_span(model):
    x = combination(model, tuple([Fraction(1)] + [Fraction(0)] * 18))
    stray = Sym2Vector.from_map(model.space, {(3, 4): Fraction(1)})
    with pytest.raises(ValueError):
        expand_in_basis(model, sym2_sum(model.space, [(1, x), (1, stray)]))


def test_expand_in_basis_rejects_non_uniform_squares(model):
    lopsided = Sym2Vector.from_map(model.space, {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        expand_in_basis(model, lopsided)


def test_restriction_is_similitude(model, ambient):
    assert restriction_is_similitude(model, ambient)
    images = dict(zip(H2_LABELS, restriction_images(model)))
    for name in ("y1", "z2", "xi"):
        u = images[name]
        v = ambient.basis_vector(name)
        assert model.space.pair(u, u) == 2 * ambient.pair(v, v)


def test_qbar_restriction_coefficients(model, gram, qbar_rest):
    coeffs = qbar_rest.coeffs
    assert coeffs[0] == 2
    assert coeffs[1] == Fraction(1, 2)
    assert coeffs[2] == Fraction(31, 32)
    assert all(coeffs[3 + k] == Fraction(-1, 32) for k in range(15))
    assert coeffs[18] == Fraction(-1, 4)
    assert gram.pairings([coeffs], [coeffs]) == ((252,),)


def test_v_restriction_data():
    data = v_restriction_data(THETAS[0], XI_SQUARE, Fraction(24), Fraction(12))
    assert data.delta_sq == -4
    assert data.delta_s == 0
    assert data.s_pair_same_coset == -2
    assert data.s_pair_other == 0
    assert data.xi_sq == -32
    assert data.c_v_pair == 4
    assert data.c2_restriction_degree == 48
    assert data.compositions_agree


def test_v_restriction_is_shift_independent():
    values = set()
    for theta in THETAS:
        data = v_restriction_data(theta, XI_SQUARE, Fraction(24), Fraction(12))
        values.add(
            (
                data.delta_sq,
                data.delta_s,
                data.s_pair_same_coset,
                data.s_pair_other,
                data.xi_sq,
                data.c_v_pair,
                data.compositions_agree,
            )
        )
    assert len(values) == 1


def test_v_model_never_sees_the_zero_shift():
    # the two fourfolds of a surface have distinct labels, so no slot map
    # exists for theta = 0; every theta that a verify all passes is one of
    # THETAS (test_surface_constants_are_derived_once_per_verify_all)
    assert ORIGIN not in THETAS and ORIGIN not in COSETS
    assert len(THETAS) == len(ALPHAS) - 1


def _assert_wrong_slots_fail_the_report(monkeypatch, wrong_slots):
    """``wrong_slots`` applied to the slot map of every theta, or of every
    theta but the one of the surface data, fails the restrictions suite on
    the default document: the second-fourfold expansions solve, their
    pattern check reads false, and no check of the suite is an error."""
    true_slots = wgeometry.surface_slots
    for thetas in (THETAS, THETAS[1:]):

        def mutated(theta):
            slots = true_slots(theta)
            return wrong_slots(theta, slots) if theta in thetas else slots

        with monkeypatch.context() as patch:
            patch.setattr(wgeometry, "surface_slots", mutated)
            report = run_suite(Engine(default_config()), "restrictions")
        uniform = next(c for c in report.checks if c.id == "second fourfold pattern uniform")
        assert (uniform.status, uniform.computed) == ("fail", "false"), thetas
        assert [c.id for c in report.checks if c.expected == "no error"] == [], thetas


def _delta_to_the_slot_of_s0(theta, slots):
    slots["delta"] = slots[s_label(ORIGIN)]
    return slots


def test_w_other_rejects_disagreeing_xi_restrictions(monkeypatch):
    for theta in THETAS:
        slots = _delta_to_the_slot_of_s0(theta, wgeometry.surface_slots(theta))
        assert not wgeometry._compositions_agree(slots)
    _assert_wrong_slots_fail_the_report(monkeypatch, _delta_to_the_slot_of_s0)


def _delta_to_slot_7(theta, slots):
    slots["delta"] = 7
    return slots


def _s_to_another_coset(theta, slots):
    # a class outside the coset of s_0, so the same-coset pairing still holds
    label = next(s_label(a) for a in ALPHAS[1:] if a != add(ALPHAS[0], theta))
    slots[label] = (slots[label] + 1) % wgeometry.SIDE
    return slots


@pytest.mark.parametrize("wrong_slots", [_delta_to_slot_7, _s_to_another_coset])
def test_compositions_disagree_under_a_wrong_slot_map(monkeypatch, wrong_slots):
    true_slots = wgeometry.surface_slots
    for theta in THETAS:
        assert wgeometry._compositions_agree(true_slots(theta))
        assert not wgeometry._compositions_agree(wrong_slots(theta, true_slots(theta)))
    _assert_wrong_slots_fail_the_report(monkeypatch, wrong_slots)


def test_w_other_restrictions(model, others):
    for other in others:
        coeffs = other.coeffs
        assert other.rhs[0] == 30
        assert coeffs[0] == Fraction(2, 5)
        assert coeffs[1] == 0
        assert coeffs[2] == Fraction(1, 4)
        assert coeffs[18] == 0
        pos = MIXED[other.theta]
        for k in range(3, 18):
            expected = Fraction(-1, 4) if k == pos else Fraction(0)
            assert coeffs[k] == expected


def test_s_prime_vectors(model):
    sp = s_prime_vectors(model)
    assert sp.identity_holds
    expected = [Fraction(0)] * 19
    expected[1] = Fraction(16)
    expected[2] = Fraction(16)
    expected[18] = Fraction(-8)
    assert sp.sum_squares == tuple(expected)
    assert len(sp.per_theta) == 15
    assert sp.sum_mixed_all[1] == 240
    assert sp.sum_mixed_all[18] == -120
    assert all(sp.sum_mixed_all[k] == 16 for k in range(3, 18))


def test_coset_pair_sums_are_the_sixteen_term_sums(model, sprime):
    # sum_a s'_a * s'_(a+theta) over all sixteen a, each term a unit
    # coefficient on the product table, against the coset sums with 2
    def unit_sum(theta):
        terms = ((1, sprime.products[min(i, j), max(i, j)]) for i, j in enumerate(SHIFTED[theta]))
        return expand_in_basis(model, sym2_sum(model.space, terms))

    assert sprime.sum_squares == unit_sum(ORIGIN)
    assert sprime.per_theta == tuple(map(unit_sum, THETAS))


def test_s_prime_vectors_run_once_per_verify_all(monkeypatch):
    calls = []

    def counted(model):
        calls.append(model)
        return s_prime_vectors(model)

    monkeypatch.setattr(engine_module, "s_prime_vectors", counted)
    monkeypatch.setattr(wgeometry, "s_prime_vectors", counted)
    assert run_suite(Engine(default_config()), "all").status == "pass"
    assert len(calls) == 1


def test_w_self_restriction(w_self):
    assert (w_self.eta, w_self.beta, w_self.gamma) == (
        Fraction(4, 5),
        Fraction(9, 640),
        Fraction(1, 640),
    )
    sys_rows = [list(row) for row in entries(w_self.system)]
    assert sys_rows == [
        [350, -13600, -12000],
        [420, -8640, -22080],
        [252, -7616, -6720],
    ]
    assert w_self.rhs == (70, 180, 84)
    coeffs = w_self.coeffs
    assert coeffs[0] == Fraction(8, 5)
    assert coeffs[1] == 1
    assert coeffs[2] == 1
    assert all(coeffs[k] == 0 for k in range(3, 18))
    assert coeffs[18] == Fraction(-1, 2)
    assert w_self.shift_uniformity_ok


def test_w_self_round_trips(w_self):
    assert w_self.self_square == 60
    assert w_self.pair_with_other == 12
    assert w_self.other_self_square == 12
    assert w_self.other_cross == 4
    assert w_self.qbar_pairing == 70
    assert w_self.ambient_dual_pairing == 84


def test_w_self_needs_all_other_restrictions(engine):
    # restrict_w_self reads the other restrictions by position
    assert tuple(o.theta for o in engine.w_other_all) == THETAS


def test_w_self_reports_non_uniform_other_restrictions(model, gram, qbar_rest, sprime, others):
    # the shift pairings read only the first two restrictions, so only the
    # uniformity of the pairings among all of them sees this one doubled
    perturbed = list(others)
    perturbed[5] = others[5]._replace(coeffs=tuple(2 * x for x in others[5].coeffs))
    w_self = restrict_w_self(
        gram,
        C4_DEGREE,
        C2_QBAR_RATIO,
        qbar_rest,
        sprime,
        perturbed,
        c4_w_component=Fraction(408),
        w_sq_w_other=Fraction(12),
        qbar_w_sq=Fraction(84),
    )
    assert not w_self.shift_uniformity_ok


def test_sprime_products_are_the_unordered_products(model, sprime):
    sp = model.space
    vecs = [sp.vector({s_label(a): Fraction(4), "delta": Fraction(-1)}) for a in ALPHAS]
    assert list(sprime.products) == [(i, j) for i in range(16) for j in range(i, 16)]
    for (i, j), product in sprime.products.items():
        assert product == sym2_product(sp, vecs[j], vecs[i])


def test_d_pairings(model, w_self, sprime):
    dp = d_self_pairings(model, w_self.coeffs, sprime)
    assert dp.diagonal == -52
    assert dp.same_block == 12
    assert dp.uniform


def test_gram_pairing_matches_direct_pairing(model, gram):
    u = tuple(Fraction(k % 4 - 1, 2) for k in range(19))
    v = tuple(Fraction((k * 3) % 5 - 2, 3) for k in range(19))
    direct = sym2_pair(combination(model, u), combination(model, v))
    assert gram.pairings([u], [v]) == ((direct,),)


def test_sprime_squares_expand_by_hand(model):
    # (4s - delta)^2 = 16 s^2 - 8 s*delta + delta^2, summed over all labels
    sp = model.space
    total = Sym2Vector.from_map(sp, {})
    for alpha in ALPHAS:
        vec = sp.vector({s_label(alpha): Fraction(4), "delta": Fraction(-1)})
        total = sym2_sum(sp, [(1, total), (1, sym2_product(sp, vec, vec))])
    coeffs = expand_in_basis(model, total)
    assert coeffs[1] == 16 and coeffs[2] == 16 and coeffs[18] == -8


def test_ambient_space_shape(ambient):
    assert ambient.labels == ("y1", "y2", "y3", "z1", "z2", "z3", "xi")
    xi = ambient.basis_vector("xi")
    assert ambient.pair(xi, xi) == -8


def test_theta_sum_closure():
    # shifts form a group: theta + theta' is another shift or zero
    for a in THETAS[:5]:
        for b in THETAS[:5]:
            s = add(a, b)
            assert s == ORIGIN or s in THETAS


# ---------------------------------------------------------------------------
# surface pairings read from the fixed table against SURFACE.pair sums


def surface_images(theta, far=False):
    """Images on V of one fourfold's s classes and delta, by label.

    The labelling by ``kummer.add`` that ``surface_slots`` replaced: the
    near-side fourfold sends s_alpha to the near curve of the coset
    {alpha, alpha + theta}, in order of first appearance, and delta to half
    the sum of the far curves; with ``far`` the sides swap.
    """
    if theta == ORIGIN:
        raise ValueError("the two fourfolds must have distinct labels")
    surface = wgeometry.SURFACE
    curves = [surface.basis_vector(label) for label in surface.labels]
    sides = (curves[:8], curves[8:])
    own, other = (1, 0) if far else (0, 1)
    half_sum = tuple(sum(c[k] for c in sides[other]) / 2 for k in range(surface.dim))
    images = {"delta": half_sum}
    curves = iter(sides[own])
    for alpha in ALPHAS:
        label = s_label(alpha)
        if label not in images:
            images[label] = images[s_label(add(alpha, theta))] = next(curves)
    return images


def test_surface_slots_match_the_labelling_by_the_group_law():
    for theta in THETAS:
        slots = wgeometry.surface_slots(theta)
        for side, far in enumerate((False, True)):
            images = surface_images(theta, far)
            assert set(slots) == set(images)
            assert {label: wgeometry._IMAGES[side][k] for label, k in slots.items()} == images
    assert ORIGIN not in THETAS


def test_surface_constants_are_derived_once_per_verify_all(monkeypatch):
    surface_pairings = []
    slot_maps = []
    true_pair = QuadSpace.pair
    true_slots = wgeometry.surface_slots

    def counted_pair(space, u, v):
        if space is wgeometry.SURFACE:
            surface_pairings.append((u, v))
        return true_pair(space, u, v)

    def counted_slots(theta):
        slot_maps.append(theta)
        return true_slots(theta)

    monkeypatch.setattr(QuadSpace, "pair", counted_pair)
    monkeypatch.setattr(wgeometry, "surface_slots", counted_slots)
    assert run_suite(Engine(default_config()), "all").status == "pass"
    assert len(surface_pairings) == 1
    assert set(slot_maps) <= set(THETAS)
    assert sorted(slot_maps) == sorted([THETAS[0], *THETAS])


def test_d_gram_certificate_scans_only_the_vectors_it_multiplies(monkeypatch):
    # M and the relations are written as mappings of their integer cells:
    # M's 240 two-cell inside rows, its 15 block rows of 32 cells (all 0,
    # so none is stored) and G_0, then the 15 relations of 32 cells, each
    # multiplied by mat_vec as a mapping and stored once in the relation
    # matrix.  The only sequences scanned are the 16 block values of each
    # of the 15 kernel vectors and the three constants.  Dense rows of M
    # and of the relations, with dense relation vectors, would scan 73,216.
    sequence_cells, mapping_cells, built = [], [], []
    true_cells, true_matrix = linalg.integer_cells, kummer.Matrix

    def counted_cells(values):
        (mapping_cells if isinstance(values, Mapping) else sequence_cells).append(len(values))
        return true_cells(values)

    def recorded_matrix(*args):
        built.append(true_matrix(*args))
        return built[-1]

    monkeypatch.setattr(linalg, "integer_cells", counted_cells)
    monkeypatch.setattr(kummer, "integer_cells", counted_cells)
    monkeypatch.setattr(kummer, "Matrix", recorded_matrix)
    cert = kummer.d_gram_certificate(Fraction(-52), Fraction(12), 16, 16)
    assert (cert.rank, cert.difference_relations_in_kernel) == (241, True)
    assert sum(sequence_cells) == 15 * 16 + 3
    assert mapping_cells == [2] * 240 + [32] * 15 + [256] + [32] * 15 * 2
    stored = [row for m in built for row in m._scaled[1]]
    assert list(map(len, stored)) == [2] * 240 + [0] * 15 + [256] + [32] * 15


def test_verify_all_builds_each_sprime_product_once(monkeypatch):
    # 136 unordered products s'_a * s'_b and the 7 of the restricted dual class
    calls = []
    true_product = wgeometry.sym2_product

    def counted_product(*args):
        calls.append(args)
        return true_product(*args)

    monkeypatch.setattr(wgeometry, "sym2_product", counted_product)
    assert run_suite(Engine(default_config()), "all").status == "pass"
    assert len(calls) == 143


def test_verify_all_reads_the_fraction_coefficients_at_most_twice(monkeypatch):
    # the restriction of the ambient dual class and its render in the trail;
    # every sum, pairing and expansion reads the integer fields
    reads = []
    true_coeffs = Sym2Vector.coeffs.fget

    def counted_coeffs(x):
        reads.append(x)
        return true_coeffs(x)

    monkeypatch.setattr(Sym2Vector, "coeffs", property(counted_coeffs))
    assert run_suite(Engine(default_config()), "all").status == "pass"
    assert len(reads) <= 2


def _split_coset(theta, slots):
    slots[s_label(ORIGIN)] = (slots[s_label(ORIGIN)] + 1) % wgeometry.SIDE
    return slots


def test_surface_checks_reject_a_split_coset(monkeypatch):
    # each coset's two labels share a slot for every theta, so the same-coset
    # pairing that v_data reports for one theta holds for all of them
    for theta in THETAS:
        slots = wgeometry.surface_slots(theta)
        for i, j in COSETS[theta]:
            assert slots[s_label(ALPHAS[i])] == slots[s_label(ALPHAS[j])], theta
        split = _split_coset(theta, wgeometry.surface_slots(theta))
        assert any(split[s_label(ALPHAS[i])] != split[s_label(ALPHAS[j])] for i, j in COSETS[theta])
    _assert_wrong_slots_fail_the_report(monkeypatch, _split_coset)


def _ref_surface_pairing(model, theta, x):
    """The per-pair Fraction sum that the pairing table replaced."""
    images = surface_images(theta)
    labels = model.space.labels
    total = Fraction(0)
    for (i, j), c in x.coeffs:
        total += c * wgeometry.SURFACE.pair(images[labels[i]], images[labels[j]])
    return total


def test_table_read_rhs_matches_surface_pairings_for_every_theta(model, others):
    assert [o.theta for o in others] == list(THETAS)
    for other in others:
        want = [_ref_surface_pairing(model, other.theta, vec) for vec in model.basis[1:]]
        assert list(other.rhs[1:]) == want, other.theta


surface_coefficient = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=5)
)


@given(st.sampled_from(THETAS), st.data())
def test_near_pairing_matches_surface_pairings(model, theta, data):
    # random classes over the s classes and delta, with zero and non-integer
    # coefficients
    space = model.space
    indices = [space.index(s_label(a)) for a in ALPHAS] + [space.index("delta")]
    keys = st.tuples(st.sampled_from(indices), st.sampled_from(indices)).map(
        lambda k: tuple(sorted(k))
    )
    x = Sym2Vector.from_map(
        space, data.draw(st.dictionaries(keys, surface_coefficient, max_size=10))
    )
    slots = wgeometry.surface_slots(theta)
    slot = [slots.get(label) for label in space.labels]
    assert wgeometry.near_pairing(slot, x) == _ref_surface_pairing(model, theta, x)


def test_near_pairing_matches_surface_pairings_on_every_monomial(model):
    # each of the 153 monomials over the s classes and delta, for every theta
    space = model.space
    indices = [space.index(s_label(a)) for a in ALPHAS] + [space.index("delta")]
    monomials = [(i, j) for i in indices for j in indices if i <= j]
    assert len(monomials) == 153
    for theta in THETAS:
        slots = wgeometry.surface_slots(theta)
        slot = [slots.get(label) for label in space.labels]
        for key in monomials:
            x = Sym2Vector.from_map(space, {key: Fraction(1)})
            got = wgeometry.near_pairing(slot, x)
            assert got == _ref_surface_pairing(model, theta, x), (theta, key)


# ---------------------------------------------------------------------------
# the basis expansion against a projection by the Gram of the 19 classes


def _fraction_solve(rows, rhs):
    """The solution of a nonsingular square system, by Gauss-Jordan over Fraction."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return tuple(row[n] for row in aug)


@cache
def _gram_rows(factor):
    basis = _model_for(factor).basis
    return [[sym2_pair(u, v) for v in basis] for u in basis]


def _ref_expand_in_basis(model, x):
    """Pair x with the 19 classes and solve against their Gram; x is in the
    span exactly when that solution rebuilds x."""
    coeffs = _fraction_solve(_gram_rows(model.factor), [sym2_pair(v, x) for v in model.basis])
    rebuilt = {}
    for c, v in zip(coeffs, model.basis):
        for key, value in v.coeffs:
            rebuilt[key] = rebuilt.get(key, 0) + c * value
    if {k: v for k, v in rebuilt.items() if v} != dict(x.coeffs):
        raise ValueError("not in the span")
    return coeffs


def _outcome(expand, model, x):
    try:
        return expand(model, x)
    except ValueError:
        return "not in the span"


@settings(max_examples=40)
@given(st.sampled_from(FACTORS), st.lists(small, min_size=19, max_size=19), st.data())
def test_expansion_matches_the_gram_projection(factor, coeffs, data):
    model = _model_for(factor)
    x = combination(model, coeffs)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, model.space.dim - 1))
        j = data.draw(st.integers(i, model.space.dim - 1))
        x = sym2_sum(
            model.space, [(1, x), (1, Sym2Vector.from_map(model.space, {(i, j): data.draw(small)}))]
        )
    assert _outcome(expand_in_basis, model, x) == _outcome(_ref_expand_in_basis, model, x)


def test_shift_table_is_the_group_law():
    for theta in ALPHAS:
        assert [ALPHAS[j] for j in SHIFTED[theta]] == [add(a, theta) for a in ALPHAS]
    for theta in THETAS:
        cosets = COSETS[theta]
        assert sorted(i for pair in cosets for i in pair) == list(range(16))
        assert all(add(ALPHAS[i], theta) == ALPHAS[j] and i < j for i, j in cosets)
