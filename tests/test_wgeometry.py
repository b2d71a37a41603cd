from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kum3check.kummer import ZERO, add
from kum3check.quadspace import K3Hilb2Pack, Sym2Vector, sym2_pair, sym2_product
from kum3check.wgeometry import (
    ALPHAS,
    THETAS,
    _exact_sqrt,
    ambient_h2_space,
    build_gram19,
    build_v_model,
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
    xi_restriction_on,
)

PACK = K3Hilb2Pack(
    fujiki_constant=Fraction(3),
    qbar_fujiki=Fraction(25),
    qbar_square=Fraction(575),
    c2_qbar_ratio=Fraction(6, 5),
    c4_degree=Fraction(324),
)
XI_SQUARE = Fraction(-8)


@pytest.fixture(scope="module")
def factor():
    return derive_restriction_factor(PACK, XI_SQUARE)


@pytest.fixture(scope="module")
def model(factor):
    return build_w_model(PACK, factor.factor)


@pytest.fixture(scope="module")
def gram(model):
    return build_gram19(model)


@pytest.fixture(scope="module")
def ambient():
    return ambient_h2_space(XI_SQUARE)


@pytest.fixture(scope="module")
def qbar_rest(model, ambient):
    return restrict_qbar(model, ambient)


@pytest.fixture(scope="module")
def others(model, gram):
    return tuple(
        restrict_w_other(
            model, gram, PACK, theta, Fraction(24), Fraction(12), XI_SQUARE
        )
        for theta in THETAS
    )


@pytest.fixture(scope="module")
def w_self(model, gram, qbar_rest, others):
    return restrict_w_self(
        model,
        gram,
        PACK,
        qbar_rest,
        others,
        c4_w_component=Fraction(408),
        w_sq_w_other=Fraction(12),
        qbar_w_sq=Fraction(84),
    )


def test_labels():
    assert len(ALPHAS) == 16 and len(THETAS) == 15
    assert ALPHAS[0] == ZERO and ZERO not in THETAS
    assert s_label(ZERO) == "s0000"


def test_nodal_space_and_scaling(factor):
    nodal = nodal_space()
    xi_w = xi_restriction_on(nodal)
    assert nodal.pair(xi_w, xi_w) == -16
    assert factor.c_w_component == 12
    assert factor.factor == 2
    assert factor.xi_restriction_square == -16


def test_exact_sqrt():
    assert _exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert _exact_sqrt(Fraction(0)) == 0
    with pytest.raises(ValueError):
        _exact_sqrt(Fraction(2))
    with pytest.raises(ValueError):
        _exact_sqrt(Fraction(-4))


def test_w_model_shape(model):
    assert model.space.dim == 23
    assert len(model.basis) == 19
    assert model.basis_names[0] == "qbar_W"
    assert model.s_index(ALPHAS[0]) == 6
    assert model.theta_position(THETAS[0]) == 3


def test_gram19_matches_reference(model, gram):
    assert gram == expected_gram19()
    head = [[gram[i][j] for j in range(3)] for i in range(3)]
    assert head == [[575, -50, -800], [-50, 12, 64], [-800, 64, 1152]]
    for k in range(3, 18):
        assert gram[k][k] == 128
    assert gram[18][18] == 64


def test_expand_in_basis_round_trips(model):
    coeffs = tuple(Fraction(k - 9, 3) for k in range(19))
    x = combination(model, coeffs)
    assert expand_in_basis(model, x) == coeffs


small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@given(st.lists(small, min_size=19, max_size=19))
def test_expand_in_basis_is_linear(coeffs):
    model = build_w_model(PACK, Fraction(2))
    x = combination(model, coeffs)
    assert expand_in_basis(model, x) == tuple(Fraction(c) for c in coeffs)


def test_expand_in_basis_rejects_outside_span(model):
    x = combination(model, tuple([Fraction(1)] + [Fraction(0)] * 18))
    stray = Sym2Vector.from_map(model.space, {(3, 4): Fraction(1)})
    with pytest.raises(ValueError):
        expand_in_basis(model, x + stray)


def test_expand_in_basis_rejects_non_uniform_squares(model):
    lopsided = Sym2Vector.from_map(model.space, {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        expand_in_basis(model, lopsided)


def test_restriction_is_similitude(model, ambient):
    assert restriction_is_similitude(model, ambient)
    images = restriction_images(model)
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
    assert gram.pair(coeffs, coeffs) == 252


def test_v_restriction_data():
    vm = build_v_model(THETAS[0])
    data = v_restriction_data(vm, XI_SQUARE, Fraction(24), Fraction(12))
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
        vm = build_v_model(theta)
        data = v_restriction_data(vm, XI_SQUARE, Fraction(24), Fraction(12))
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


def test_v_model_rejects_zero_shift():
    with pytest.raises(ValueError):
        build_v_model(ZERO)


def test_w_other_restrictions(model, others):
    for other in others:
        coeffs = other.coeffs
        assert other.rhs[0] == 30
        assert other.qbar_pairing == 30
        assert coeffs[0] == Fraction(2, 5)
        assert coeffs[1] == 0
        assert coeffs[2] == Fraction(1, 4)
        assert coeffs[18] == 0
        pos = model.theta_position(other.theta)
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


def test_w_self_restriction(w_self):
    assert (w_self.eta, w_self.beta, w_self.gamma) == (
        Fraction(4, 5),
        Fraction(9, 640),
        Fraction(1, 640),
    )
    sys_rows = [[w_self.system[i][j] for j in range(3)] for i in range(3)]
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


def test_w_self_needs_all_other_restrictions(model, gram, qbar_rest, others):
    with pytest.raises(ValueError):
        restrict_w_self(
            model,
            gram,
            PACK,
            qbar_rest,
            others[:14],
            c4_w_component=Fraction(408),
            w_sq_w_other=Fraction(12),
            qbar_w_sq=Fraction(84),
        )


def test_d_pairings(model, w_self):
    dp = d_self_pairings(model, w_self.coeffs)
    assert dp.diagonal == -52
    assert dp.same_block == 12
    assert dp.uniform


def test_gram_pairing_matches_direct_pairing(model, gram):
    u = tuple(Fraction(k % 4 - 1, 2) for k in range(19))
    v = tuple(Fraction((k * 3) % 5 - 2, 3) for k in range(19))
    direct = sym2_pair(combination(model, u), combination(model, v))
    assert gram.pair(u, v) == direct


def test_sprime_squares_expand_by_hand(model):
    # (4s - delta)^2 = 16 s^2 - 8 s*delta + delta^2, summed over all labels
    sp = model.space
    total = Sym2Vector.from_map(sp, {})
    for alpha in ALPHAS:
        vec = sp.vector({s_label(alpha): Fraction(4), "delta": Fraction(-1)})
        total = total + sym2_product(sp, vec, vec)
    coeffs = expand_in_basis(model, total)
    assert coeffs[1] == 16 and coeffs[2] == 16 and coeffs[18] == -8


def test_ambient_space_shape():
    space = ambient_h2_space(XI_SQUARE)
    assert space.labels == ("y1", "y2", "y3", "z1", "z2", "z3", "xi")
    xi = space.basis_vector("xi")
    assert space.pair(xi, xi) == -8


def test_theta_sum_closure():
    # shifts form a group: theta + theta' is another shift or zero
    for a in THETAS[:5]:
        for b in THETAS[:5]:
            s = add(a, b)
            assert s == ZERO or s in THETAS
