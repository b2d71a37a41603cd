import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kum3check import kummer
from kum3check.kummer import (
    ALPHAS,
    ORIGIN,
    FixedClassIntersections,
    component_cube_from_total,
    d_gram_certificate,
    deg4_independence_certificate,
    qbar_injectivity_certificate,
    w_dot_v_total,
    w_times_w_pair,
    w_times_w_sq,
)
from kum3check.linalg import Matrix, kernel_basis, rank

from label_group import (
    IDENTITY,
    DClass,
    GroupElement,
    VClass,
    WClass,
    act,
    apply_to_point,
    coincidence_pattern,
    compose,
    double,
    enumerated_sum,
    four_torsion,
    full_group,
    halving_fiber,
    invert,
    orbit,
    orbit_sum,
    sign_two_torsion_subgroup,
    translation_subgroup,
    triple_value,
)
from matrix_entries import entries

group_elements = st.sampled_from(full_group())


def test_torsion_points():
    assert len(four_torsion()) == 256
    assert len(ALPHAS) == 16
    assert all(double(double(p)) == ORIGIN for p in four_torsion())
    assert all(double(t) == ORIGIN for t in ALPHAS)
    for tau in ALPHAS:
        fiber = halving_fiber(tau)
        assert len(fiber) == 16
        assert all(double(a) == tau for a in fiber)
    with pytest.raises(ValueError):
        halving_fiber((1, 0, 0, 0))


def test_two_torsion_is_the_kernel_of_doubling_in_order():
    # the kernel of doubling on the 256 four-torsion points is the oracle, order included
    assert ALPHAS == tuple(p for p in four_torsion() if double(p) == ORIGIN)


@given(group_elements, group_elements, group_elements)
def test_group_axioms(g, h, k):
    assert compose(compose(g, h), k) == compose(g, compose(h, k))
    assert compose(g, IDENTITY) == compose(IDENTITY, g) == g
    assert compose(g, invert(g)) == IDENTITY
    assert compose(invert(g), g) == IDENTITY


@given(group_elements, group_elements, st.sampled_from(four_torsion()))
def test_action_is_a_homomorphism(g, h, p):
    assert apply_to_point(compose(g, h), p) == apply_to_point(
        g, apply_to_point(h, p)
    )


def test_group_orders():
    assert len(full_group()) == 512
    assert len(translation_subgroup()) == 256
    assert len(sign_two_torsion_subgroup()) == 32


def test_action_on_labels():
    tau = ALPHAS[3]
    w = WClass(tau)
    assert orbit(w, sign_two_torsion_subgroup()) == {w}
    assert len(orbit(w, full_group())) == 16
    a, b = ALPHAS[1], ALPHAS[2]
    v = VClass.of(a, b)
    assert act(IDENTITY, v) == v
    alpha = halving_fiber(tau)[0]
    d = DClass(tau, alpha)
    assert len(orbit(d, full_group())) == 256
    with pytest.raises(ValueError):
        VClass.of(a, a)
    with pytest.raises(ValueError):
        DClass(tau, (0, 0, 0, 0))
    with pytest.raises(TypeError):
        act(IDENTITY, "w")


@given(group_elements, st.lists(st.sampled_from(four_torsion()), min_size=1, max_size=4))
def test_patterns_are_equivariant(g, points):
    moved = tuple(apply_to_point(g, p) for p in points)
    assert coincidence_pattern(moved) == coincidence_pattern(tuple(points))


def test_pairings_are_equivariant_on_generators():
    # one translation of order four, one two-torsion shift, one reflection
    generators = (
        GroupElement(four_torsion()[1], 1),
        GroupElement(ALPHAS[1], 1),
        GroupElement(ORIGIN, -1),
    )
    labels = [DClass(t, halving_fiber(t)[k]) for t in ALPHAS[:3] for k in (0, 5)]

    def pairing(x, y):
        # depends only on block equality and fiber-point equality
        return (x.tau == y.tau, x.alpha == y.alpha)

    for g in generators:
        for x in labels:
            for y in labels:
                assert pairing(act(g, x), act(g, y)) == pairing(x, y)


def test_orbit_sum_matches_enumeration_for_squares():
    rng = random.Random(7)
    values = {}

    def value(pattern):
        return values.setdefault(pattern, Fraction(rng.randint(-9, 9), 2))

    for n in (3, 5, 16):
        assert orbit_sum(n, 2, value) == enumerated_sum(n, 2, value)


def test_orbit_sum_matches_enumeration_for_cubes():
    def value(pattern):
        return triple_value(pattern, Fraction(60), Fraction(12), Fraction(4))

    for n in (2, 4, 16):
        assert orbit_sum(n, 3, value) == enumerated_sum(n, 3, value)


def test_sum_class_pattern_counts():
    assert w_dot_v_total(Fraction(12), Fraction(4), 16) == 9600
    assert component_cube_from_total(Fraction(23040), Fraction(12), Fraction(4), 16) == 60
    assert w_times_w_sq(Fraction(60), Fraction(12), 16) == 240
    assert w_times_w_pair(Fraction(12), Fraction(4), 16) == 80
    # the cube recovery inverts the orbit-counted total exactly
    def value(pattern):
        return triple_value(pattern, Fraction(60), Fraction(12), Fraction(4))

    assert orbit_sum(16, 3, value) == 23040


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@given(st.integers(2, 6), small_rationals, small_rationals, small_rationals)
def test_pattern_counts_match_brute_force_sums(n, cube, pair, distinct):
    def value(labels):
        return triple_value(coincidence_pattern(labels), cube, pair, distinct)

    unordered_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    w_dot_v = sum(value((tau, a, b)) for tau in range(n) for a, b in unordered_pairs)
    assert w_dot_v_total(pair, distinct, n) == w_dot_v
    total = enumerated_sum(n, 3, value)
    assert component_cube_from_total(total, pair, distinct, n) == cube
    assert w_times_w_sq(cube, pair, n) == sum(value((s, 0, 0)) for s in range(n))
    assert w_times_w_pair(pair, distinct, n) == sum(value((s, 0, 1)) for s in range(n))


@pytest.fixture(scope="module")
def intersections():
    return FixedClassIntersections(
        qbar2_w=Fraction(252),
        qbarz_w=Fraction(-504, 11),
        qbar_w_sq=Fraction(84),
        qbar_w_pair=Fraction(28),
        w_cube=Fraction(60),
        w_sq_w_other=Fraction(12),
        w_triple_distinct=Fraction(4),
        c2_qbar2=Fraction(6048),
        c2_qbarz=Fraction(2688, 11),
        qbar_c2_sq=Fraction(13440),
        ratio=Fraction(24, 11),
        w_qbar_coeff=Fraction(16, 11),
        w_z_coeff=Fraction(-3),
    )


def test_independence_certificate(intersections):
    cert = deg4_independence_certificate(intersections)
    assert (cert.matrix.rows, cert.matrix.cols) == (17, 138)
    assert cert.rank == 17
    assert cert.separating_gap == 48
    assert cert.pairings.z_w_sq == Fraction(-432, 11)
    assert cert.pairings.z_w_pair == Fraction(-144, 11)
    assert cert.pairings.c2_w_sq == 144
    assert cert.pairings.c2_w_pair == 48


def test_injectivity_certificate(intersections):
    cert = qbar_injectivity_certificate(intersections)
    assert (cert.matrix.rows, cert.matrix.cols) == (17, 17)
    assert cert.rank == 17
    assert cert.qbar_c2_w == 504


def test_d_gram_certificate():
    cert = d_gram_certificate(Fraction(-52), Fraction(12), blocks=16, block_size=16)
    assert (cert.blocks, cert.block_size) == (16, 16)
    assert cert.cross_block == 8
    assert cert.rank == 241
    assert cert.nullity == 15
    assert cert.row_block_total == 128
    assert cert.block_square == 2048
    assert cert.kernel_is_block_structured
    assert cert.difference_relations_in_kernel
    assert cert.difference_relations_rank == 15


# ---------------------------------------------------------------------------
# the D Gram certificate against its dense Gram


def _dense_d_gram_oracle(a, b, c, blocks, size):
    """Rank, kernel basis and block checks computed on the dense Gram itself."""
    n = blocks * size
    gram = Matrix(
        [[a if i == j else b if i // size == j // size else c for j in range(n)] for i in range(n)]
    )
    kernel = kernel_basis(gram)
    chunks = [[v[k * size : (k + 1) * size] for k in range(blocks)] for v in kernel]
    structured = all(
        all(len(set(chunk)) == 1 for chunk in vec) and sum(chunk[0] for chunk in vec) == 0
        for vec in chunks
    )
    relations = []
    for k in range(1, blocks):
        v = [0] * n
        v[:size] = [1] * size
        v[k * size : (k + 1) * size] = [-1] * size
        relations.append(v)
    in_kernel = all(not any(gram.mat_vec(v)) for v in relations)
    return rank(gram), kernel, structured, in_kernel, rank(Matrix(relations))


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def d_gram_constants(draw):
    """(diagonal, same_block, blocks, block_size), with diagonal == same_block
    and a zero row total drawn on purpose."""
    blocks = draw(st.integers(1, 4))
    size = draw(st.integers(1, 5))
    b = draw(small_rationals)
    a = draw(
        st.one_of(small_rationals, st.just(b), st.just(-(size - 1) * b))
    )
    return a, b, blocks, size


@given(d_gram_constants())
def test_d_gram_certificate_matches_the_dense_gram(constants):
    a, b, blocks, size = constants
    seen = []

    def recording_kernel_basis(m):
        seen.append(kernel_basis(m))
        return seen[-1]

    with mock.patch.object(kummer, "kernel_basis", recording_kernel_basis):
        cert = d_gram_certificate(a, b, blocks=blocks, block_size=size)
    gram_rank, kernel, structured, in_kernel, relations_rank = _dense_d_gram_oracle(
        a, b, cert.cross_block, blocks, size
    )
    assert seen == [kernel]
    assert (cert.rank, cert.nullity) == (gram_rank, len(kernel))
    assert cert.kernel_is_block_structured == structured
    assert cert.difference_relations_in_kernel == in_kernel
    assert cert.difference_relations_rank == relations_rank
    assert cert.rank == blocks * (size - 1) * (a != b) + (a + (size - 1) * b != 0)


# ---------------------------------------------------------------------------
# the square-column gap identity on the built M, by the pairwise loop


def _row_transform(n):
    """P with M = P*A for the 1 + n rows c2, W_0, ..., W_{n-1} of A: row r
    of P is e_r, less e_{r-1} from r = 2 on."""
    return [[int(c == r) - int(r >= 2 and c == r - 1) for c in range(n + 1)] for r in range(n + 1)]


def _ref_gap_failure(rows, gap, n):
    """The first (pair, row) at which column w_t^2 - column w_u^2 of the
    rows of M differs from gap * P(e_{1+t} - e_{1+u})."""
    p = _row_transform(n)
    for t in range(n):
        for u in range(t + 1, n):
            for r, row in enumerate(rows):
                diff = row[2 + t] - row[2 + u]
                want = gap * (p[r][1 + t] - p[r][1 + u])
                if diff != want:
                    return f"square-column gap identity fails at row {r}, pair ({t},{u})"
    return None


small_fractions = st.fractions(-60, 60, max_denominator=12)


@settings(max_examples=25)
@given(
    st.builds(
        FixedClassIntersections,
        *[small_fractions] * 12,
        w_z_coeff=small_fractions.filter(bool),
    ),
    st.integers(0, 16),
    st.integers(0, 15),
    st.sampled_from((Fraction(1, 2), Fraction(-1), Fraction(48))),
)
def test_gap_check_matches_the_pairwise_loop(intersections, r, t, delta):
    # M is written from the gap, so the identity holds on every document;
    # the loop still flags a copy of M with one square cell moved
    rows = [list(row) for row in entries(deg4_independence_certificate(intersections).matrix)]
    gap = intersections.w_cube - intersections.w_sq_w_other
    assert _ref_gap_failure(rows, gap, 16) is None
    rows[r][2 + t] += delta
    assert _ref_gap_failure(rows, gap, 16) is not None
