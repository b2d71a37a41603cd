from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kum3check.linalg import Matrix
from kum3check.quadspace import (
    K3Hilb2Pack,
    QuadSpace,
    Sym2Vector,
    k3two_fujiki_pair,
    qbar_dual,
    sym2_gram,
    sym2_pair,
    sym2_product,
    sym2_square,
)

PACK = K3Hilb2Pack(
    fujiki_constant=Fraction(3),
    qbar_fujiki=Fraction(25),
    qbar_square=Fraction(575),
    c2_qbar_ratio=Fraction(6, 5),
    c4_degree=Fraction(324),
)

AMBIENT = QuadSpace(
    labels=("y1", "y2", "y3", "z1", "z2", "z3", "xi"),
    gram=Matrix([
        [2, 0, 0, 0, 0, 0, 0],
        [0, 2, 0, 0, 0, 0, 0],
        [0, 0, 2, 0, 0, 0, 0],
        [0, 0, 0, -2, 0, 0, 0],
        [0, 0, 0, 0, -2, 0, 0],
        [0, 0, 0, 0, 0, -2, 0],
        [0, 0, 0, 0, 0, 0, -8],
    ]),
    name="ambient",
    hilb2_pack=PACK,
)


def test_space_validation():
    with pytest.raises(ValueError):
        QuadSpace(labels=("a", "a"), gram=Matrix([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        QuadSpace(labels=("a", "b"), gram=Matrix([[1, 2], [3, 1]]))
    with pytest.raises(ValueError):
        QuadSpace(labels=("a",), gram=Matrix([[1, 0], [0, 1]]))


def test_vector_and_pairing():
    u = AMBIENT.vector({"y1": 1, "xi": Fraction(1, 2)})
    assert u == (1, 0, 0, 0, 0, 0, Fraction(1, 2))
    assert AMBIENT.pair(u, u) == 2 + Fraction(1, 4) * -8
    with pytest.raises(KeyError):
        AMBIENT.vector({"nope": 1})


def test_dual_class_coefficients():
    dual = qbar_dual(AMBIENT)
    m = dual.as_map()
    half = Fraction(1, 2)
    assert m[(0, 0)] == half and m[(1, 1)] == half and m[(2, 2)] == half
    assert m[(3, 3)] == -half and m[(4, 4)] == -half and m[(5, 5)] == -half
    assert m[(6, 6)] == Fraction(-1, 8)
    assert len(m) == 7


def test_dual_class_requires_orthogonal_basis():
    skew = QuadSpace(labels=("a", "b"), gram=Matrix([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        qbar_dual(skew)


def test_fujiki_pair_scales_the_form():
    u = AMBIENT.basis_vector("y1")
    v = AMBIENT.basis_vector("y2")
    assert k3two_fujiki_pair(AMBIENT, u, u) == 50
    assert k3two_fujiki_pair(AMBIENT, u, v) == 0
    bare = QuadSpace(labels=("a",), gram=Matrix([[2]]))
    with pytest.raises(ValueError):
        k3two_fujiki_pair(bare, (1,), (1,))


def test_dual_square_on_the_ambient_space():
    dual = qbar_dual(AMBIENT)
    # three matchings on rank n give n^2 + 2n, independent of the diagonal
    assert sym2_pair(dual, dual) == 63


def test_sym2_vector_is_canonical():
    a = Sym2Vector.from_map(AMBIENT, {(0, 0): Fraction(1), (0, 1): Fraction(0)})
    b = Sym2Vector.from_map(AMBIENT, {(0, 0): Fraction(1)})
    assert a == b
    assert (a - b).coeffs == ()
    with pytest.raises(ValueError):
        Sym2Vector.from_map(AMBIENT, {(1, 0): Fraction(1)})


def test_sym2_gram_is_symmetric():
    vectors = [
        sym2_square(AMBIENT, AMBIENT.basis_vector("y1")),
        sym2_square(AMBIENT, AMBIENT.basis_vector("xi")),
        qbar_dual(AMBIENT),
    ]
    g = sym2_gram(AMBIENT, vectors)
    assert g == g.transpose()
    assert g[0][0] == sym2_pair(vectors[0], vectors[0])


coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3)
vectors7 = st.lists(coefficient, min_size=7, max_size=7).map(tuple)


@given(vectors7, vectors7)
def test_pairing_is_symmetric(u, v):
    x = sym2_square(AMBIENT, u)
    y = sym2_square(AMBIENT, v)
    assert sym2_pair(x, y) == sym2_pair(y, x)
    assert sym2_product(AMBIENT, u, v) == sym2_product(AMBIENT, v, u)


@given(vectors7, vectors7, vectors7)
def test_pairing_is_bilinear(u, v, w):
    uv = sym2_product(AMBIENT, u, v)
    uw = sym2_product(AMBIENT, u, w)
    vw = [a + b for a, b in zip(v, w)]
    assert sym2_product(AMBIENT, u, vw) == uv + uw
    y = sym2_square(AMBIENT, w)
    assert sym2_pair(uv + uw, y) == sym2_pair(uv, y) + sym2_pair(uw, y)
    assert sym2_pair(3 * uv, y) == 3 * sym2_pair(uv, y)


@given(vectors7, vectors7)
def test_polarization_identity(u, v):
    plus = sym2_square(AMBIENT, [a + b for a, b in zip(u, v)])
    assert plus == sym2_square(AMBIENT, u) + 2 * sym2_product(
        AMBIENT, u, v
    ) + sym2_square(AMBIENT, v)


# ---------------------------------------------------------------------------
# Fraction reference formulas for the integer pairing kernels


def _ref_pair(gram, u, v):
    total = Fraction(0)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            total += ui * gram[i][j] * vj
    return total


def _ref_sym2_pair(x, y):
    g = x.space.gram.entries
    total = Fraction(0)
    for (a, b), xc in x.coeffs:
        for (c, d), yc in y.coeffs:
            t = g[a][b] * g[c][d] + g[a][c] * g[b][d] + g[a][d] * g[b][c]
            total += xc * yc * t
    return total


# A non-diagonal rational Gram: positive definite, so nothing is degenerate.
SKEW = QuadSpace(
    labels=("a", "b", "c", "d"),
    gram=Matrix([
        [Fraction(5, 2), Fraction(1, 3), 0, Fraction(-1, 4)],
        [Fraction(1, 3), 3, Fraction(2, 5), 0],
        [0, Fraction(2, 5), Fraction(7, 3), 1],
        [Fraction(-1, 4), 0, 1, 4],
    ]),
    name="skew",
)


@st.composite
def sym2_vectors(draw, space):
    keys = st.tuples(st.integers(0, space.dim - 1), st.integers(0, space.dim - 1)).map(
        lambda k: tuple(sorted(k))
    )
    coeffs = draw(st.dictionaries(keys, coefficient, max_size=8))
    return Sym2Vector.from_map(space, coeffs)


@given(st.sampled_from((AMBIENT, SKEW)), st.data())
def test_integer_pairings_match_fraction_formulas(space, data):
    x = data.draw(sym2_vectors(space))
    y = data.draw(sym2_vectors(space))
    assert sym2_pair(x, y) == _ref_sym2_pair(x, y)
    u = data.draw(st.lists(coefficient, min_size=space.dim, max_size=space.dim))
    v = data.draw(st.lists(coefficient, min_size=space.dim, max_size=space.dim))
    assert space.pair(u, v) == _ref_pair(space.gram, u, v)


def test_pair_checks_vector_length():
    with pytest.raises(ValueError):
        AMBIENT.pair((1, 0), AMBIENT.basis_vector("y1"))
