from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kum3check.linalg import ZERO, Matrix
from kum3check.quadspace import (
    QuadSpace,
    Sym2Vector,
    qbar_dual,
    sym2_gram,
    sym2_pair,
    sym2_product,
    sym2_sum,
)

AMBIENT = QuadSpace(
    labels=("y1", "y2", "y3", "z1", "z2", "z3", "xi"),
    squares=(2, 2, 2, -2, -2, -2, -8),
    name="ambient",
)


def test_space_validation():
    with pytest.raises(ValueError, match="duplicate"):
        QuadSpace(labels=("a", "a"), squares=(1, 1))
    with pytest.raises(ValueError, match="count"):
        QuadSpace(labels=("a",), squares=(1, 1))
    with pytest.raises(ValueError, match="count"):
        QuadSpace(labels=("a", "b"), squares=(1,))
    assert AMBIENT.squares == tuple(map(Fraction, (2, 2, 2, -2, -2, -2, -8)))


@pytest.mark.parametrize("zero", [0, Fraction(0), ZERO])
def test_zero_square_is_rejected_at_construction(zero):
    with pytest.raises(ValueError, match="'b' is isotropic"):
        QuadSpace(labels=("a", "b", "c"), squares=(1, zero, -1))


def test_vector_and_pairing():
    u = AMBIENT.vector({"y1": 1, "xi": Fraction(1, 2)})
    assert u == (1, 0, 0, 0, 0, 0, Fraction(1, 2))
    assert AMBIENT.pair(u, u) == 2 + Fraction(1, 4) * -8
    with pytest.raises(KeyError):
        AMBIENT.vector({"nope": 1})


def test_dual_class_coefficients():
    dual = qbar_dual(AMBIENT)
    m = dict(dual.coeffs)
    half = Fraction(1, 2)
    assert m[(0, 0)] == half and m[(1, 1)] == half and m[(2, 2)] == half
    assert m[(3, 3)] == -half and m[(4, 4)] == -half and m[(5, 5)] == -half
    assert m[(6, 6)] == Fraction(-1, 8)
    assert len(m) == 7


def test_dual_square_on_the_ambient_space():
    dual = qbar_dual(AMBIENT)
    # three matchings on rank n give n^2 + 2n, independent of the diagonal
    assert sym2_pair(dual, dual) == 63


def _assert_normal_form(x, coeffs):
    """x is the class with these {key: Fraction} coefficients, stored in its
    normal form: sorted nonzero keys, scale > 0 and gcd(scale, *ints) == 1."""
    keys = sorted(k for k, c in coeffs.items() if c)
    scale = lcm(*(coeffs[k].denominator for k in keys))
    ints = tuple(int(coeffs[k] * scale) for k in keys)
    assert (x.scale, x.keys, x.ints) == (scale, tuple(keys), ints)
    assert x.scale > 0 and gcd(x.scale, *x.ints) == 1
    assert x.coeffs == tuple((k, coeffs[k]) for k in keys)


def test_sym2_vector_is_canonical():
    want = {(0, 0): Fraction(1, 2), (2, 2): Fraction(-3, 4)}
    # keys out of order and a zero coefficient, as a map and as an accumulator
    a = Sym2Vector.from_map(
        AMBIENT, {(2, 2): Fraction(-3, 4), (0, 1): Fraction(0), (0, 0): Fraction(1, 2)}
    )
    b = Sym2Vector.from_map(AMBIENT, want)
    c = Sym2Vector(AMBIENT, {(2, 2): -6, (0, 1): 0, (0, 0): 4}, 8)
    for x in (a, b, c):
        _assert_normal_form(x, want)
        assert (x.space, x.scale, x.keys, x.ints) == (AMBIENT, 4, ((0, 0), (2, 2)), (2, -3))
    assert a == b == c
    zero = sym2_sum(AMBIENT, [(1, a), (-1, b)])
    assert (zero.scale, zero.keys, zero.ints, zero.coeffs) == (1, (), (), ())
    with pytest.raises(ValueError):
        Sym2Vector.from_map(AMBIENT, {(1, 0): Fraction(1)})


def test_sym2_gram_is_symmetric():
    y1 = AMBIENT.basis_vector("y1")
    xi = AMBIENT.basis_vector("xi")
    vectors = [
        sym2_product(AMBIENT, y1, y1),
        sym2_product(AMBIENT, xi, xi),
        qbar_dual(AMBIENT),
    ]
    g = sym2_gram(vectors)
    assert g == Matrix(zip(*g.entries))
    assert g.entries[0][0] == sym2_pair(vectors[0], vectors[0])


coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3)
vectors7 = st.lists(coefficient, min_size=7, max_size=7).map(tuple)


@given(vectors7, vectors7)
def test_pairing_is_symmetric(u, v):
    x = sym2_product(AMBIENT, u, u)
    y = sym2_product(AMBIENT, v, v)
    assert sym2_pair(x, y) == sym2_pair(y, x)
    assert sym2_product(AMBIENT, u, v) == sym2_product(AMBIENT, v, u)


@given(vectors7, vectors7, vectors7)
def test_pairing_is_bilinear(u, v, w):
    uv = sym2_product(AMBIENT, u, v)
    uw = sym2_product(AMBIENT, u, w)
    vw = [a + b for a, b in zip(v, w)]
    uv_plus_uw = sym2_sum(AMBIENT, [(1, uv), (1, uw)])
    assert sym2_product(AMBIENT, u, vw) == uv_plus_uw
    y = sym2_product(AMBIENT, w, w)
    assert sym2_pair(uv_plus_uw, y) == sym2_pair(uv, y) + sym2_pair(uw, y)
    assert sym2_pair(sym2_sum(AMBIENT, [(3, uv)]), y) == 3 * sym2_pair(uv, y)


@given(vectors7, vectors7)
def test_polarization_identity(u, v):
    u_plus_v = [a + b for a, b in zip(u, v)]
    plus = sym2_product(AMBIENT, u_plus_v, u_plus_v)
    assert plus == sym2_sum(
        AMBIENT,
        [
            (1, sym2_product(AMBIENT, u, u)),
            (2, sym2_product(AMBIENT, u, v)),
            (1, sym2_product(AMBIENT, v, v)),
        ],
    )


# ---------------------------------------------------------------------------
# Fraction reference formulas for the integer pairing kernels


def _dense_gram(space):
    """The diagonal Gram of the space, every cell spelled out."""
    n = space.dim
    return [[space.squares[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def _ref_pair(space, u, v):
    g = _dense_gram(space)
    total = Fraction(0)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            total += ui * g[i][j] * vj
    return total


def _ref_sym2_pair(x, y):
    """The three-matching rule summed over every pair of monomials."""
    g = _dense_gram(x.space)
    total = Fraction(0)
    for (a, b), xc in x.coeffs:
        for (c, d), yc in y.coeffs:
            t = g[a][b] * g[c][d] + g[a][c] * g[b][d] + g[a][d] * g[b][c]
            total += xc * yc * t
    return total


@st.composite
def orthogonal_spaces(draw):
    squares = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool),
            min_size=1,
            max_size=8,
        )
    )
    return QuadSpace(tuple(f"e{i}" for i in range(len(squares))), tuple(squares), "drawn")


spaces = st.one_of(st.just(AMBIENT), orthogonal_spaces())


@st.composite
def sym2_vectors(draw, space):
    keys = st.tuples(st.integers(0, space.dim - 1), st.integers(0, space.dim - 1)).map(
        lambda k: tuple(sorted(k))
    )
    coeffs = draw(st.dictionaries(keys, coefficient, max_size=8))
    return Sym2Vector.from_map(space, coeffs)


@given(spaces, st.data())
def test_integer_pairings_match_fraction_formulas(space, data):
    x = data.draw(sym2_vectors(space))
    y = data.draw(sym2_vectors(space))
    assert sym2_pair(x, y) == _ref_sym2_pair(x, y)
    u = data.draw(st.lists(coefficient, min_size=space.dim, max_size=space.dim))
    v = data.draw(st.lists(coefficient, min_size=space.dim, max_size=space.dim))
    assert space.pair(u, v) == _ref_pair(space, u, v)


def test_pairing_of_classes_sharing_a_square_and_a_mixed_monomial():
    x = Sym2Vector.from_map(
        AMBIENT, {(0, 0): Fraction(1), (0, 1): Fraction(2), (6, 6): Fraction(1, 2)}
    )
    y = Sym2Vector.from_map(
        AMBIENT, {(0, 0): Fraction(3), (0, 1): Fraction(1), (2, 2): Fraction(-1)}
    )
    # traces (2 - 4) * (6 - 2) = -8, shared y1^2: 1*3 * 2*2^2 = 24, y1*y2: 2*1 * 2*2 = 8
    assert sym2_pair(x, y) == sym2_pair(y, x) == _ref_sym2_pair(x, y) == 24


def test_pair_checks_vector_length():
    with pytest.raises(ValueError):
        AMBIENT.pair((1, 0), AMBIENT.basis_vector("y1"))


# ---------------------------------------------------------------------------
# integer products and sums against the Fraction loops they replaced


def _ref_sym2_product(space, u, v):
    out = {}
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if ui and vj:
                key = (i, j) if i <= j else (j, i)
                out[key] = out.get(key, Fraction(0)) + Fraction(ui) * Fraction(vj)
    return Sym2Vector.from_map(space, out)


def _ref_sym2_sum(terms):
    """The {key: Fraction} coefficients of the sum."""
    out = {}
    for c, x in terms:
        for k, xc in x.coeffs:
            out[k] = out.get(k, Fraction(0)) + Fraction(c) * xc
    return out


# zeros as the shared ZERO, as other zero objects and as ints; non-integers
cells = st.one_of(st.just(ZERO), st.just(0), st.builds(Fraction, st.just(0)), coefficient)


@given(spaces, st.data())
def test_integer_sym2_product_matches_the_fraction_loop(space, data):
    u = data.draw(st.lists(cells, min_size=space.dim, max_size=space.dim))
    v = data.draw(st.lists(cells, min_size=space.dim, max_size=space.dim))
    got = sym2_product(space, u, v)
    assert got == _ref_sym2_product(space, u, v)
    assert all(c for _, c in got.coeffs)


@settings(max_examples=40)
@given(spaces, st.data())
def test_sym2_sum_matches_the_fraction_accumulation(space, data):
    terms = data.draw(
        st.lists(st.tuples(st.one_of(cells, st.integers(-3, 3)), sym2_vectors(space)), max_size=5)
    )
    got = sym2_sum(space, terms)
    assert got == Sym2Vector.from_map(space, _ref_sym2_sum(terms))
    _assert_normal_form(got, _ref_sym2_sum(terms))
    x = data.draw(sym2_vectors(space))
    y = data.draw(sym2_vectors(space))
    c = data.draw(cells)
    for pair in ([(1, x), (1, y)], [(1, x), (-1, y)], [(c, x)]):
        got = sym2_sum(space, pair)
        assert got == Sym2Vector.from_map(space, _ref_sym2_sum(pair))
        _assert_normal_form(got, _ref_sym2_sum(pair))
    assert sym2_sum(space, [(1, x), (-1, x)]).coeffs == ()


def test_sym2_sum_rejects_a_class_of_another_space():
    x = sym2_product(AMBIENT, AMBIENT.basis_vector("y1"), AMBIENT.basis_vector("y1"))
    other = QuadSpace(("a",), (1,), "other")
    y = sym2_product(other, other.basis_vector("a"), other.basis_vector("a"))
    with pytest.raises(ValueError, match="different spaces"):
        sym2_sum(AMBIENT, [(1, x), (1, y)])
    with pytest.raises(ValueError, match="different spaces"):
        sym2_sum(AMBIENT, [(1, y)])


def test_sym2_pair_rejects_a_class_of_another_space():
    x = sym2_product(AMBIENT, AMBIENT.basis_vector("y1"), AMBIENT.basis_vector("y1"))
    twin = QuadSpace(AMBIENT.labels, AMBIENT.squares, "twin")
    y = sym2_product(twin, twin.basis_vector("y1"), twin.basis_vector("y1"))
    with pytest.raises(ValueError, match="^cannot pair Sym2 vectors from different spaces$"):
        sym2_pair(x, y)
