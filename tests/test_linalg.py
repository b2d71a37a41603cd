import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kum3check.linalg import (
    Matrix,
    format_rational,
    kernel_basis,
    rank,
    rat,
    rref,
    solve_linear,
    vector,
)


def test_rat_accepts_wire_format():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-5") == Fraction(-5)
    assert rat(7) == Fraction(7)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


def test_format_rational_round_trips():
    for text in ("0", "5", "-5", "3/4", "-22016/121"):
        assert format_rational(rat(text)) == text


def test_matrix_shape_and_immutability():
    m = Matrix([[1, 2], [3, 4], [5, 6]])
    assert (m.rows, m.cols) == (3, 2)
    assert m[1] == (Fraction(3), Fraction(4))
    with pytest.raises(AttributeError):
        m.rows = 5
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_transpose_and_mat_vec():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert m.transpose() == Matrix([[1, 4], [2, 5], [3, 6]])
    assert m.mat_vec([1, 0, -1]) == (Fraction(-2), Fraction(-2))
    with pytest.raises(ValueError):
        m.mat_vec([1, 2])


def test_to_lists_renders_wire_format():
    m = Matrix([[Fraction(1, 2), 3]])
    assert m.to_lists() == [["1/2", "3"]]


def test_solve_restriction_system_exactly():
    a = Matrix([
        [350, -13600, -12000],
        [420, -8640, -22080],
        [252, -7616, -6720],
    ])
    b = (70, 180, 84)
    result = solve_linear(a, b)
    assert result.ok
    assert result.solution == (Fraction(4, 5), Fraction(9, 640), Fraction(1, 640))
    assert a.mat_vec(result.solution) == vector(b)


def test_solve_gram_head_system_exactly():
    a = Matrix([[575, -50, -800], [-50, 12, 64], [-800, 64, 1152]])
    b = (30, -4, -32)
    result = solve_linear(a, b)
    assert result.ok
    assert a.mat_vec(result.solution) == vector(b)
    assert rank(a) == 3


def test_solve_reports_inconsistent_and_underdetermined():
    inconsistent = solve_linear(Matrix([[1, 1], [1, 1]]), (0, 1))
    assert inconsistent.status == "inconsistent" and not inconsistent.ok
    underdetermined = solve_linear(Matrix([[1, 1], [2, 2]]), (3, 6))
    assert underdetermined.status == "underdetermined" and not underdetermined.ok
    with pytest.raises(ValueError):
        solve_linear(Matrix([[1, 1]]), (2,))


def _naive_rank(entries):
    """Textbook fraction elimination, independent of the package routine."""
    rows = [[Fraction(x) for x in row] for row in entries]
    if not rows:
        return 0
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


def test_rank_nullity_on_random_matrices():
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
        assert r == _naive_rank(entries)
        kernel = kernel_basis(mat)
        assert r + len(kernel) == m
        for v in kernel:
            assert mat.mat_vec(v) == tuple([Fraction(0)] * n)


def test_rref_pivots_match_rank():
    m = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    reduced, pivots = rref(m)
    assert len(pivots) == rank(m) == 2
    for k, c in enumerate(pivots):
        assert reduced[k][c] == 1


small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@given(
    st.lists(
        st.lists(small_fractions, min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.lists(small_fractions, min_size=3, max_size=3),
)
def test_solutions_satisfy_their_systems(entries, b):
    a = Matrix(entries)
    result = solve_linear(a, b)
    if result.ok:
        assert a.mat_vec(result.solution) == vector(b)


@given(
    st.lists(
        st.lists(small_fractions, min_size=2, max_size=5),
        min_size=2,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_bounded_and_transpose_invariant(entries):
    m = Matrix(entries)
    r = rank(m)
    assert 0 <= r <= min(m.rows, m.cols)
    assert r == rank(m.transpose())


# ---------------------------------------------------------------------------
# Fraction reference formulas.  The package kernels run on integers; these
# are the rational-arithmetic versions they replaced, kept as oracles.


def _ref_mat_vec(entries, v):
    return tuple(
        sum((a * b for a, b in zip(row, v) if a and b), Fraction(0)) for row in entries
    )


def _ref_integer_rows(entries):
    out = []
    for row in entries:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append([int(x.numerator * (den // x.denominator)) for x in row])
    return out


def _ref_reduce_content(row):
    g = gcd(*row) if row else 0
    return [a // g for a in row] if g > 1 else row


def _ref_forward_echelon(rows, cols):
    pivots = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv_row = rows[r]
        p = piv_row[c]
        for i in range(r + 1, len(rows)):
            m = rows[i][c]
            if m:
                rows[i] = _ref_reduce_content([p * a - m * b for a, b in zip(rows[i], piv_row)])
        pivots.append(c)
        r += 1
    return rows, pivots


def _ref_back_substitute(ech, pivots, x, width):
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        acc = Fraction(0)
        for j in range(c + 1, width):
            if ech[i][j] and x[j]:
                acc += ech[i][j] * x[j]
        x[c] = -acc / ech[i][c]
    return x


def _ref_rank_and_kernel(entries, cols):
    ech, pivots = _ref_forward_echelon(_ref_integer_rows(entries), cols)
    kernel = []
    for f in range(cols):
        if f not in pivots:
            x = [Fraction(0)] * cols
            x[f] = Fraction(1)
            kernel.append(tuple(_ref_back_substitute(ech, pivots, x, cols)))
    return len(pivots), kernel


def _ref_solve(entries, b, cols):
    width = cols + 1
    aug = [list(row) + [v] for row, v in zip(entries, b)]
    ech, pivots = _ref_forward_echelon(_ref_integer_rows(aug), width)
    if pivots and pivots[-1] == cols:
        i = len(pivots) - 1
        return "inconsistent", None, f"row {i} reduces to 0 = {Fraction(ech[i][cols])}"
    if len(pivots) < cols:
        return "underdetermined", None, f"free columns {[c for c in range(cols) if c not in pivots]}"
    x = [Fraction(0)] * width
    x[cols] = Fraction(-1)
    return "unique", tuple(_ref_back_substitute(ech, pivots, x, width)[:cols]), ""


rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=6, min_rows=0):
    """Rational matrices, including 0x0, empty rows and all-zero rows."""
    n = draw(st.integers(min_rows, max_rows))
    m = draw(st.integers(0, max_cols)) if n else 0
    rows = [draw(st.lists(rationals, min_size=m, max_size=m)) for _ in range(n)]
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2)):
        if n:
            rows[i] = [Fraction(0)] * m
    return rows, m


@given(matrices(), st.data())
def test_mat_vec_matches_fraction_formula(matrix, data):
    entries, m = matrix
    v = data.draw(st.lists(rationals, min_size=m, max_size=m))
    assert Matrix(entries).mat_vec(v) == _ref_mat_vec(entries, v)


@given(matrices())
def test_rank_and_kernel_match_fraction_formulas(matrix):
    entries, m = matrix
    mat = Matrix(entries)
    assert (rank(mat), kernel_basis(mat)) == _ref_rank_and_kernel(entries, m)
    assert rank(mat) == _naive_rank(entries)


@given(matrices(max_cols=4, min_rows=4), st.data())
def test_solve_linear_matches_fraction_formula(matrix, data):
    entries, m = matrix
    b = data.draw(st.lists(rationals, min_size=len(entries), max_size=len(entries)))
    result = solve_linear(Matrix(entries), b)
    assert (result.status, result.solution, result.detail) == _ref_solve(entries, b, m)


def test_empty_shapes():
    empty = Matrix([])
    assert (rank(empty), kernel_basis(empty), empty.mat_vec([])) == (0, [], ())
    assert solve_linear(empty, []).solution == ()
    no_cols = Matrix([[], []])
    assert (no_cols.rows, no_cols.cols) == (2, 0)
    assert no_cols.mat_vec([]) == (Fraction(0), Fraction(0))
    assert rank(no_cols) == 0 and kernel_basis(no_cols) == []


# ---------------------------------------------------------------------------
# the memoised echelon


def _sample():
    return [[Fraction(1, 2), 1, Fraction(-2, 3)], [1, 2, Fraction(-4, 3)], [0, Fraction(5, 7), 1]]


def test_memoised_echelon_matches_a_fresh_matrix():
    memo = Matrix(_sample())
    first = (rank(memo), kernel_basis(memo))
    assert first == (2, kernel_basis(Matrix(_sample())))
    assert rank(Matrix(_sample())) == 2
    assert kernel_basis(memo) == first[1]
    reduced, pivots = rref(memo)
    assert (reduced, pivots) == rref(Matrix(_sample()))
    assert (rank(memo), kernel_basis(memo)) == first


def test_memoised_matrix_equals_and_hashes_like_a_fresh_one():
    memo = Matrix(_sample())
    kernel_basis(memo)
    memo.mat_vec([1, 1, 1])
    fresh = Matrix(_sample())
    assert memo == fresh and hash(memo) == hash(fresh)
    with pytest.raises(AttributeError):
        memo._echelon = None
    with pytest.raises(AttributeError):
        memo.entries = ()


def test_pair_is_the_bilinear_form():
    m = Matrix([[Fraction(1, 2), 3], [3, Fraction(-2, 5)]])
    u, v = (Fraction(2, 3), -1), (5, Fraction(1, 4))
    want = sum(u[i] * m[i][j] * v[j] for i in range(2) for j in range(2))
    assert m.pair(u, v) == want
    assert Matrix([[1, 2, 3]]).pair((2,), (1, 0, -1)) == -4
    with pytest.raises(ValueError):
        m.pair((1,), (1, 2))
