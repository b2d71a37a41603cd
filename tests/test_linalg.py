import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kum3check import linalg
from kum3check.linalg import (
    ZERO,
    Matrix,
    combine,
    integer_cells,
    kernel_basis,
    rank,
    rat,
    solve_linear,
)
from kum3check.report import render_value


def test_rat_accepts_ints_and_fractions_only():
    assert rat(7) == Fraction(7)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        rat("3/4")


def test_str_round_trips_the_wire_format():
    for text in ("0", "5", "-5", "3/4", "-22016/121"):
        assert str(Fraction(text)) == text


def test_matrix_shape_and_immutability():
    m = Matrix([[1, 2], [3, 4], [5, 6]])
    assert (m.rows, m.cols) == (3, 2)
    assert m.entries[1] == (Fraction(3), Fraction(4))
    with pytest.raises(AttributeError):
        m.rows = 5
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([[1, 2]], 3)
    with pytest.raises(ValueError):
        Matrix([{0: 1}])
    with pytest.raises(ValueError):
        Matrix([{2: 1}], 2)
    with pytest.raises(ValueError):
        Matrix([{-1: 0}], 2)


def _transpose(m):
    return Matrix(zip(*m.entries)) if m.rows else Matrix([])


def test_transpose_and_mat_vec():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert _transpose(m) == Matrix([[1, 4], [2, 5], [3, 6]])
    assert m.mat_vec([1, 0, -1]) == (Fraction(-2), Fraction(-2))
    with pytest.raises(ValueError):
        m.mat_vec([1, 2])


def test_entries_render_in_the_wire_format():
    # A matrix goes on the wire as its entries, row by row, each cell in the
    # wire format of a single value.
    m = Matrix([[Fraction(1, 2), 3]])
    assert [[render_value(x) for x in row] for row in m.entries] == [["1/2", "3"]]
    assert render_value(m) == "[[1/2, 3]]"


def test_solve_restriction_system_exactly():
    a = Matrix([
        [350, -13600, -12000],
        [420, -8640, -22080],
        [252, -7616, -6720],
    ])
    b = (70, 180, 84)
    solution = solve_linear(a, b)
    assert solution == (Fraction(4, 5), Fraction(9, 640), Fraction(1, 640))
    assert a.mat_vec(solution) == tuple(b)


def test_solve_gram_head_system_exactly():
    a = Matrix([[575, -50, -800], [-50, 12, 64], [-800, 64, 1152]])
    b = (30, -4, -32)
    assert a.mat_vec(solve_linear(a, b)) == tuple(b)
    assert rank(a) == 3


def test_solve_reports_inconsistent_and_underdetermined():
    with pytest.raises(ValueError, match=r"^inconsistent system: row 1 reduces to 0 = 1$"):
        solve_linear(Matrix([[1, 1], [1, 1]]), (0, 1))
    with pytest.raises(ValueError, match=r"^underdetermined system: free columns \[1\]$"):
        solve_linear(Matrix([[1, 1], [2, 2]]), (3, 6))
    # fewer rows than columns leaves a free column, found by the same pivot count
    with pytest.raises(ValueError, match=r"^underdetermined system: free columns \[1\]$"):
        solve_linear(Matrix([[1, 1]]), (2,))
    with pytest.raises(ValueError, match="^right-hand side length does not match row count$"):
        solve_linear(Matrix([[1, 0], [0, 1]]), (1,))


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
    try:
        solution = solve_linear(a, b)
    except ValueError as error:
        assert str(error).startswith(("inconsistent system: ", "underdetermined system: "))
    else:
        assert a.mat_vec(solution) == tuple(b)


@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_rank_bounded_and_transpose_invariant(row_count, width, data):
    row = st.lists(small_fractions, min_size=width, max_size=width)
    m = Matrix(data.draw(st.lists(row, min_size=row_count, max_size=row_count)))
    r = rank(m)
    assert 0 <= r <= min(m.rows, m.cols)
    assert r == rank(_transpose(m))


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


def _reversed_keys(entries, width):
    """The matrix of ``entries`` given as ``{column: value}`` rows, zeros
    included, whose keys run from the last column to the first."""
    return Matrix([dict(reversed(list(enumerate(row)))) for row in entries], width)


def _dense(row, width):
    """The cells of a sparse {column: value} row."""
    cells = [0] * width
    for j, a in row.items():
        cells[j] = a
    return cells


def _ref_reduce_content(row):
    g = gcd(*row) if row else 0
    return [a // g for a in row] if g > 1 else row


def _ref_forward_echelon(rows, cols):
    """The dense column sweep.  The pivot of column c is the first row, not
    yet a pivot, with a nonzero cell in c, and no row moves.  Returns the
    pivot rows in column order, then the other rows, and the pivot columns."""
    pivot_rows, pivots = [], []
    for c in range(cols):
        sel = next((i for i, row in enumerate(rows) if row[c] and i not in pivot_rows), None)
        if sel is None:
            continue
        piv_row = rows[sel]
        p = piv_row[c]
        for i in range(sel + 1, len(rows)):
            m = rows[i][c]
            if m and i not in pivot_rows:
                rows[i] = _ref_reduce_content([p * a - m * b for a, b in zip(rows[i], piv_row)])
        pivot_rows.append(sel)
        pivots.append(c)
    rest = [i for i in range(len(rows)) if i not in pivot_rows]
    return [rows[i] for i in pivot_rows + rest], pivots


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


def _shares_cells(cells):
    """Every zero cell is the shared ``ZERO`` and equal cells are one object."""
    first = {}
    return all(x is ZERO for x in cells if not x) and all(
        first.setdefault(x, x) is x for x in cells
    )


def _solve_against_oracle(entries, b, cols):
    """``solve_linear`` gives the oracle's unique solution, or raises with
    its outcome and detail text; returns the oracle's outcome."""
    status, solution, detail = _ref_solve(entries, b, cols)
    if status == "unique":
        got = solve_linear(Matrix(entries), b)
        assert got == solution
        assert _shares_cells(got)
    else:
        with pytest.raises(ValueError, match=f"^{status} system: {re.escape(detail)}$"):
            solve_linear(Matrix(entries), b)
    return status


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
    assert all(_shares_cells(v) for v in kernel_basis(mat))


@given(matrices(max_cols=4, min_rows=4), st.data())
def test_solve_linear_matches_fraction_formula(matrix, data):
    entries, m = matrix
    b = data.draw(st.lists(rationals, min_size=len(entries), max_size=len(entries)))
    _solve_against_oracle(entries, b, m)


# Systems whose echelon rows (of the augmented matrix) each carry a nonzero
# cell in the last column right of the pivot; each comes with a copy whose
# rows are reversed, so that rows reach their pivot columns out of order and
# the echelon is sorted by column after the pass.
TAIL_SYSTEMS = [
    ([[2, 1, 3], [0, 5, 7], [0, 0, 4]], [1, 2, 3]),
    ([[1, 2, 3], [2, 1, 1], [3, 1, 2], [6, 4, 6]], [5, 3, 6, 14]),
    (
        [[Fraction(1, 2), 0, Fraction(-3, 4)], [0, Fraction(2, 3), Fraction(5, 6)], [0, 0, Fraction(7, 5)]],
        [Fraction(1, 3), -2, 1],
    ),
]


@pytest.mark.parametrize("reversed_rows", [False, True])
@pytest.mark.parametrize("entries, b", TAIL_SYSTEMS)
def test_solve_linear_reads_the_last_cell_of_every_echelon_row(entries, b, reversed_rows):
    if reversed_rows:
        entries, b = entries[::-1], b[::-1]
    entries = [[Fraction(x) for x in row] for row in entries]
    b = [Fraction(x) for x in b]
    cols = len(entries[0])
    echelon = Matrix([row + [v] for row, v in zip(entries, b)])._echelon_form()
    assert all(max(row) == cols and len(row) > 1 for row in echelon.values())
    assert _solve_against_oracle(entries, b, cols) == "unique"


def test_solve_linear_augments_rows_in_any_key_order(monkeypatch):
    # the elimination reads a row's least column as its least key, so rows
    # stored last column first solve as the rows given in column order do
    seen = []
    forward = linalg._forward_echelon

    def recording(rows):
        rows = list(rows)
        seen.extend(rows)
        return forward(rows)

    monkeypatch.setattr(linalg, "_forward_echelon", recording)
    for entries, b in TAIL_SYSTEMS:
        cols = len(entries[0])
        mapped = Matrix([dict(reversed(list(enumerate(row)))) for row in entries], cols)
        assert solve_linear(mapped, b) == solve_linear(Matrix(entries), b)
    assert len(seen) == 2 * sum(len(entries) for entries, _ in TAIL_SYSTEMS)
    assert any(list(row) != sorted(row) for row in seen)


def _banded(rng, n, width):
    """A diagonally dominant n x n matrix with nonzero cells only where |i-j| <= width."""
    return [
        [
            Fraction(rng.randint(20, 30), rng.randint(1, 3)) if i == j
            else Fraction(rng.randint(-2, 2), rng.randint(1, 4)) if abs(i - j) <= width
            else Fraction(0)
            for j in range(n)
        ]
        for i in range(n)
    ]


def test_sparse_back_substitution_matches_fraction_formulas_on_banded_matrices():
    rng = random.Random(20261018)
    for _ in range(3):
        entries = _banded(rng, 30, 2)
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(30)]
        assert _solve_against_oracle(entries, b, 30) == "unique"
        for i in rng.sample(range(30), 3):
            entries[i] = [Fraction(0)] * 30
        mat = Matrix(entries)
        got = (rank(mat), kernel_basis(mat))
        assert got == _ref_rank_and_kernel(entries, 30)
        echelon = mat._echelon_form()
        ech, ref_pivots = _ref_forward_echelon(_ref_integer_rows(entries), 30)
        assert (list(echelon), [_dense(row, 30) for row in echelon.values()]) == (
            ref_pivots, ech[:27]
        )
        assert len(got[1]) == 3
        for v in got[1]:
            assert mat.mat_vec(v) == (Fraction(0),) * 30
    # Kernel vectors and solutions whose start reaches the rows above it only
    # through pivots solved before them, and a start that meets two rows at
    # once, so that the lower one must be solved first.
    chains = [
        ([[2, 3, 0, 0], [0, 5, 7, 0], [0, 0, 3, 4]], [0, 0, 1]),
        ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], [0, 0, 2]),
        ([[1, 1, 1], [0, 1, 1], [0, 0, 1]], [1, 1, 0]),
    ]
    for rows, b in chains:
        entries, width = _fixed(rows)
        mat = Matrix(entries)
        assert (rank(mat), kernel_basis(mat)) == _ref_rank_and_kernel(entries, width)
        assert all(x for v in kernel_basis(mat) for x in v)
        square = [row[:3] for row in entries]
        assert _solve_against_oracle(square, [Fraction(x) for x in b], 3) == "unique"
    # a row reached through a solved pivot whose tail still sums to 0
    assert kernel_basis(Matrix([[1, 1, 1], [0, 1, 1]])) == [(0, -1, 1)]


def test_matrix_coerces_only_rows_that_need_it():
    m = Matrix(
        [[Fraction(1, 2), Fraction(3)], [1, Fraction(3, 4)], (x for x in (True, Fraction(-1, 3)))]
    )
    assert m.entries == (
        (Fraction(1, 2), Fraction(3)),
        (Fraction(1), Fraction(3, 4)),
        (Fraction(1), Fraction(-1, 3)),
    )
    assert all(type(x) is Fraction for row in m.entries for x in row)
    with pytest.raises(TypeError):
        Matrix([[Fraction(1), 0.5]])
    with pytest.raises(TypeError):
        Matrix([[Fraction(1)], [None]])
    with pytest.raises(TypeError):
        Matrix([[Fraction(1), "3/4"]])


def test_empty_shapes():
    empty = Matrix([])
    assert (rank(empty), kernel_basis(empty), empty.mat_vec([])) == (0, [], ())
    assert solve_linear(empty, []) == ()
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
    assert (rank(memo), kernel_basis(memo)) == first


def test_memoised_matrix_equals_a_fresh_one():
    memo = Matrix(_sample())
    kernel_basis(memo)
    memo.mat_vec([1, 1, 1])
    fresh = Matrix(_sample())
    assert memo == fresh
    mapped = Matrix([dict(reversed(list(enumerate(row)))) for row in _sample()], 3)
    assert memo == mapped
    assert mapped._scaled == memo._scaled
    with pytest.raises(AttributeError):
        memo._echelon = None
    with pytest.raises(AttributeError):
        memo.entries = ()


def test_equality_reads_the_width_and_the_stored_rows():
    # equal across cell types and row forms
    assert Matrix([[1, 0]]) == Matrix([{0: Fraction(1)}], 2)
    assert Matrix([[Fraction(2, 4), 0, 3]]) == Matrix([{2: 3, 0: Fraction(1, 2), 1: 0}], 3)
    assert Matrix([[0, 0]]) == Matrix([{}], 2)
    # zero rows store no cells, so the width tells them apart
    assert Matrix([[0]]) != Matrix([[0, 0]])
    assert Matrix([{}], 1) != Matrix([{}], 2)
    # another row count, another cell, another matrix
    assert Matrix([[1, 0]]) != Matrix([[1, 0], [0, 0]])
    assert Matrix([[1, 0]]) != Matrix([[1, 1]])
    assert Matrix([[1, 0]]) != Matrix([[Fraction(1, 2), 0]])
    assert Matrix([[1, 0]]) != ((Fraction(1), ZERO),)


def test_pairings_are_the_bilinear_form():
    m = Matrix([[Fraction(1, 2), 3], [3, Fraction(-2, 5)]])
    u, v = (Fraction(2, 3), -1), (5, Fraction(1, 4))
    want = sum(u[i] * m.entries[i][j] * v[j] for i in range(2) for j in range(2))
    assert m.pairings([u], [v]) == ((want,),)
    assert Matrix([[1, 2, 3]]).pairings([(2,)], [(1, 0, -1)]) == ((-4,),)
    with pytest.raises(ValueError):
        m.pairings([(1,)], [(1, 2)])
    with pytest.raises(ValueError):
        m.pairings([(1, 2)], [(1,)])
    with pytest.raises(ValueError):
        combine([(1, (1, 2)), (1, (1,))])


def _ref_combine(terms):
    if not terms:
        return ()
    return tuple(
        sum((c * v[j] for c, v in terms), Fraction(0)) for j in range(len(terms[0][1]))
    )


def _ref_pairings(entries, us, vs):
    return tuple(
        tuple(
            sum(
                (u[i] * row[j] * v[j] for i, row in enumerate(entries) for j in range(len(v))),
                Fraction(0),
            )
            for v in vs
        )
        for u in us
    )


@st.composite
def vector_families(draw):
    """A matrix, families of left and right vectors for it, and one
    coefficient per right vector."""
    entries, m = draw(matrices(max_rows=5, max_cols=5))
    us = draw(st.lists(st.lists(rationals, min_size=len(entries), max_size=len(entries)), max_size=3))
    vs = draw(st.lists(st.lists(rationals, min_size=m, max_size=m), max_size=4))
    coeffs = draw(st.lists(rationals, min_size=len(vs), max_size=len(vs)))
    return entries, m, us, vs, coeffs


_h, _t, _z = Fraction(1, 2), Fraction(-2, 3), Fraction(0)


@given(vector_families())
@example(([[_z, _z], [_z, _z]], 2, [[_z, _z], [1, _z]], [[_z, _z], [_h, _z]], [_z, _h]))
@example(([[_h, _t], [Fraction(5, 6), 3]], 2, [[_t, _h]], [[_h, _t], [_t, Fraction(7, 4)]], [_h, _t]))
@example(([[1, -1], [-1, 1]], 2, [[1, 1]], [[1, -1], [1, -1], [_t, _h]], [-1, 1, Fraction(-3)]))
@example(([[1, 2]], 2, [], [], []))
def test_combine_and_pairings_match_fraction_formulas(family):
    entries, m, us, vs, coeffs = family
    terms = list(zip(coeffs, vs))
    combined = combine(terms)
    assert combined == _ref_combine(terms)
    paired = Matrix(entries, m).pairings(us, vs)
    assert paired == _ref_pairings(entries, us, vs)
    # every zero result is the shared ZERO, and equal results are one object
    assert all(x is ZERO for x in (*combined, *(x for row in paired for x in row)) if not x)
    assert _shares_cells(combined) and _shares_cells([x for row in paired for x in row])


# ---------------------------------------------------------------------------
# zero-skipping integer forms against the formulas that scaled every cell


def _ref_scaled_integers(values):
    dens = [x.denominator for x in values]
    scale = lcm(*dens)
    return scale, [x.numerator * (scale // d) for x, d in zip(values, dens)]


# zeros both as the shared ZERO and as other Fraction(0) objects
cells = st.one_of(st.just(ZERO), st.builds(Fraction, st.just(0)), rationals)


@given(st.lists(cells, max_size=12))
def test_integer_cells_skip_zeros_but_match_the_reference_scaling(values):
    index = [j for j, x in enumerate(values) if x != 0]
    scale, ints = _ref_scaled_integers([values[j] for j in index])
    want = (scale, dict(zip(index, ints)))
    assert integer_cells(values) == want
    # the same cells as ints where they are integers
    as_ints = [int(x) if x.denominator == 1 else x for x in values]
    assert integer_cells(as_ints) == want
    # the same cells as mappings keyed by monomials, after an int 0, a
    # Fraction(0) and ZERO, which are all dropped; the keys keep their order
    keys = [(j, j + 1) for j in range(len(values))]
    zeros = {(-1, 0): 0, (-2, 0): Fraction(0), (-3, 0): ZERO}
    for row in (values, as_ints):
        got = integer_cells(zeros | dict(zip(keys, row)))
        assert got == (scale, {keys[j]: a for j, a in want[1].items()})
        assert list(got[1]) == [keys[j] for j in index]


@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_integer_form_skips_zeros_but_matches_the_reference_scaling(n, m, data):
    m = m if n else 0
    entries = [data.draw(st.lists(cells, min_size=m, max_size=m)) for _ in range(n)]
    mat = Matrix(entries)
    dens, sparse = mat._scaled
    rows = [_dense(row, m) for row in sparse]
    assert rows == _ref_integer_rows(entries)
    assert list(dens) == [_ref_scaled_integers(row)[0] for row in entries]
    assert list(sparse) == [{j: a for j, a in enumerate(row) if a} for row in rows]
    v = data.draw(st.lists(cells, min_size=m, max_size=m))
    product = mat.mat_vec(v)
    assert product == _ref_mat_vec(entries, v)
    assert all(x is ZERO for x in product if x == 0)
    # equal cells of the product are one object, whatever the row denominators
    assert _shares_cells(product)
    # the solutions and the kernel of the same matrix share their cells too
    assert all(_shares_cells(x) for x in kernel_basis(mat))
    if n == m and rank(mat) == m:
        assert _shares_cells(solve_linear(mat, v))
    # the same cells as {column: value} rows, zeros included, last column
    # first; a stored row keeps that key order, and equality ignores it
    mapped = _reversed_keys(entries, m)
    assert mapped._scaled == mat._scaled
    assert mapped == mat
    assert mapped.entries == tuple(map(tuple, entries))
    assert all(x is ZERO for row in mapped.entries for x in row if x == 0)
    assert all(_shares_cells(row) for row in mapped.entries)
    assert (rank(mapped), kernel_basis(mapped)) == (rank(mat), kernel_basis(mat))
    if n == m and rank(mat) == m:
        assert solve_linear(mapped, v) == solve_linear(mat, v)
    mapped_product = mapped.mat_vec(v)
    assert mapped_product == product
    assert all(x is ZERO for x in mapped_product if x == 0)


# ---------------------------------------------------------------------------
# the sparse elimination against a dense integer column sweep with the same
# pivot rule: the pivot of each column is the first row, not yet a pivot,
# with a nonzero cell there, and no row moves


def _fixed(rows):
    """A fixed (entries, width) input in the form ``matrices()`` draws."""
    return [[Fraction(x) for x in row] for row in rows], len(rows[0])


@given(matrices(max_rows=7, max_cols=7))
# pivot rows with content 2 and 4, each update with a == 1 done in place
@example(_fixed([[2, 4, 6, 0], [0, 4, 8, 12], [3, 1, 0, 2], [1, 0, 5, 1]]))
# updates with a != 1 under negative pivots (a = -3 twice, then a = -17)
@example(_fixed([[-3, 1, 2], [2, 5, 1], [4, -1, 7]]))
# a != 1 where g0 = gcd(p/k, m) > 1: pivot 6 (content 1) against m = 4
@example(_fixed([[6, 1, 5], [4, 3, 0], [-9, 2, 2]]))
# updated rows whose new first column is c + 1 and one whose is past it
@example(_fixed([[1, 1, 1, 0], [1, 1, 0, 1], [1, 2, 0, 0]]))
def test_sparse_echelon_matches_the_dense_elimination(matrix):
    entries, m = matrix
    ech, ref_pivots = _ref_forward_echelon(_ref_integer_rows(entries), m)
    # rows in column order, and the same rows stored last column first
    for mat in (Matrix(entries), _reversed_keys(entries, m)):
        echelon = mat._echelon_form()
        assert list(echelon) == ref_pivots
        assert [_dense(row, m) for row in echelon.values()] == ech[: len(echelon)]
        assert all(not any(row) for row in ech[len(echelon) :])
        # the pivot is the row's least column: no cell lies left of it
        assert all(row and min(row) == c for c, row in echelon.items())
        assert all(all(row.values()) for row in echelon.values())
