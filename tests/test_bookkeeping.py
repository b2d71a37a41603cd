from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kum3check.bookkeeping import (
    HodgeDiamond,
    blowup_comparison,
    build_rank_table,
    diamond_from_half,
    invariant_weight4,
    invariant_weight6,
    rank_table_matches_diamond,
    rep_dims,
    row_diff,
    row_product,
    row_sum,
    shift_row,
    sym2_row,
    trace_averages,
    weight4_kuenneth_total,
)
from kum3check.config import ABELIAN_HODGE_PAIRS, SIXFOLD_HODGE_PAIRS

SIXFOLD_HALF = {
    (0, 0): 1,
    (1, 0): 0,
    (2, 0): 1,
    (1, 1): 5,
    (3, 0): 0,
    (2, 1): 4,
    (4, 0): 1,
    (3, 1): 6,
    (2, 2): 37,
    (5, 0): 0,
    (4, 1): 2,
    (3, 2): 26,
    (6, 0): 1,
    (5, 1): 4,
    (4, 2): 24,
    (3, 3): 400,
}
ABELIAN_HALF = {(0, 0): 1, (1, 0): 2, (2, 0): 1, (1, 1): 4}


@pytest.fixture(scope="module")
def sixfold():
    return diamond_from_half(SIXFOLD_HALF, 6)


@pytest.fixture(scope="module")
def abelian():
    return diamond_from_half(ABELIAN_HALF, 2)


def test_sixfold_betti_numbers(sixfold):
    assert sixfold.bettis == (1, 0, 7, 8, 51, 56, 458, 56, 51, 8, 7, 0, 1)
    assert sixfold.euler == 448
    assert sixfold.even_total == 576
    assert sixfold.odd_total == 128
    assert sixfold.total == 704
    assert len(sixfold.rows) == 2 * 6 + 1
    assert sixfold.h(3, 1) == 6
    assert sixfold.row(2) == (1, 5, 1)
    assert sixfold.row(3) == (0, 4, 4, 0)


def test_abelian_betti_numbers(abelian):
    assert abelian.bettis == (1, 4, 6, 4, 1)
    assert abelian.euler == 0
    assert abelian.row(1) == (2, 2)
    assert abelian.row(2) == (1, 4, 1)


HALVES = ((SIXFOLD_HODGE_PAIRS, 6), (ABELIAN_HODGE_PAIRS, 2))


def _images(p, q, dim):
    """The orbit of (p, q) under conjugation and duality."""
    return {(p, q), (q, p), (dim - p, dim - q), (dim - q, dim - p)}


def test_config_hodge_pairs_share_no_image():
    # the configured pairs lie in the generating half, and no two of them
    # fill a common cell, so no cell can take two values
    for pairs, dim in HALVES:
        assert all(p >= q and p + q <= dim for p, q in pairs)
        orbits = [_images(p, q, dim) for p, q in pairs]
        assert sum(map(len, orbits)) == len(set().union(*orbits)), dim


def test_diamond_from_half_requires_full_cover():
    for pairs, dim in HALVES:
        cells = set().union(*(_images(p, q, dim) for p, q in pairs))
        assert cells == {(p, q) for p in range(dim + 1) for q in range(dim + 1)}, dim


@given(st.data())
def test_diamond_validation(data):
    # drawn nonnegative halves give symmetric, self-dual rows inside the
    # dimension; a negative value is the one thing the diamond rejects
    for pairs, dim in HALVES:
        half = {pair: data.draw(st.integers(0, 500)) for pair in pairs}
        rows = diamond_from_half(half, dim).rows
        assert [len(row) for row in rows] == list(range(1, 2 * dim + 2))
        for w, row in enumerate(rows):
            assert row == row[::-1]
            for q, value in enumerate(row):
                if w - q > dim or q > dim:
                    assert value == 0
                else:
                    assert rows[2 * dim - w][dim - q] == value
        half[data.draw(st.sampled_from(pairs))] = data.draw(st.integers(-500, -1))
        with pytest.raises(ValueError, match="^Hodge numbers are nonnegative$"):
            diamond_from_half(half, dim)
    with pytest.raises(ValueError, match="^Hodge numbers are nonnegative$"):
        HodgeDiamond(rows=((1,), (-1, -1), (0, 1, 0)))


def test_row_operations():
    assert row_product((2, 2), (0, 4, 4, 0)) == (0, 8, 16, 8, 0)
    assert row_product((1, 4, 1), (1, 5, 1)) == (1, 9, 22, 9, 1)
    assert row_sum((1, 2), (3, 4)) == (4, 6)
    assert row_diff((3, 4), (1, 2)) == (2, 2)
    with pytest.raises(ValueError):
        row_sum((1,), (1, 2))
    with pytest.raises(ValueError):
        row_diff((1, 0), (0, 1))
    assert sym2_row((1, 5, 1)) == (1, 5, 16, 5, 1)
    assert sym2_row((3,)) == (6,)
    assert shift_row((1, 5, 1)) == (0, 1, 5, 1, 0)
    assert shift_row(shift_row((1,))) == (0, 0, 1, 0, 0)


rows_st = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5).map(
    tuple
)


@given(rows_st, rows_st)
def test_row_product_is_commutative_and_multiplicative(a, b):
    assert row_product(a, b) == row_product(b, a)
    assert sum(row_product(a, b)) == sum(a) * sum(b)


@given(rows_st)
def test_sym2_row_total_is_binomial(a):
    assert sum(sym2_row(a)) == comb(sum(a) + 1, 2)


def test_invariant_weight4(abelian, sixfold):
    iw4 = invariant_weight4((2, 23, 61, 23, 2), abelian, sixfold)
    assert iw4.translation_fixed == (1, 6, 22, 6, 1)
    assert iw4.fixed_rank == 36
    assert iw4.sym2_part == (1, 5, 16, 5, 1)
    assert iw4.extra_part == (0, 1, 6, 1, 0)
    assert iw4.extra_rank == 8
    assert iw4.extra_matches_twist


def test_weight4_reassembles(abelian, sixfold):
    total = weight4_kuenneth_total((1, 6, 22, 6, 1), abelian, sixfold)
    assert total == (2, 23, 61, 23, 2)


def test_invariant_weight6(abelian, sixfold):
    iw6 = invariant_weight6(592, abelian, sixfold, weight4_fixed_rank=36)
    assert iw6.known_dim == 479
    assert iw6.invariant_dim == 113
    assert iw6.sym3_dim == 84
    assert iw6.wedge2_dim == 21
    assert iw6.square_class_dim == 1
    assert iw6.cube_class_dim == 7
    assert iw6.missing_multiplicity == 0


def test_invariant_weight6_rejects_overflow(abelian, sixfold):
    with pytest.raises(ValueError):
        invariant_weight6(400, abelian, sixfold, weight4_fixed_rank=36)


def test_rank_table(sixfold):
    table = build_rank_table(base_rank=7, spin_rank=240, odd_rank=128)
    names = tuple(line.partition(":")[0] for line in table.trail[:4])
    assert names == ("cubic", "adjoint-plus", "sixteen-copies", "spin")
    assert table.rows[0] == (1, 7, 28, 84, 28, 7, 1)
    assert table.rows[1] == (0, 0, 7, 22, 7, 0, 0)
    assert table.rows[2] == (0, 0, 16, 112, 16, 0, 0)
    assert table.rows[3] == (0, 0, 0, 240, 0, 0, 0)
    assert table.component_totals == (156, 36, 144, 240)
    assert table.degree_totals == (1, 7, 51, 458, 51, 7, 1)
    assert table.even_total == 576
    assert table.even_fixed == 336
    assert table.odd == 128
    assert rank_table_matches_diamond(table, sixfold)


def test_rank_table_mismatch_is_reported(sixfold):
    mismatched = build_rank_table(base_rank=7, spin_rank=241, odd_rank=128)
    assert not rank_table_matches_diamond(mismatched, sixfold)


def test_rep_dims():
    assert rep_dims(7, 2) == (28, 21)
    assert rep_dims(7, 3) == (84, 35)
    with pytest.raises(ValueError):
        rep_dims(-1, 2)


def test_trace_averages():
    traces = trace_averages(
        euler_total=448,
        fourfold_euler=324,
        reflection_extra_points=140,
        translation_surface_count=8,
        surface_euler=24,
        even_fixed_dim=336,
        odd_dim=128,
    )
    assert traces.chi_identity == 448
    assert traces.chi_translation == 192
    assert traces.chi_reflection == 464
    assert traces.trace_identity == 240
    assert traces.trace_translation == -16
    assert traces.trace_reflection == 0
    assert traces.invariant_dim == 0


def test_trace_averages_reject_bad_inputs():
    with pytest.raises(ValueError):
        trace_averages(
            euler_total=449,
            fourfold_euler=324,
            reflection_extra_points=140,
            translation_surface_count=8,
            surface_euler=24,
            even_fixed_dim=336,
            odd_dim=128,
        )
    with pytest.raises(ValueError):
        trace_averages(
            euler_total=416,
            fourfold_euler=324,
            reflection_extra_points=140,
            translation_surface_count=8,
            surface_euler=24,
            even_fixed_dim=336,
            odd_dim=128,
        )


def test_blowup_comparison(sixfold):
    cmp = blowup_comparison(
        sixfold, center_count=16, center_h20=1, target_h31=22, target_h40=1
    )
    assert cmp.h31_blowup == 22
    assert cmp.h40_blowup == 1
    assert cmp.matches


def test_blowup_without_centers(sixfold):
    cmp = blowup_comparison(
        sixfold, center_count=0, center_h20=1, target_h31=6, target_h40=1
    )
    assert cmp.h31_blowup == 6
    assert cmp.matches
