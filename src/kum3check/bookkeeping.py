"""Dimension bookkeeping: Hodge tables, invariant parts, trace averages.

All quantities here are nonnegative integers: Hodge numbers, Betti numbers,
ranks of group representations, Euler characteristics of fixed loci, and
dimensions of invariant subspaces obtained by averaging characters.  The
functions either build tables from symmetric halves, combine tables by the
Kuenneth rule, or peel known summands off a total and report what is left.
"""

from math import comb
from typing import Mapping, NamedTuple

from .kummer import LABEL_COUNT

Row = tuple[int, ...]


class HodgeDiamond:
    """Rows by weight; rows[w][q] is the (w - q, q) Hodge number, and
    bettis[w] is the Betti number, the sum of row w."""

    __slots__ = ("rows", "bettis")

    def __init__(self, rows: tuple[Row, ...]):
        if any(x < 0 for row in rows for x in row):
            raise ValueError("Hodge numbers are nonnegative")
        self.rows = rows
        self.bettis = tuple(sum(row) for row in rows)

    def h(self, p: int, q: int) -> int:
        return self.rows[p + q][q]

    def row(self, w: int) -> Row:
        return self.rows[w]

    @property
    def euler(self) -> int:
        return self.even_total - self.odd_total

    @property
    def even_total(self) -> int:
        return sum(self.bettis[::2])

    @property
    def odd_total(self) -> int:
        return sum(self.bettis[1::2])

    @property
    def total(self) -> int:
        return sum(self.bettis)


def diamond_from_half(half: Mapping[tuple[int, int], int], dim: int) -> HodgeDiamond:
    """Build a full diamond from its values on a fundamental domain.

    ``half`` holds one (p, q), with p >= q and p + q <= dim, of each orbit
    under conjugation (q, p) and duality (dim - p, dim - q), so the diamond
    is symmetric and self-dual by construction.
    """
    full: dict[tuple[int, int], int] = {}
    for (p, q), value in half.items():
        for key in ((p, q), (q, p), (dim - p, dim - q), (dim - q, dim - p)):
            full[key] = value
    rows = tuple(
        tuple(0 if w - q > dim or q > dim else full[w - q, q] for q in range(w + 1))
        for w in range(2 * dim + 1)
    )
    return HodgeDiamond(rows=rows)


def row_product(a: Row, b: Row) -> Row:
    """Kuenneth rule on two pure-weight rows: weights add, types convolve."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def row_sum(a: Row, b: Row) -> Row:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def row_diff(a: Row, b: Row) -> Row:
    out = tuple(x - y for x, y in zip(a, b, strict=True))
    if any(x < 0 for x in out):
        raise ValueError(f"subtraction {a} - {b} leaves a negative dimension")
    return out


def sym2_row(a: Row) -> Row:
    """Symmetric square of one pure-weight piece, graded by type."""
    n = len(a)
    out = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        out[2 * i] += comb(x + 1, 2)
        for j in range(i + 1, n):
            out[i + j] += x * a[j]
    return tuple(out)


def shift_row(a: Row) -> Row:
    """Raise the weight by two, centring the types."""
    return (0, *a, 0)


# ---------------------------------------------------------------------------
# invariant parts of the length-four punctual cohomology

class InvariantWeight4(NamedTuple):
    """Translation-invariant weight-4 part, split off the known summands."""

    translation_fixed: Row
    sym2_part: Row
    extra_part: Row
    extra_matches_twist: bool
    fixed_rank: int
    extra_rank: int
    trail: tuple[str, ...]


def _torus_summands(abelian: HodgeDiamond, sixfold: HodgeDiamond) -> tuple[Row, Row, Row]:
    """The weight-4 Kuenneth summands H1*fix3, H2*fix2 and H4 of positive torus weight."""
    return (
        row_product(abelian.row(1), sixfold.row(3)),
        row_product(abelian.row(2), sixfold.row(2)),
        abelian.row(4),
    )


def invariant_weight4(
    h4_length4: Row, abelian: HodgeDiamond, sixfold: HodgeDiamond
) -> InvariantWeight4:
    """Peel the Kuenneth summands with positive torus weight off weight 4.

    The length-4 punctual space fibres over the torus with the sixfold as
    fibre, and the covering group acts trivially on the torus cohomology.
    Weight 4 of the total space is then H0*inv4 + H1*fix3 + H2*fix2 + H4,
    where the odd fibre weights and weight 2 are entirely invariant.
    """
    t1, t2, t3 = _torus_summands(abelian, sixfold)
    fixed = row_diff(row_diff(row_diff(h4_length4, t1), t2), t3)
    sym2 = sym2_row(sixfold.row(2))
    extra = row_diff(fixed, sym2)
    twist = shift_row(sixfold.row(2))
    point = tuple(1 if q == 2 else 0 for q in range(5))
    matches = extra == row_sum(twist, point)
    trail = (
        f"weight-4 total {h4_length4} minus {t1}, {t2}, {t3} leaves {fixed}",
        f"symmetric square of weight 2 is {sym2}; complement {extra}",
        f"complement equals twisted weight 2 plus a point class: {matches}",
    )
    return InvariantWeight4(
        translation_fixed=fixed,
        sym2_part=sym2,
        extra_part=extra,
        extra_matches_twist=matches,
        fixed_rank=sum(fixed),
        extra_rank=sum(extra),
        trail=trail,
    )


class InvariantWeight6(NamedTuple):
    """Translation-invariant weight-6 dimension and its exhaustion."""

    known_dim: int
    invariant_dim: int
    sym3_dim: int
    wedge2_dim: int
    square_class_dim: int
    cube_class_dim: int
    missing_multiplicity: int
    trail: tuple[str, ...]


def invariant_weight6(
    b6_length4: int,
    abelian: HodgeDiamond,
    sixfold: HodgeDiamond,
    weight4_fixed_rank: int,
) -> InvariantWeight6:
    """The same peeling in weight 6, on total dimensions.

    The known part pairs torus weights with invariant fibre weights; the
    leftover must be exhausted by the cubic, exterior, mixed and point
    pieces generated by weight 2, so the final multiplicity is zero.
    """
    a, b = abelian.bettis, sixfold.bettis
    n = b[2]
    known = a[1] * b[5] + a[2] * weight4_fixed_rank + a[3] * b[3] + a[4] * n
    invariant = b6_length4 - known
    if invariant < 0:
        raise ValueError("known weight-6 summands exceed the total")
    sym3 = comb(n + 2, 3)
    wedge2 = comb(n, 2)
    missing = invariant - sym3 - wedge2 - 1 - n
    trail = (
        f"known summands {known} leave {invariant} invariant in weight 6",
        f"cubic {sym3} + exterior {wedge2} + square class 1 + twisted weight 2 {n}"
        f" leaves multiplicity {missing}",
    )
    return InvariantWeight6(
        known_dim=known,
        invariant_dim=invariant,
        sym3_dim=sym3,
        wedge2_dim=wedge2,
        square_class_dim=1,
        cube_class_dim=n,
        missing_multiplicity=missing,
        trail=trail,
    )


# ---------------------------------------------------------------------------
# ranks of the structure representations

class RankTable(NamedTuple):
    """Even-degree ranks of the four structure summands, plus the odd rank.

    Rows are indexed by component, columns by half the cohomological
    degree.  The cubic summand carries one symmetric power per degree;
    the adjoint-plus summand sits in the middle degrees with an exterior
    square and a scalar at its centre; the sixteen-copies summand spreads
    sixteen scalars, sixteen bases and sixteen scalars; the spin summand
    is concentrated in the middle.
    """

    rows: tuple[tuple[int, ...], ...]
    component_totals: tuple[int, ...]
    degree_totals: tuple[int, ...]
    even_total: int
    even_fixed: int  # every summand but spin, which sits in the middle degree
    odd: int
    trail: tuple[str, ...]


def build_rank_table(base_rank: int, spin_rank: int, odd_rank: int) -> RankTable:
    n = base_rank

    def sym(k: int) -> int:
        return comb(n + k - 1, k)

    rows = (
        tuple(sym(min(k, 6 - k)) for k in range(7)),
        (0, 0, n, comb(n, 2) + 1, n, 0, 0),
        (0, 0, LABEL_COUNT, LABEL_COUNT * n, LABEL_COUNT, 0, 0),
        (0, 0, 0, spin_rank, 0, 0, 0),
    )
    names = ("cubic", "adjoint-plus", "sixteen-copies", "spin")
    component_totals = tuple(sum(row) for row in rows)
    degree_totals = tuple(sum(row[k] for row in rows) for k in range(7))
    even_total = sum(component_totals)
    even_fixed = even_total - component_totals[names.index("spin")]
    trail = tuple(
        f"{name}: {row} (total {total})"
        for name, row, total in zip(names, rows, component_totals)
    ) + (f"degree totals {degree_totals}, even total {even_total}, odd {odd_rank}",)
    return RankTable(
        rows=rows,
        component_totals=component_totals,
        degree_totals=degree_totals,
        even_total=even_total,
        even_fixed=even_fixed,
        odd=odd_rank,
        trail=trail,
    )


def rank_table_matches_diamond(table: RankTable, diamond: HodgeDiamond) -> bool:
    """Betti numbers of the diamond against the representation gradings."""
    return (
        table.degree_totals == diamond.bettis[::2]
        and table.even_total == diamond.even_total
        and table.odd == diamond.odd_total
    )


def rep_dims(n: int, k: int) -> tuple[int, int]:
    """Dimensions of the symmetric and exterior powers of an n-space."""
    return comb(n + k - 1, k), comb(n, k)


# ---------------------------------------------------------------------------
# trace averaging over the sign-extended two-torsion group

# the order-32 group: the identity, a translation by each nonzero
# two-torsion label and a reflection through each label
TRANSLATION_COUNT = LABEL_COUNT - 1
REFLECTION_COUNT = LABEL_COUNT


class TraceAverages(NamedTuple):
    """Traces on the spin summand and the resulting invariant dimension."""

    chi_identity: int
    chi_translation: int
    chi_reflection: int
    trace_identity: int
    trace_translation: int
    trace_reflection: int
    invariant_dim: int
    trail: tuple[str, ...]


def trace_averages(
    *,
    euler_total: int,
    fourfold_euler: int,
    reflection_extra_points: int,
    translation_surface_count: int,
    surface_euler: int,
    even_fixed_dim: int,
    odd_dim: int,
) -> TraceAverages:
    """Average the spin-summand character over the order-32 group.

    The group is the identity, ``TRANSLATION_COUNT`` translations by
    nonzero two-torsion points and ``REFLECTION_COUNT`` reflections, so
    only the fixed-locus data are arguments.  Each group element acts with
    Euler characteristic equal to that of its fixed locus; the even part
    outside the spin summand is fixed, and the odd part is scaled by the
    sign character.  Solving for the spin trace and averaging gives the
    invariant dimension, which must come out a nonnegative integer.
    """
    chi_translation = translation_surface_count * surface_euler
    chi_reflection = fourfold_euler + reflection_extra_points
    trace_identity = euler_total - even_fixed_dim + odd_dim
    trace_translation = chi_translation - even_fixed_dim + odd_dim
    trace_reflection = chi_reflection - even_fixed_dim - odd_dim
    order = 1 + TRANSLATION_COUNT + REFLECTION_COUNT
    total = (
        trace_identity
        + TRANSLATION_COUNT * trace_translation
        + REFLECTION_COUNT * trace_reflection
    )
    if total % order:
        raise ValueError(f"trace sum {total} is not divisible by the order {order}")
    invariant = total // order
    if invariant < 0:
        raise ValueError(f"negative invariant dimension {invariant}")
    trail = (
        f"fixed-locus Euler numbers: identity {euler_total}, "
        f"translations {chi_translation}, reflections {chi_reflection}",
        f"spin traces: {trace_identity}, {trace_translation}, {trace_reflection}",
        f"average over {order} elements = {invariant}",
    )
    return TraceAverages(
        chi_identity=euler_total,
        chi_translation=chi_translation,
        chi_reflection=chi_reflection,
        trace_identity=trace_identity,
        trace_translation=trace_translation,
        trace_reflection=trace_reflection,
        invariant_dim=invariant,
        trail=trail,
    )


# ---------------------------------------------------------------------------
# blow-up comparison of first Hodge numbers

class BlowupComparison(NamedTuple):
    h31_blowup: int
    h40_blowup: int
    matches: bool
    trail: tuple[str, ...]


def blowup_comparison(
    sixfold: HodgeDiamond,
    center_count: int,
    center_h20: int,
    target_h31: int,
    target_h40: int,
) -> BlowupComparison:
    """Blowing up disjoint codimension-2 centres adds their (2,0) numbers."""
    h31 = sixfold.h(3, 1) + center_count * center_h20
    h40 = sixfold.h(4, 0)
    matches = h31 == target_h31 and h40 == target_h40
    trail = (
        f"(3,1) number {sixfold.h(3, 1)} + {center_count}*{center_h20} = {h31}, "
        f"target {target_h31}",
        f"(4,0) number unchanged at {h40}, target {target_h40}",
    )
    return BlowupComparison(
        h31_blowup=h31,
        h40_blowup=h40,
        matches=matches,
        trail=trail,
    )


def weight4_kuenneth_total(
    invariant4: Row, abelian: HodgeDiamond, sixfold: HodgeDiamond
) -> Row:
    """Reassemble weight 4 of the length-4 space from its summands."""
    total = invariant4
    for part in _torus_summands(abelian, sixfold):
        total = row_sum(total, part)
    return total
