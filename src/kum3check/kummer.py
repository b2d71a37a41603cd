"""Torsion labels, pattern counts, and independence certificates.

Labels live on the four-torsion group T4 = (Z/4)^4 of an abelian surface:

* two-torsion points tau index the sixteen fixed fourfolds (W labels),
* unordered pairs of distinct tau index their pairwise intersections (V),
* a D label is a block tau together with a point alpha in the halving
  fiber {alpha : 2*alpha = tau}, sixteen per block.

Intersection numbers that only depend on the coincidence pattern of
labels are summed with hand-written pattern counts (``w_dot_v_total``
and its kin).  The sign-translation group acting on the labels, and the
orbit sums that check these counts by brute force, live with the tests
in ``tests/label_group.py``.

The three certificate builders produce exact Gram-style matrices whose
ranks establish that {c2, the sixteen W classes} are independent in
degree 4, that multiplication by qbar is injective on their span, and
that the 256 D classes span a 241-dimensional space.

The D-class Gram G takes three values: one on the diagonal, one inside a
block and one across blocks.  Its certificate never builds G.  It
eliminates M = P*G instead, whose rows are the differences of consecutive
Gram rows followed by the first row.  P is a row permutation times a unit
lower-bidiagonal matrix, so it is invertible over the integers and M has
the same row space as G: the same rank, pivot columns and reduced echelon
kernel basis, and G*v = 0 exactly when M*v = 0.  A difference row has two
nonzero cells inside a block and at most 2*block_size at a block boundary,
so the elimination of M is cheap where that of the dense G is not.
"""

from fractions import Fraction
from itertools import combinations, product, repeat
from typing import NamedTuple

from .linalg import ZERO as ZERO_Q
from .linalg import Matrix, kernel_basis, rank

Pt = tuple[int, int, int, int]

ZERO: Pt = (0, 0, 0, 0)


def double(p: Pt) -> Pt:
    return tuple((2 * x) % 4 for x in p)  # type: ignore[return-value]


def four_torsion() -> tuple[Pt, ...]:
    return tuple(product(range(4), repeat=4))  # type: ignore[return-value]


def two_torsion() -> tuple[Pt, ...]:
    return tuple(p for p in four_torsion() if double(p) == ZERO)


# the sixteen fixed fourfolds, one per two-torsion label
LABEL_COUNT = len(two_torsion())


def w_dot_v_total(pair: Fraction, distinct: Fraction, n: int) -> Fraction:
    """w * v as a sum of triple numbers over tau and unordered pairs."""
    same = n * (n - 1) * pair          # tau equal to one of the two pair labels
    apart = n * (n - 1) * (n - 2) // 2 * distinct
    return same + apart


def component_cube_from_total(
    total: Fraction, pair: Fraction, distinct: Fraction, n: int
) -> Fraction:
    """Recover w_tau^3 from w^3 by removing the mixed pattern counts."""
    mixed = 3 * n * (n - 1) * pair + n * (n - 1) * (n - 2) * distinct
    return (total - mixed) / n


def w_times_w_sq(cube: Fraction, pair: Fraction, n: int) -> Fraction:
    """w * w_tau^2 for a fixed tau."""
    return cube + (n - 1) * pair


def w_times_w_pair(pair: Fraction, distinct: Fraction, n: int) -> Fraction:
    """w * w_tau * w_tau' for fixed distinct tau, tau'."""
    return 2 * pair + (n - 2) * distinct


# ---------------------------------------------------------------------------
# certificates

class FixedClassIntersections(NamedTuple):
    """Pairings among qbar, z, c2 and the W classes that feed the certificates.

    The z = c2 - ratio*qbar rewriting and the expansion of the sum class
    w = w_qbar_coeff*qbar + w_z_coeff*z are established elsewhere and
    consumed here as plain numbers.
    """

    qbar2_w: Fraction            # integral qbar^2 * w_tau
    qbarz_w: Fraction            # integral qbar*z * w_tau
    qbar_w_sq: Fraction          # integral qbar * w_tau^2
    qbar_w_pair: Fraction        # integral qbar * w_tau * w_tau'
    w_cube: Fraction             # w_tau^3
    w_sq_w_other: Fraction       # w_tau^2 * w_tau'
    w_triple_distinct: Fraction  # w_tau * w_tau' * w_tau''
    c2_qbar2: Fraction
    c2_qbarz: Fraction
    qbar_c2_sq: Fraction
    ratio: Fraction
    w_qbar_coeff: Fraction
    w_z_coeff: Fraction


class DerivedWPairings(NamedTuple):
    z_w_sq: Fraction
    z_w_pair: Fraction
    c2_w_sq: Fraction
    c2_w_pair: Fraction
    trail: tuple[str, ...]


def derive_w_pairings(data: FixedClassIntersections) -> DerivedWPairings:
    """Pairings of z and c2 against W squares and pairs, from the w expansion."""
    n = LABEL_COUNT
    w_w_sq = w_times_w_sq(data.w_cube, data.w_sq_w_other, n)
    w_w_pair = w_times_w_pair(data.w_sq_w_other, data.w_triple_distinct, n)
    z_w_sq = (w_w_sq - data.w_qbar_coeff * data.qbar_w_sq) / data.w_z_coeff
    z_w_pair = (w_w_pair - data.w_qbar_coeff * data.qbar_w_pair) / data.w_z_coeff
    c2_w_sq = data.ratio * data.qbar_w_sq + z_w_sq
    c2_w_pair = data.ratio * data.qbar_w_pair + z_w_pair
    trail = (
        f"w*w_tau^2 = {w_w_sq}, w*w_tau*w_tau' = {w_w_pair}",
        f"z*w_tau^2 = {z_w_sq}, z*w_tau*w_tau' = {z_w_pair}",
        f"c2*w_tau^2 = {c2_w_sq}, c2*w_tau*w_tau' = {c2_w_pair}",
    )
    return DerivedWPairings(z_w_sq, z_w_pair, c2_w_sq, c2_w_pair, trail)


class IndependenceCertificate(NamedTuple):
    """Pairing matrix of {c2, W classes} against the degree-8 test classes."""

    matrix: Matrix
    rank: int
    separating_gap: Fraction
    pairings: DerivedWPairings
    trail: tuple[str, ...]


def deg4_independence_certificate(
    data: FixedClassIntersections,
) -> IndependenceCertificate:
    """Rows c2 and the sixteen W classes; full rank means independence.

    Columns pair against qbar^2, qbar*z, all W squares and all W pairs.
    The separating gap is the single nonzero entry pattern by which the
    column of one W square distinguishes its own row from every other.
    """
    n = LABEL_COUNT
    pairings = derive_w_pairings(data)
    pairs = list(combinations(range(n), 2))

    rows = []
    c2_row = (
        [data.c2_qbar2, data.c2_qbarz]
        + [pairings.c2_w_sq] * n
        + [pairings.c2_w_pair] * len(pairs)
    )
    rows.append(c2_row)
    for t in range(n):
        row = [data.qbar2_w, data.qbarz_w]
        row += [data.w_cube if s == t else data.w_sq_w_other for s in range(n)]
        row += [
            data.w_sq_w_other if t in (s, u) else data.w_triple_distinct
            for s, u in pairs
        ]
        rows.append(row)

    matrix = Matrix(rows)
    gap = data.w_cube - data.w_sq_w_other
    # column of w_t^2 minus column of w_u^2 must be gap * (e_t - e_u) on W rows,
    # that is, each row's w^2 cells, less gap in the row's own column, agree;
    # read on the sparse integer rows, each scaled by its one denominator
    dens, sparse = matrix._scaled
    levels = [
        [cells.get(2 + t, 0) - (gap * den if r == 1 + t else 0) for t in range(n)]
        for r, (den, cells) in enumerate(zip(dens, (dict(zip(*row)) for row in sparse)))
    ]
    if any(level.count(level[0]) != n for level in levels):
        r, t, u = next(
            (r, t, u)
            for t, u in pairs
            for r, level in enumerate(levels)
            if level[t] != level[u]
        )
        raise ValueError(f"square-column gap identity fails at row {r}, pair ({t},{u})")
    trail = pairings.trail + (
        f"matrix is {matrix.rows}x{matrix.cols}; "
        f"separating gap w_tau^3 - w_tau^2*w_tau' = {gap}",
    )
    return IndependenceCertificate(
        matrix=matrix,
        rank=rank(matrix),
        separating_gap=gap,
        pairings=pairings,
        trail=trail,
    )


class InjectivityCertificate(NamedTuple):
    """Gram matrix of {qbar*c2, qbar*w_tau} against {c2, w_sigma}."""

    matrix: Matrix
    rank: int
    qbar_c2_w: Fraction
    trail: tuple[str, ...]


def qbar_injectivity_certificate(
    data: FixedClassIntersections,
) -> InjectivityCertificate:
    """Full rank means multiplication by qbar is injective on the span."""
    n = LABEL_COUNT
    qbar_c2_w = data.ratio * data.qbar2_w + data.qbarz_w
    rows = [[data.qbar_c2_sq] + [qbar_c2_w] * n]
    for t in range(n):
        row = [qbar_c2_w]
        row += [
            data.qbar_w_sq if s == t else data.qbar_w_pair for s in range(n)
        ]
        rows.append(row)
    matrix = Matrix(rows)
    trail = (
        f"qbar*c2*w_tau = ratio*{data.qbar2_w} "
        f"+ {data.qbarz_w} = {qbar_c2_w}",
        f"off-diagonal W block constant {data.qbar_w_pair}, "
        f"diagonal {data.qbar_w_sq}",
    )
    return InjectivityCertificate(
        matrix=matrix, rank=rank(matrix), qbar_c2_w=qbar_c2_w, trail=trail
    )


class DGramCertificate(NamedTuple):
    """Rank and kernel structure of the pairing on the 256 D classes."""

    blocks: int
    block_size: int
    cross_block: Fraction
    rank: int
    nullity: int
    row_block_total: Fraction      # one row summed over one block, either kind
    block_square: Fraction         # (sum of one block)^2
    kernel_is_block_structured: bool
    difference_relations_in_kernel: bool
    difference_relations_rank: int
    trail: tuple[str, ...]


def d_gram_certificate(
    diagonal: Fraction, same_block: Fraction, blocks: int, block_size: int
) -> DGramCertificate:
    """Certify the rank and kernel of the D-class Gram matrix.

    The cross-block value ``cross_block`` is forced by the identity that a
    fixed D class pairs with any full block to the same total: the
    within-block total diagonal + (block_size-1)*same_block, spread evenly
    over the block_size cross entries.

    The Gram G (``diagonal`` on the diagonal, ``same_block`` inside a
    block, ``cross_block`` elsewhere) is never built.  Rank, kernel and the
    difference-relation check run on M = P*G, whose rows are
    G_i - G_{i-1} for i = 1, ..., n-1 followed by G_0, each written from
    the three constants.  det P = +-1, so M has the rank, pivot columns,
    reduced echelon kernel basis and kernel of G (see the module
    docstring).  M and the difference relations are written from their
    nonzero cells, as ``{column: value}`` rows, so no zero cell of either
    is built or scanned; only the last row of M is dense.
    """
    row_total = diagonal + (block_size - 1) * same_block
    cross_block = Fraction(row_total, block_size)
    trail = [
        f"row paired with its own block totals {row_total}",
        f"cross entries forced to {cross_block} by equal block totals",
    ]

    m = blocks * block_size
    inside = diagonal - same_block  # G_i - G_{i-1} at i, inside a block
    boundary = diagonal - cross_block  # the same at a block boundary
    spread = same_block - cross_block  # rest of the block of i at a boundary

    def step_row(i: int) -> dict[int, Fraction]:
        """The cells of G_i - G_{i-1}; the block of i-1 holds the negated values."""
        if i % block_size:
            return {i - 1: -inside, i: inside}
        row = dict.fromkeys(range(i - block_size, i), -spread)
        row.update(dict.fromkeys(range(i, i + block_size), spread))
        row[i - 1], row[i] = -boundary, boundary
        return row

    first_row = {j: same_block if j < block_size else cross_block for j in range(m)}
    first_row[0] = diagonal
    steps = Matrix([*(step_row(i) for i in range(1, m)), first_row], m)

    gram_rank = rank(steps)
    kernel = kernel_basis(steps)
    nullity = len(kernel)

    block_structured = True
    for vec in kernel:
        chunks = [vec[b * block_size : (b + 1) * block_size] for b in range(blocks)]
        if any(chunk.count(chunk[0]) != block_size for chunk in chunks):
            block_structured = False
            break
        if sum(chunk[0] for chunk in chunks) != 0:
            block_structured = False
            break

    # the fifteen relations, block 0 sum minus block b sum, as {column: value}
    # cells for their matrix and as the dense rows that mat_vec multiplies
    one = Fraction(1)
    relations = [
        dict.fromkeys(range(block_size), one)
        | dict.fromkeys(range(b * block_size, (b + 1) * block_size), -one)
        for b in range(1, blocks)
    ]
    dense = [tuple(map(row.get, range(m), repeat(ZERO_Q))) for row in relations]
    # a list, so that every relation is multiplied even after one fails
    in_kernel = not any([any(steps.mat_vec(vec)) for vec in dense])
    diff_rank = rank(Matrix(relations, m))

    block_square = block_size * row_total
    trail.append(
        f"rank {gram_rank}, nullity {nullity}; "
        f"(block sum)^2 = {block_square}"
    )
    return DGramCertificate(
        blocks=blocks,
        block_size=block_size,
        cross_block=cross_block,
        rank=gram_rank,
        nullity=nullity,
        row_block_total=row_total,
        block_square=block_square,
        kernel_is_block_structured=block_structured,
        difference_relations_in_kernel=in_kernel,
        difference_relations_rank=diff_rank,
        trail=tuple(trail),
    )
