"""Torsion labels, pattern counts, and independence certificates.

Labels live on the four-torsion group T4 = (Z/4)^4 of an abelian surface:

* two-torsion points tau index the sixteen fixed fourfolds (W labels),
  tabled here once, as ``ALPHAS``, ``THETAS``, ``SHIFTED`` and ``COSETS``,
* unordered pairs of distinct tau index their pairwise intersections (V),
* a D label is a block tau together with a point alpha in the halving
  fiber {alpha : 2*alpha = tau}, sixteen per block.

Intersection numbers that only depend on the coincidence pattern of
labels are summed with hand-written pattern counts (``w_dot_v_total``
and its kin).  The sign-translation group acting on the labels, and the
orbit sums that check these counts by brute force, live with the tests
in ``tests/label_group.py``.

The three certificate builders establish that {c2, the sixteen W
classes} are independent in degree 4, that multiplication by qbar is
injective on their span, and that the 256 D classes span a
241-dimensional space.  None builds its pairing matrix A: each eliminates
M = P*A for an invertible P, so M has the rank, pivot columns, reduced
echelon kernel basis and kernel of A.  The rows of M are combinations of
rows of A, written from their nonzero cells.  For the independence
(17x138) and injectivity (17x17) matrices they are the c2 row, W_0, then
W_t - W_{t-1}: P is a unit lower-bidiagonal matrix and det P = 1.  For
the D-class Gram G, which takes one value on the diagonal, one inside a
block and one across blocks, they are G_i - G_{i-1} for the i inside a
block (two nonzero cells), then for each block b > 0 the sum of block b's
rows less the sum of block b-1's, then G_0; det P = -16^15 for 16 blocks
of 16.  A block sum is diagonal + (block_size-1)*same_block at its own
block's columns and block_size*cross_block at the others, and
``cross_block`` is forced to make these equal, so every block row is 0
and the matrix stores none of its cells.  M = P*A holds by how the rows
are written, so no builder checks it at run time;
``tests/test_rank_witnesses.py`` checks it against the dense matrices.

The order of M's rows sets the cost of the elimination, which takes the
rows in order and reduces each by the pivots of the rows before it.  The
inside rows pivot every column but the last of each block, each with a
two-cell row whose pivot cell is 1 once its content is divided out; the
block rows are empty, and G_0 is reduced by block 0's inside rows.  So
the elimination makes 15 row updates, each with multiplier 1 and in
place; none rescales a whole row.  Boundary differences G_{16b} -
G_{16b-1} in place of the block rows would cost 465 updates, 450 of which
only rediscover that ``cross_block`` is forced.  The fifteen difference
relations come as block b-1 less block b, so each leads in a column of
its own and their elimination makes no update.
"""

from fractions import Fraction
from itertools import combinations, product, repeat
from typing import NamedTuple

from .linalg import ZERO, Matrix, integer_cells, kernel_basis, rank

Pt = tuple[int, int, int, int]

ORIGIN: Pt = (0, 0, 0, 0)

# the two-torsion points {0, 2}^4, the labels of the sixteen fixed fourfolds
ALPHAS: tuple[Pt, ...] = tuple(product((0, 2), repeat=4))  # type: ignore[assignment]
THETAS: tuple[Pt, ...] = tuple(t for t in ALPHAS if t != ORIGIN)
# SHIFTED[theta][i]: the position in ALPHAS of ALPHAS[i] + theta.  ALPHAS
# lists {0, 2}^4 in lexicographic order, so the binary digits of a position
# are the point's coordinates halved, and adding two points XORs positions.
SHIFTED: dict[Pt, tuple[int, ...]] = {
    theta: tuple(i ^ t for i in range(len(ALPHAS))) for t, theta in enumerate(ALPHAS)
}
# COSETS[theta]: the eight cosets {alpha, alpha + theta} as position pairs i < j
COSETS: dict[Pt, tuple[tuple[int, int], ...]] = {
    theta: tuple((i, j) for i, j in enumerate(SHIFTED[theta]) if i < j) for theta in THETAS
}
LABEL_COUNT = len(ALPHAS)


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
    The certificate matrix is M = P*A for the pairing matrix A (see the
    module docstring): the c2 row, W_0, then W_t - W_{t-1}, nonzero only
    in the squares of t and t-1 and the 28 pairs that hold one of them.
    The separating gap is the single nonzero entry pattern by which the
    column of one W square distinguishes its own row of A from every
    other; the step rows hold it as their -gap and +gap cells, so on M,
    column w_t^2 less column w_u^2 is gap * P(e_{1+t} - e_{1+u}).
    """
    n = LABEL_COUNT
    pairings = derive_w_pairings(data)
    pairs = list(combinations(range(n), 2))
    column = [[0] * n for _ in range(n)]  # the column of the pair {s, u}
    for k, (s, u) in enumerate(pairs, 2 + n):
        column[s][u] = column[u][s] = k
    gap = data.w_cube - data.w_sq_w_other
    apart = data.w_sq_w_other - data.w_triple_distinct

    def step_row(t: int) -> dict[int, Fraction]:
        """The cells of W_t - W_{t-1}: the pairs of t and of t-1 with a third label."""
        third = [s for s in range(n) if s != t and s != t - 1]
        row = dict.fromkeys(map(column[t].__getitem__, third), apart)
        row.update(dict.fromkeys(map(column[t - 1].__getitem__, third), -apart))
        row[1 + t], row[2 + t] = -gap, gap
        return row

    c2_row = [data.c2_qbar2, data.c2_qbarz, *repeat(pairings.c2_w_sq, n)]
    c2_row += repeat(pairings.c2_w_pair, len(pairs))
    w0_row = [data.qbar2_w, data.qbarz_w, data.w_cube, *repeat(data.w_sq_w_other, n - 1)]
    w0_row += [data.w_sq_w_other if s == 0 else data.w_triple_distinct for s, _ in pairs]
    matrix = Matrix([c2_row, w0_row, *map(step_row, range(1, n))])
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
    """Full rank means multiplication by qbar is injective on the span.

    The certificate matrix is M = P*A for the Gram A: the c2 row, W_0,
    then W_t - W_{t-1}, whose two cells are +-(qbar*w_tau^2 - qbar*w_tau*w_tau').
    """
    n = LABEL_COUNT
    qbar_c2_w = data.ratio * data.qbar2_w + data.qbarz_w
    step = data.qbar_w_sq - data.qbar_w_pair
    matrix = Matrix([
        [data.qbar_c2_sq, *repeat(qbar_c2_w, n)],
        [qbar_c2_w, data.qbar_w_sq, *repeat(data.qbar_w_pair, n - 1)],
        *({t: -step, 1 + t: step} for t in range(1, n)),
    ])
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
    difference-relation check run on M = P*G, whose rows are G_i - G_{i-1}
    for the i inside a block, then the block-sum differences, then G_0,
    each written from the three constants (the module docstring says why,
    and in this order).  det P = -16^15 is not 0, so M has the rank, pivot
    columns, reduced echelon kernel basis and kernel of G.  M and the
    difference relations are written from their nonzero cells, as
    ``{column: value}`` rows of integers, so no zero cell of either is
    scaled and no cell is converted; only the last row of M is dense.  M
    is written over the lcm L of the three constants' denominators, so it
    is L*P*G, which has the rank and kernel of G.  ``mat_vec`` multiplies
    each relation as the ``{column: +-1}`` map it is written as, and
    ``rank`` eliminates the matrix of the same maps.  The kernel vectors
    and the products are compared cell by cell through object identity:
    ``linalg`` builds one ``Fraction`` per distinct value of a result and
    gives every zero as ``ZERO``.
    """
    row_total = diagonal + (block_size - 1) * same_block
    cross_block = Fraction(row_total, block_size)
    trail = [
        f"row paired with its own block totals {row_total}",
        f"cross entries forced to {cross_block} by equal block totals",
    ]

    m = blocks * block_size
    # the three constants over the lcm of their denominators
    _, ints = integer_cells((diagonal, same_block, cross_block))
    diag, same, cross = (ints.get(k, 0) for k in range(3))
    inside = diag - same  # G_i - G_{i-1} at i, inside a block
    # a block's rows sum to diag + (block_size-1)*same at the block's own
    # columns and to block_size*cross at the others; cross_block is forced
    # to make the difference 0
    block_total = diag + (block_size - 1) * same - block_size * cross

    def block_row(b: int) -> dict[int, int]:
        """The cells of the block-b sum of rows of G less the block-(b-1)
        sum: -block_total on block b-1, +block_total on block b."""
        row = dict.fromkeys(range((b - 1) * block_size, b * block_size), -block_total)
        row.update(dict.fromkeys(range(b * block_size, (b + 1) * block_size), block_total))
        return row

    first_row = dict.fromkeys(range(block_size), same)
    first_row.update(dict.fromkeys(range(block_size, m), cross))
    first_row[0] = diag
    steps = Matrix([
        *({i - 1: -inside, i: inside} for i in range(1, m) if i % block_size),
        *map(block_row, range(1, blocks)),
        first_row,
    ], m)

    gram_rank = rank(steps)
    kernel = kernel_basis(steps)
    nullity = len(kernel)

    # constant on each block: the cells at each offset o of the blocks equal
    # those at offset 0 (equal cells are one object, so the tuples compare
    # them by identity); the block values are summed over one denominator
    block_structured = True
    for vec in kernel:
        firsts = vec[::block_size]
        if any(vec[o::block_size] != firsts for o in range(1, block_size)):
            block_structured = False
            break
        if sum(integer_cells(firsts)[1].values()):
            block_structured = False
            break

    # the fifteen relations, block b-1 sum minus block b sum: each leads in
    # a column of its own, so they are in echelon form as written
    relations = [
        dict.fromkeys(range((b - 1) * block_size, b * block_size), 1)
        | dict.fromkeys(range(b * block_size, (b + 1) * block_size), -1)
        for b in range(1, blocks)
    ]
    # a list, so that every relation is multiplied even after one fails
    in_kernel = all([steps.mat_vec(vec).count(ZERO) == m for vec in relations])
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
