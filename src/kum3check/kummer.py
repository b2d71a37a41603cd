"""Torsion labels, the sign-translation group, and independence certificates.

Labels live on the four-torsion group T4 = (Z/4)^4 of an abelian surface:

* two-torsion points tau index the sixteen fixed fourfolds (W labels),
* unordered pairs of distinct tau index their pairwise intersections (V),
* a D label is a block tau together with a point alpha in the halving
  fiber {alpha : 2*alpha = tau}, sixteen per block.

The sixfold automorphisms acting on these labels form the semidirect
product of T4 translations with the sign involution, order 512; see
:class:`GroupElement`.  Intersection numbers that only depend on the
coincidence pattern of labels are summed by counting set partitions.

The three certificate builders produce exact Gram-style matrices whose
ranks establish that {c2, the sixteen W classes} are independent in
degree 4, that multiplication by qbar is injective on their span, and
that the 256 D classes span a 241-dimensional space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Iterable

from .linalg import Matrix, format_rational, kernel_basis, rank

Pt = tuple[int, int, int, int]

ZERO: Pt = (0, 0, 0, 0)


def pt(a: int, b: int, c: int, d: int) -> Pt:
    return (a % 4, b % 4, c % 4, d % 4)


def add(p: Pt, q: Pt) -> Pt:
    return tuple((x + y) % 4 for x, y in zip(p, q))  # type: ignore[return-value]


def neg(p: Pt) -> Pt:
    return tuple((-x) % 4 for x in p)  # type: ignore[return-value]


def double(p: Pt) -> Pt:
    return tuple((2 * x) % 4 for x in p)  # type: ignore[return-value]


def four_torsion() -> tuple[Pt, ...]:
    return tuple(product(range(4), repeat=4))  # type: ignore[return-value]


def two_torsion() -> tuple[Pt, ...]:
    return tuple(p for p in four_torsion() if double(p) == ZERO)


def halving_fiber(tau: Pt) -> tuple[Pt, ...]:
    """Points alpha with 2*alpha = tau; a torsor under the two-torsion."""
    if double(tau) != ZERO:
        raise ValueError(f"{tau} is not a two-torsion point")
    return tuple(p for p in four_torsion() if double(p) == tau)


@dataclass(frozen=True, order=True)
class WClass:
    tau: Pt


@dataclass(frozen=True, order=True)
class VClass:
    taus: tuple[Pt, Pt]

    @staticmethod
    def of(a: Pt, b: Pt) -> "VClass":
        if a == b:
            raise ValueError("V labels need two distinct two-torsion points")
        return VClass(taus=(min(a, b), max(a, b)))


@dataclass(frozen=True, order=True)
class DClass:
    tau: Pt
    alpha: Pt

    def __post_init__(self):
        if double(self.alpha) != self.tau:
            raise ValueError(f"alpha {self.alpha} does not halve to block {self.tau}")


@dataclass(frozen=True, order=True)
class GroupElement:
    """x -> sign * x + translation on the abelian surface."""

    translation: Pt
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


IDENTITY = GroupElement(ZERO, 1)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    t = h.translation if g.sign == 1 else neg(h.translation)
    return GroupElement(add(g.translation, t), g.sign * h.sign)


def invert(g: GroupElement) -> GroupElement:
    t = neg(g.translation) if g.sign == 1 else g.translation
    return GroupElement(t, g.sign)


def apply_to_point(g: GroupElement, p: Pt) -> Pt:
    moved = p if g.sign == 1 else neg(p)
    return add(moved, g.translation)


def full_group() -> tuple[GroupElement, ...]:
    return tuple(
        GroupElement(t, s) for s in (1, -1) for t in four_torsion()
    )


def translation_subgroup() -> tuple[GroupElement, ...]:
    return tuple(GroupElement(t, 1) for t in four_torsion())


def sign_two_torsion_subgroup() -> tuple[GroupElement, ...]:
    return tuple(
        GroupElement(t, s) for s in (1, -1) for t in two_torsion()
    )


def act(g: GroupElement, label):
    """Conjugation action on W, V and D labels.

    Conjugating the involution with fixed locus W_tau by x -> sx + t
    yields the involution of W_(tau + 2t), for either sign; a D label
    over tau follows its fiber point, alpha -> s*alpha + t.
    """
    shift = double(g.translation)
    if isinstance(label, WClass):
        return WClass(add(label.tau, shift))
    if isinstance(label, VClass):
        a, b = label.taus
        return VClass.of(add(a, shift), add(b, shift))
    if isinstance(label, DClass):
        return DClass(add(label.tau, shift), apply_to_point(g, label.alpha))
    raise TypeError(f"no action on {type(label).__name__}")


def orbit(label, elements: Iterable[GroupElement]) -> frozenset:
    return frozenset(act(g, label) for g in elements)


# ---------------------------------------------------------------------------
# pattern sums

def coincidence_pattern(labels: tuple) -> tuple[int, ...]:
    """First-occurrence renumbering, e.g. (x, y, x) -> (0, 1, 0)."""
    seen: dict = {}
    out = []
    for item in labels:
        if item not in seen:
            seen[item] = len(seen)
        out.append(seen[item])
    return tuple(out)


def _patterns(arity: int) -> Iterable[tuple[int, ...]]:
    # restricted growth strings: entry <= 1 + max of the prefix
    if arity == 0:
        yield ()
        return
    stack = [((0,), 0)]
    while stack:
        prefix, mx = stack.pop()
        if len(prefix) == arity:
            yield prefix
            continue
        for v in range(mx + 2):
            stack.append((prefix + (v,), max(mx, v)))


def orbit_sum(
    n_labels: int,
    arity: int,
    value: Callable[[tuple[int, ...]], Fraction],
) -> Fraction:
    """Sum of value(pattern) over all label tuples, by counting patterns.

    A pattern with k distinct symbols is realized by perm(n, k) tuples.
    """
    total = Fraction(0)
    for pattern in _patterns(arity):
        distinct = (max(pattern) + 1) if pattern else 0
        if distinct > n_labels:
            continue
        total += math.perm(n_labels, distinct) * value(pattern)
    return total


def enumerated_sum(
    n_labels: int,
    arity: int,
    value: Callable[[tuple[int, ...]], Fraction],
) -> Fraction:
    """Brute-force version of orbit_sum, for cross-checking small cases."""
    total = Fraction(0)
    for labels in product(range(n_labels), repeat=arity):
        total += value(coincidence_pattern(labels))
    return total


def triple_value(
    pattern: tuple[int, int, int],
    cube: Fraction,
    pair: Fraction,
    distinct: Fraction,
) -> Fraction:
    blocks = max(pattern) + 1
    if blocks == 1:
        return cube
    if blocks == 2:
        return pair
    return distinct


def w_dot_v_total(pair: Fraction, distinct: Fraction, n: int = 16) -> Fraction:
    """w * v as a sum of triple numbers over tau and unordered pairs."""
    same = n * (n - 1) * pair          # tau equal to one of the two pair labels
    apart = n * (n - 1) * (n - 2) // 2 * distinct
    return same + apart


def component_cube_from_total(
    total: Fraction, pair: Fraction, distinct: Fraction, n: int = 16
) -> Fraction:
    """Recover w_tau^3 from w^3 by removing the mixed pattern counts."""
    mixed = 3 * n * (n - 1) * pair + n * (n - 1) * (n - 2) * distinct
    return (total - mixed) / n


def w_times_w_sq(cube: Fraction, pair: Fraction, n: int = 16) -> Fraction:
    """w * w_tau^2 for a fixed tau."""
    return cube + (n - 1) * pair


def w_times_w_pair(pair: Fraction, distinct: Fraction, n: int = 16) -> Fraction:
    """w * w_tau * w_tau' for fixed distinct tau, tau'."""
    return 2 * pair + (n - 2) * distinct


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class FixedClassIntersections:
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
    label_count: int = 16


@dataclass(frozen=True)
class DerivedWPairings:
    z_w_sq: Fraction
    z_w_pair: Fraction
    c2_w_sq: Fraction
    c2_w_pair: Fraction
    trail: tuple[str, ...]


def derive_w_pairings(data: FixedClassIntersections) -> DerivedWPairings:
    """Pairings of z and c2 against W squares and pairs, from the w expansion."""
    n = data.label_count
    w_w_sq = w_times_w_sq(data.w_cube, data.w_sq_w_other, n)
    w_w_pair = w_times_w_pair(data.w_sq_w_other, data.w_triple_distinct, n)
    z_w_sq = (w_w_sq - data.w_qbar_coeff * data.qbar_w_sq) / data.w_z_coeff
    z_w_pair = (w_w_pair - data.w_qbar_coeff * data.qbar_w_pair) / data.w_z_coeff
    c2_w_sq = data.ratio * data.qbar_w_sq + z_w_sq
    c2_w_pair = data.ratio * data.qbar_w_pair + z_w_pair
    trail = (
        f"w*w_tau^2 = {format_rational(w_w_sq)}, w*w_tau*w_tau' = {format_rational(w_w_pair)}",
        f"z*w_tau^2 = {format_rational(z_w_sq)}, z*w_tau*w_tau' = {format_rational(z_w_pair)}",
        f"c2*w_tau^2 = {format_rational(c2_w_sq)}, c2*w_tau*w_tau' = {format_rational(c2_w_pair)}",
    )
    return DerivedWPairings(z_w_sq, z_w_pair, c2_w_sq, c2_w_pair, trail)


@dataclass(frozen=True)
class IndependenceCertificate:
    """Pairing matrix of {c2, W classes} against the degree-8 test classes."""

    matrix: Matrix
    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
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
    n = data.label_count
    pairings = derive_w_pairings(data)
    pairs = list(combinations(range(n), 2))
    column_labels = (
        ["qbar^2", "qbar*z"]
        + [f"w_{s}^2" for s in range(n)]
        + [f"w_{s}*w_{t}" for s, t in pairs]
    )
    row_labels = ["c2"] + [f"w_{t}" for t in range(n)]

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
    # column of w_t^2 minus column of w_u^2 must be gap * (e_t - e_u) on W rows
    for t, u in pairs:
        col_t, col_u = 2 + t, 2 + u
        for r in range(matrix.rows):
            diff = matrix[r][col_t] - matrix[r][col_u]
            want = gap * ((1 if r == 1 + t else 0) - (1 if r == 1 + u else 0))
            if diff != want:
                raise ValueError(
                    f"square-column gap identity fails at row {r}, pair ({t},{u})"
                )
    trail = pairings.trail + (
        f"matrix is {matrix.rows}x{matrix.cols}; "
        f"separating gap w_tau^3 - w_tau^2*w_tau' = {format_rational(gap)}",
    )
    return IndependenceCertificate(
        matrix=matrix,
        row_labels=tuple(row_labels),
        column_labels=tuple(column_labels),
        rank=rank(matrix),
        separating_gap=gap,
        pairings=pairings,
        trail=trail,
    )


@dataclass(frozen=True)
class InjectivityCertificate:
    """Gram matrix of {qbar*c2, qbar*w_tau} against {c2, w_sigma}."""

    matrix: Matrix
    rank: int
    qbar_c2_w: Fraction
    trail: tuple[str, ...]


def qbar_injectivity_certificate(
    data: FixedClassIntersections,
) -> InjectivityCertificate:
    """Full rank means multiplication by qbar is injective on the span."""
    n = data.label_count
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
        f"qbar*c2*w_tau = ratio*{format_rational(data.qbar2_w)} "
        f"+ {format_rational(data.qbarz_w)} = {format_rational(qbar_c2_w)}",
        f"off-diagonal W block constant {format_rational(data.qbar_w_pair)}, "
        f"diagonal {format_rational(data.qbar_w_sq)}",
    )
    return InjectivityCertificate(
        matrix=matrix, rank=rank(matrix), qbar_c2_w=qbar_c2_w, trail=trail
    )


@dataclass(frozen=True)
class DGramCertificate:
    """Rank and kernel structure of the pairing on the 256 D classes."""

    blocks: int
    block_size: int
    diagonal: Fraction
    same_block: Fraction
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
    diagonal: Fraction,
    same_block: Fraction,
    cross_block: Fraction | None = None,
    blocks: int = 16,
    block_size: int = 16,
) -> DGramCertificate:
    """Build the full D-class Gram matrix and certify its rank and kernel.

    When ``cross_block`` is omitted it is forced by the identity that a
    fixed D class pairs with any full block to the same total: the
    within-block total diagonal + (block_size-1)*same_block, spread evenly
    over the block_size cross entries.
    """
    row_total = diagonal + (block_size - 1) * same_block
    trail = [
        f"row paired with its own block totals {format_rational(row_total)}"
    ]
    if cross_block is None:
        cross_block = Fraction(row_total, block_size)
        trail.append(
            f"cross entries forced to {format_rational(cross_block)} "
            f"by equal block totals"
        )
    cross_total = block_size * cross_block
    if cross_total != row_total:
        raise ValueError(
            "cross-block total differs from within-block total; "
            "block difference relations would not hold"
        )

    m = blocks * block_size

    def gram_row(i: int) -> list[Fraction]:
        bi = i // block_size
        row = []
        for j in range(m):
            if i == j:
                row.append(diagonal)
            elif bi == j // block_size:
                row.append(same_block)
            else:
                row.append(cross_block)
        return row

    # rows are generated one at a time so no second dense copy of the Gram exists
    gram = Matrix(gram_row(i) for i in range(m))

    gram_rank = rank(gram)
    kernel = kernel_basis(gram)
    nullity = len(kernel)

    block_structured = True
    for vec in kernel:
        chunks = [vec[b * block_size : (b + 1) * block_size] for b in range(blocks)]
        if any(len(set(chunk)) != 1 for chunk in chunks):
            block_structured = False
            break
        if sum(chunk[0] for chunk in chunks) != 0:
            block_structured = False
            break

    # the fifteen relations: block 0 sum minus block b sum
    zero = Fraction(0)
    one = Fraction(1)
    diff_rows = []
    in_kernel = True
    for b in range(1, blocks):
        vec = [zero] * m
        for a in range(block_size):
            vec[a] = one
            vec[b * block_size + a] = -one
        diff_rows.append(vec)
        if any(x != 0 for x in gram.mat_vec(vec)):
            in_kernel = False
    diff_rank = rank(Matrix(diff_rows))

    block_square = block_size * row_total
    trail.append(
        f"rank {gram_rank}, nullity {nullity}; "
        f"(block sum)^2 = {format_rational(block_square)}"
    )
    return DGramCertificate(
        blocks=blocks,
        block_size=block_size,
        diagonal=diagonal,
        same_block=same_block,
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
