"""Witnesses for the five ranks of the default report, computed without
``kum3check.linalg``'s elimination, back substitution or products.

* Rank >= r: an elimination modulo the prime p = 2^61 - 1.  Each cell is
  mapped to numerator * denominator^-1 mod p, a ring map from the rationals
  whose denominators p does not divide, so a rank mod p never exceeds the
  rank over Q.
* Rank <= r: n - r kernel vectors, each checked by exact products, and
  independent because each has a 1 in its own free column and 0 in the
  free columns of the others.

For the D classes the witness eliminates the Gram G itself, written from
its three constants, not the form M = P*G the engine eliminates, so it
also checks that M has the rank and kernel of G; a further test checks
that the engine's M is P*G for its stated P, and that P has full rank.
The independence and injectivity matrices are written densely from the
fixed intersections too: each engine matrix must be their row-difference
form P*A, and A itself has rank 17 mod p.  G is scaled by the lcm of the
constants' denominators and each vector by the lcm of its own, so the
256-cell products run on integers.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm
from unittest import mock

import pytest

from kum3check import kummer
from kum3check.engine import Engine
from kum3check.kummer import derive_w_pairings
from kum3check.linalg import rank

from matrix_entries import entries

P = 2**61 - 1


def _rank_mod_p(rows):
    """Rank over GF(P) of rows of rationals, by plain Gaussian elimination."""
    m = [[x.numerator * pow(x.denominator, -1, P) % P for x in row] for row in rows]
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        pivot = m[r][c:]
        inv = pow(pivot[0], -1, P)
        for i in range(r + 1, len(m)):
            f = m[i][c] * inv % P
            if f:
                m[i][c:] = [(a - f * b) % P for a, b in zip(m[i][c:], pivot)]
        r += 1
    return r


def _annihilates(rows, v):
    """Whether every integer row pairs to 0 with the rational vector v."""
    scale = lcm(*(x.denominator for x in v))
    cells = [(j, int(x * scale)) for j, x in enumerate(v) if x]
    return all(sum(row[j] * a for j, a in cells) == 0 for row in rows)


def _free_columns(vectors):
    """The free column of each vector, its last nonzero one, after checking
    that each vector has a 1 there and 0 in the free columns of the others;
    such vectors are independent."""
    free = [max(j for j, x in enumerate(v) if x) for v in vectors]
    for k, v in enumerate(vectors):
        assert [v[f] for f in free] == [int(k == j) for j in range(len(free))]
    return free


@pytest.fixture(scope="module")
def d_classes(doc):
    """A fresh engine's D certificate, the kernel basis and relation matrix
    it computed, the dense Gram G written from its three constants, scaled
    to integers, and the step matrix M whose kernel it took."""
    kernels, ranked, stepped = [], [], []
    true_kernel_basis, true_rank = kummer.kernel_basis, kummer.rank

    def recording_kernel_basis(m):
        stepped.append(m)
        kernels.append(true_kernel_basis(m))
        return kernels[-1]

    def recording_rank(m):
        ranked.append(m)
        return true_rank(m)

    engine = Engine(doc)
    with mock.patch.object(kummer, "kernel_basis", recording_kernel_basis):
        with mock.patch.object(kummer, "rank", recording_rank):
            cert = engine.d_gram
    constants = engine.d_pairings.diagonal, engine.d_pairings.same_block, cert.cross_block
    scale = lcm(*(x.denominator for x in constants))
    a, b, c = (int(x * scale) for x in constants)
    size, n = cert.block_size, cert.blocks * cert.block_size
    gram = [
        [a if i == j else b if i // size == j // size else c for j in range(n)]
        for i in range(n)
    ]
    (kernel,), (steps,) = kernels, stepped
    return cert, kernel, ranked[-1], gram, steps


def test_d_gram_rank_and_kernel_witness(d_classes):
    cert, kernel, _, gram, _ = d_classes
    # rank mod p <= rank over Q <= n - (independent kernel vectors)
    assert all(_annihilates(gram, v) for v in kernel)
    free = _free_columns(kernel)
    assert _rank_mod_p(gram) == len(gram) - len(free)
    assert (cert.rank, cert.nullity) == (len(gram) - len(free), len(free)) == (241, 15)


def test_d_step_matrix_is_the_gram_under_a_full_rank_row_transform(d_classes):
    # M = P*G for P: the inside differences e_i - e_{i-1}, then each block
    # sum less the one before, then e_0; P has full rank mod p, so over Q
    cert, _, _, gram, steps = d_classes
    size, n = cert.block_size, len(gram)
    p_rows = [{i: 1, i - 1: -1} for i in range(1, n) if i % size]
    p_rows += [
        dict.fromkeys(range((b - 1) * size, b * size), -1)
        | dict.fromkeys(range(b * size, (b + 1) * size), 1)
        for b in range(1, cert.blocks)
    ]
    p_rows.append({0: 1})
    product = [
        tuple(Fraction(sum(c * gram[k][j] for k, c in row.items())) for j in range(n))
        for row in p_rows
    ]
    assert entries(steps) == tuple(product)
    dense_p = [[Fraction(row.get(j, 0)) for j in range(n)] for row in p_rows]
    assert _rank_mod_p(dense_p) == len(dense_p) == n == 256


def test_difference_relations_rank_witness(d_classes):
    cert, _, relations, gram, _ = d_classes
    size, n = cert.block_size, len(gram)
    one, zero = Fraction(1), Fraction(0)
    # block k-1 less block k
    rows = [
        [one if j // size == k - 1 else -one if j // size == k else zero for j in range(n)]
        for k in range(1, cert.blocks)
    ]
    assert entries(relations) == tuple(map(tuple, rows))
    assert _rank_mod_p(rows) == len(rows) == cert.difference_relations_rank == 15
    assert all(_annihilates(gram, v) for v in rows)
    assert cert.difference_relations_in_kernel


def test_full_rank_witnesses(engine):
    certified = [
        (engine.independence.matrix, engine.independence.rank),
        (engine.injectivity.matrix, engine.injectivity.rank),
        (engine.gram19, rank(engine.gram19)),
    ]
    assert [r for _, r in certified] == [17, 17, 19]
    for matrix, r in certified:
        assert _rank_mod_p(entries(matrix)) == matrix.rows == r


def _row_differences(rows):
    """P*A for A = rows: the first two rows, then each row less the one before."""
    return [*rows[:2], *([a - b for a, b in zip(row, prev)] for prev, row in zip(rows[1:], rows[2:]))]


def test_w_certificates_are_row_differences_of_their_dense_matrices(engine):
    data = engine.fixed_intersections
    pairings = derive_w_pairings(data)
    n = 16
    pairs = list(combinations(range(n), 2))
    independence = [
        [data.c2_qbar2, data.c2_qbarz]
        + [pairings.c2_w_sq] * n
        + [pairings.c2_w_pair] * len(pairs)
    ]
    independence += [
        [data.qbar2_w, data.qbarz_w]
        + [data.w_cube if s == t else data.w_sq_w_other for s in range(n)]
        + [data.w_sq_w_other if t in pair else data.w_triple_distinct for pair in pairs]
        for t in range(n)
    ]
    qbar_c2_w = data.ratio * data.qbar2_w + data.qbarz_w
    injectivity = [[data.qbar_c2_sq] + [qbar_c2_w] * n]
    injectivity += [
        [qbar_c2_w] + [data.qbar_w_sq if s == t else data.qbar_w_pair for s in range(n)]
        for t in range(n)
    ]
    for cert, dense in ((engine.independence, independence), (engine.injectivity, injectivity)):
        assert entries(cert.matrix) == tuple(map(tuple, _row_differences(dense)))
        assert _rank_mod_p(dense) == len(dense) == cert.rank == 17
