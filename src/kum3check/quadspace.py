"""Rational quadratic spaces and their symmetric squares.

A :class:`QuadSpace` is a labelled orthogonal basis together with the
square q(a, a) of each basis vector; every square is nonzero.  Degree-4
classes on a K3[2]-type fourfold live in the symmetric square of its
second cohomology; their intersection numbers follow the three-matching
rule

    (a*b, c*d) = q(a,b) q(c,d) + q(a,c) q(b,d) + q(a,d) q(b,c)

extended bilinearly to monomials.  Monomials are normalised to index
pairs (i, j) with i <= j, and a product a_i * a_j with i != j is a single
monomial rather than a symmetrised half-sum, so the square of a sum,
``sym2_product(space, u, u)``, doubles every mixed coefficient.  On an
orthogonal basis the rule leaves two kinds of term: the product of the
two traces sum_a x_aa q_a, and one term for each monomial that both
classes carry.  All coefficients are exact rationals, and a class has one
stored form: a ``{monomial: int}`` dict of its nonzero coefficients as
integers over one reduced common denominator, in no set order.  Products
and sums (``sym2_product`` and ``sym2_sum``, the one way to add or scale
classes) accumulate integers over one common denominator; a coefficient
or factor cell is read once, through ``as_integer_ratio()``.  The pairing
reads the squares scaled the same way, looks the shared monomials up in
the dicts and builds one ``Fraction`` per nonzero value; a zero pairing
is the shared ``linalg.ZERO``.  The ``Fraction`` coefficients
(``coeffs``) are a view in monomial order, built at each read; only
rendering a class and restricting an ambient class read it.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .linalg import ZERO, Matrix, RationalLike, integer_cells, rat


class QuadSpace:
    """Labelled orthogonal basis with the nonzero square of each vector.

    ``_scaled_squares`` is (L, L * squares) for the lcm L of the squares'
    denominators.  A space equals only itself: the same space is one object.
    """

    __slots__ = ("labels", "squares", "name", "_scaled_squares")

    def __init__(
        self, labels: tuple[str, ...], squares: Iterable[RationalLike], name: str = ""
    ):
        squares = tuple(map(rat, squares))
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in quadratic space")
        if len(squares) != len(labels):
            raise ValueError("square count does not match label count")
        for label, q in zip(labels, squares):
            if not q:
                raise ValueError(f"basis vector {label!r} is isotropic")
        self.labels = labels
        self.squares = squares
        self.name = name
        scale, ints = integer_cells(squares)
        self._scaled_squares = scale, tuple(ints.values())

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r} in space {self.name!r}") from None

    def vector(self, coeffs: Mapping[str, RationalLike]) -> tuple[Fraction, ...]:
        """Coefficient vector of a combination given as {label: coefficient}."""
        out = [ZERO] * self.dim
        for label, c in coeffs.items():
            out[self.index(label)] = rat(c)
        return tuple(out)

    def basis_vector(self, label: str) -> tuple[Fraction, ...]:
        return self.vector({label: 1})

    def pair(self, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Fraction:
        """q(u, v) = sum_a u_a q_a v_a; vectors must have length ``dim``."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("vector length does not match the space")
        return sum(
            (rat(a) * q * rat(b) for a, q, b in zip(u, self.squares, v) if a and b), ZERO
        )


class Sym2Vector:
    """Element of Sym^2 of a quadratic space, as reduced integers.

    ``Sym2Vector(space, acc, den)`` is the class with coefficient
    ``acc[k] / den`` (den > 0) at each monomial k = (i, j), i <= j.  It
    keeps the nonzero ones as ``cells``, a ``{monomial: int}`` dict over
    ``scale``, with scale > 0 and gcd(scale, *cells.values()) == 1, so equal
    fields on one space object mean equal classes, whatever the order of
    the monomials.  ``coeffs`` is the ``(key, Fraction)`` view in key
    order, built at each read.
    """

    __slots__ = ("space", "scale", "cells")

    def __init__(self, space: QuadSpace, acc: Mapping[tuple[int, int], int], den: int):
        cells = {k: a for k, a in acc.items() if a}
        g = gcd(den, *cells.values())
        if g > 1:
            den //= g
            cells = {k: a // g for k, a in cells.items()}
        self.space = space
        self.scale = den
        self.cells = cells

    def __eq__(self, other) -> bool:
        return isinstance(other, Sym2Vector) and (self.space, self.scale, self.cells) == (
            other.space, other.scale, other.cells
        )

    @staticmethod
    def from_map(
        space: QuadSpace, coeffs: Mapping[tuple[int, int], RationalLike]
    ) -> "Sym2Vector":
        if any(i > j for i, j in coeffs):
            raise ValueError("monomial indices must satisfy i <= j")
        scale, cells = integer_cells(coeffs)
        return Sym2Vector(space, cells, scale)

    @property
    def coeffs(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """The ``(key, Fraction)`` pairs, in key order."""
        return tuple((k, Fraction(a, self.scale)) for k, a in sorted(self.cells.items()))

    def render(self) -> str:
        labels = self.space.labels
        parts = [
            f"{c}*{labels[i]}.{labels[j]}" for (i, j), c in self.coeffs
        ]
        return " + ".join(parts) if parts else "0"


def sym2_sum(
    space: QuadSpace, terms: Iterable[tuple[RationalLike, Sym2Vector]]
) -> Sym2Vector:
    """The class sum(c * x for c, x in terms), over one common denominator.

    Every term's integer coefficients are brought to the lcm of the terms'
    denominators and added as integers; the result is one ``Sym2Vector``
    with one ``Fraction`` per monomial.
    """
    parts = []
    den = 1
    for c, x in terms:
        if x.space is not space:
            raise ValueError("cannot add Sym2 vectors from different spaces")
        num, d = (c if type(c) is Fraction or type(c) is int else rat(c)).as_integer_ratio()
        if not num or not x.cells:
            continue
        d *= x.scale
        parts.append((num, d, x.cells))
        den = lcm(den, d)
    acc: dict[tuple[int, int], int] = {}
    for num, d, cells in parts:
        f = num * (den // d)
        for k, a in cells.items():
            acc[k] = acc.get(k, 0) + f * a
    return Sym2Vector(space, acc, den)


def sym2_product(
    space: QuadSpace,
    u: Sequence[RationalLike] | Mapping[int, RationalLike],
    v: Sequence[RationalLike] | Mapping[int, RationalLike],
) -> Sym2Vector:
    """The product of two degree-1 vectors as a Sym^2 class; a vector is
    given by its cells or as a ``{position: value}`` mapping of them."""
    u_scale, u_cells = integer_cells(u)
    v_scale, v_cells = integer_cells(v)
    acc: dict[tuple[int, int], int] = {}
    for i, a in u_cells.items():
        for j, b in v_cells.items():
            key = (i, j) if i <= j else (j, i)
            acc[key] = acc.get(key, 0) + a * b
    return Sym2Vector(space, acc, u_scale * v_scale)


def sym2_pair(x: Sym2Vector, y: Sym2Vector) -> Fraction:
    """Intersection pairing of two Sym^2 classes by the three-matching rule.

    On an orthogonal basis with squares q, (a*a, c*c) = q_a q_c +
    2 [a = c] q_a^2, (a*b, c*d) = [(a, b) = (c, d)] q_a q_b for a < b, and
    a squared monomial pairs to 0 with a mixed one.  So the pairing is the
    product of the traces sum x_aa q_a and sum y_cc q_c plus one weighted
    term per monomial that both classes carry.  The shorter class is
    scanned once, each of its monomials is looked up in the longer class's
    cells, and the longer class's trace is summed only when the shorter
    one's is not 0.  A zero pairing is ``ZERO``.
    """
    if x.space is not y.space:
        raise ValueError("cannot pair Sym2 vectors from different spaces")
    q_scale, q = x.space._scaled_squares
    short, long = (x, y) if len(x.cells) <= len(y.cells) else (y, x)
    long_cells = long.cells
    trace = shared = 0
    for key, c in short.cells.items():
        a, b = key
        if a == b:
            trace += c * q[a]
        d = long_cells.get(key)
        if d:
            shared += c * d * q[a] * q[b] * (2 if a == b else 1)
    if trace:
        trace *= sum([c * q[a] for (a, b), c in long_cells.items() if a == b])
    total = trace + shared
    if not total:
        return ZERO
    return Fraction(total, x.scale * y.scale * q_scale * q_scale)


def sym2_gram(vectors: Sequence[Sym2Vector]) -> Matrix:
    """Gram matrix of a family of Sym^2 classes under the three-matching pairing."""
    n = len(vectors)
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = sym2_pair(vectors[i], vectors[j])
            rows[i][j] = value
            rows[j][i] = value
    return Matrix(rows)


def qbar_dual(space: QuadSpace) -> Sym2Vector:
    """The dual class sum_i a_i^2 / q(a_i, a_i) of the orthogonal basis."""
    return Sym2Vector.from_map(
        space, {(i, i): 1 / q for i, q in enumerate(space.squares)}
    )
