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
stored form: its monomials, and their coefficients as integers over one
reduced common denominator.  Products and sums (``sym2_product`` and
``sym2_sum``, the one way to add or scale classes) accumulate integers
over one common denominator, and the pairing reads the squares scaled the
same way and builds one ``Fraction`` per value.  The ``Fraction``
coefficients (``coeffs``) are a view, built at each read; only rendering
a class and restricting an ambient class read it.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .linalg import ZERO, Matrix, RationalLike, rat, scaled_integers, support, vector


class QuadSpace:
    """Labelled orthogonal basis with the nonzero square of each vector.

    ``_scaled_squares`` is (L, L * squares) for the lcm L of the squares'
    denominators.  A space equals only itself: the same space is one object.
    """

    __slots__ = ("labels", "squares", "name", "_scaled_squares")

    def __init__(
        self, labels: tuple[str, ...], squares: Iterable[RationalLike], name: str = ""
    ):
        squares = vector(squares)
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
        scale, ints = scaled_integers(squares)
        self._scaled_squares = scale, tuple(ints)

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
    keeps the nonzero ones as sorted ``keys`` and their ``ints`` over
    ``scale``, with scale > 0 and gcd(scale, *ints) == 1, so equal fields
    on one space object mean equal classes.  ``coeffs`` is the ``(key,
    Fraction)`` view, built at each read.
    """

    __slots__ = ("space", "scale", "keys", "ints")

    def __init__(self, space: QuadSpace, acc: Mapping[tuple[int, int], int], den: int):
        keys = sorted(k for k, a in acc.items() if a)
        ints = [acc[k] for k in keys]
        g = gcd(den, *ints)
        self.space = space
        self.scale = den // g
        self.keys = tuple(keys)
        self.ints = tuple(a // g for a in ints)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sym2Vector) and (
            self.space, self.scale, self.keys, self.ints
        ) == (other.space, other.scale, other.keys, other.ints)

    @staticmethod
    def from_map(space: QuadSpace, coeffs: Mapping[tuple[int, int], Fraction]) -> "Sym2Vector":
        if any(i > j for i, j in coeffs):
            raise ValueError("monomial indices must satisfy i <= j")
        scale, ints = scaled_integers([rat(c) for c in coeffs.values()])
        return Sym2Vector(space, dict(zip(coeffs, ints)), scale)

    @property
    def coeffs(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """The ``(key, Fraction)`` pairs, in key order."""
        return tuple((k, Fraction(a, self.scale)) for k, a in zip(self.keys, self.ints))

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
        c = rat(c)
        if not c or not x.keys:
            continue
        d = c.denominator * x.scale
        parts.append((c.numerator, d, x.keys, x.ints))
        den = lcm(den, d)
    acc: dict[tuple[int, int], int] = {}
    for num, d, keys, ints in parts:
        f = num * (den // d)
        for k, a in zip(keys, ints):
            acc[k] = acc.get(k, 0) + f * a
    return Sym2Vector(space, acc, den)


def sym2_product(
    space: QuadSpace,
    u: Sequence[RationalLike],
    v: Sequence[RationalLike],
) -> Sym2Vector:
    """The product of two degree-1 vectors as a Sym^2 class."""
    uu, vv = vector(u), vector(v)
    u_index, v_index = support(uu), support(vv)
    u_scale, u_ints = scaled_integers([uu[i] for i in u_index])
    v_scale, v_ints = scaled_integers([vv[j] for j in v_index])
    acc: dict[tuple[int, int], int] = {}
    for i, a in zip(u_index, u_ints):
        for j, b in zip(v_index, v_ints):
            key = (i, j) if i <= j else (j, i)
            acc[key] = acc.get(key, 0) + a * b
    return Sym2Vector(space, acc, u_scale * v_scale)


def sym2_pair(x: Sym2Vector, y: Sym2Vector) -> Fraction:
    """Intersection pairing of two Sym^2 classes by the three-matching rule.

    On an orthogonal basis with squares q, (a*a, c*c) = q_a q_c +
    2 [a = c] q_a^2, (a*b, c*d) = [(a, b) = (c, d)] q_a q_b for a < b, and
    a squared monomial pairs to 0 with a mixed one.  So the pairing is the
    product of the traces sum x_aa q_a and sum y_cc q_c plus one weighted
    term per monomial of x that y also carries: one pass over each class.
    """
    if x.space is not y.space:
        raise ValueError("cannot pair Sym2 vectors from different spaces")
    q_scale, q = x.space._scaled_squares
    y_coeffs = dict(zip(y.keys, y.ints))
    x_trace = shared = 0
    for (a, b), xc in zip(x.keys, x.ints):
        if a == b:
            x_trace += xc * q[a]
        yc = y_coeffs.get((a, b))
        if yc:
            shared += xc * yc * q[a] * q[b] * (2 if a == b else 1)
    y_trace = sum(yc * q[c] for (c, d), yc in zip(y.keys, y.ints) if c == d)
    return Fraction(x_trace * y_trace + shared, x.scale * y.scale * q_scale * q_scale)


def sym2_gram(vectors: Sequence[Sym2Vector]) -> Matrix:
    """Gram matrix of a family of Sym^2 classes under the three-matching pairing."""
    n = len(vectors)
    rows = [[Fraction(0)] * n for _ in range(n)]
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
