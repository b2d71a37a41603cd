"""Rational quadratic spaces and their symmetric squares.

A :class:`QuadSpace` is a labelled basis together with a symmetric Gram
matrix.  Degree-4 classes on a K3[2]-type fourfold live in the symmetric
square of its second cohomology; their intersection numbers follow the
three-matching rule

    (a*b, c*d) = q(a,b) q(c,d) + q(a,c) q(b,d) + q(a,d) q(b,c)

extended bilinearly to monomials.  Monomials are normalised to index
pairs (i, j) with i <= j, and a product a_i * a_j with i != j is a single
monomial rather than a symmetrised half-sum, so squaring a sum doubles
every mixed coefficient.  All coefficients are exact rationals; the
pairing runs over the Gram matrix and coefficients scaled to integers and
builds one ``Fraction`` per result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .linalg import Matrix, RationalLike, format_rational, rat, scaled_integers


@dataclass(frozen=True)
class K3Hilb2Pack:
    """Intersection constants shared by all K3[2]-type fourfolds.

    fujiki_constant: C(1), the coefficient in integral gamma^4 = C q(gamma)^2
    qbar_fujiki: C(qbar), so integral qbar * a * b = C(qbar) q(a, b)
    qbar_square: integral of qbar^2
    c2_qbar_ratio: c2 = ratio * qbar
    c4_degree: degree of c4, the Euler characteristic
    """

    fujiki_constant: Fraction
    qbar_fujiki: Fraction
    qbar_square: Fraction
    c2_qbar_ratio: Fraction
    c4_degree: Fraction


@dataclass(frozen=True)
class QuadSpace:
    """Labelled basis with a symmetric rational Gram matrix."""

    labels: tuple[str, ...]
    gram: Matrix
    name: str = ""
    hilb2_pack: K3Hilb2Pack | None = None

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels in quadratic space")
        if self.gram.rows != n or self.gram.cols != n:
            raise ValueError("Gram matrix shape does not match label count")
        if self.gram != self.gram.transpose():
            raise ValueError("Gram matrix is not symmetric")

    @cached_property
    def _scaled_gram(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(L, rows of L * gram) for the lcm L of the Gram denominators."""
        n = self.dim
        scale, cells = scaled_integers([x for row in self.gram.entries for x in row])
        return scale, tuple(tuple(cells[i * n : (i + 1) * n]) for i in range(n))

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
        out = [Fraction(0)] * self.dim
        for label, c in coeffs.items():
            out[self.index(label)] = rat(c)
        return tuple(out)

    def basis_vector(self, label: str) -> tuple[Fraction, ...]:
        return self.vector({label: 1})

    def pair(self, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Fraction:
        """The bilinear form q(u, v); vectors must have length ``dim``."""
        return self.gram.pair(u, v)

    def is_orthogonal_basis(self) -> bool:
        return all(
            not self.gram[i][j]
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        )


@dataclass(frozen=True)
class Sym2Vector:
    """Element of Sym^2 of a quadratic space, as monomial coefficients.

    Keys are index pairs (i, j) with i <= j.  Zero coefficients are never
    stored, so equality of coefficient maps is equality of classes.
    """

    space: QuadSpace
    coeffs: tuple[tuple[tuple[int, int], Fraction], ...] = field(default=())

    @staticmethod
    def from_map(space: QuadSpace, coeffs: Mapping[tuple[int, int], Fraction]) -> "Sym2Vector":
        items = []
        for (i, j), c in coeffs.items():
            if i > j:
                raise ValueError("monomial indices must satisfy i <= j")
            c = rat(c)
            if c:
                items.append(((i, j), c))
        items.sort(key=lambda kv: kv[0])
        return Sym2Vector(space, tuple(items))

    def as_map(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.coeffs)

    def coefficient(self, label_a: str, label_b: str) -> Fraction:
        i, j = sorted((self.space.index(label_a), self.space.index(label_b)))
        return self.as_map().get((i, j), Fraction(0))

    def __add__(self, other: "Sym2Vector") -> "Sym2Vector":
        if other.space is not self.space:
            raise ValueError("cannot add Sym2 vectors from different spaces")
        m = self.as_map()
        for k, c in other.coeffs:
            m[k] = m.get(k, Fraction(0)) + c
        return Sym2Vector.from_map(self.space, m)

    def __sub__(self, other: "Sym2Vector") -> "Sym2Vector":
        return self + (-1) * other

    def __rmul__(self, scalar: RationalLike) -> "Sym2Vector":
        s = rat(scalar)
        return Sym2Vector.from_map(self.space, {k: s * c for k, c in self.coeffs})

    def render(self) -> str:
        labels = self.space.labels
        parts = [
            f"{format_rational(c)}*{labels[i]}.{labels[j]}" for (i, j), c in self.coeffs
        ]
        return " + ".join(parts) if parts else "0"


def sym2_product(
    space: QuadSpace,
    u: Sequence[RationalLike],
    v: Sequence[RationalLike],
) -> Sym2Vector:
    """The product of two degree-1 vectors as a Sym^2 class."""
    uu = [rat(x) for x in u]
    vv = [rat(x) for x in v]
    out: dict[tuple[int, int], Fraction] = {}
    for i, ui in enumerate(uu):
        if not ui:
            continue
        for j, vj in enumerate(vv):
            if not vj:
                continue
            key = (i, j) if i <= j else (j, i)
            out[key] = out.get(key, Fraction(0)) + ui * vj
    return Sym2Vector.from_map(space, out)


def sym2_square(space: QuadSpace, u: Sequence[RationalLike]) -> Sym2Vector:
    return sym2_product(space, u, u)


def _scaled_coeffs(x: Sym2Vector) -> tuple[int, list[tuple[tuple[int, int], int]]]:
    scale, ints = scaled_integers([c for _, c in x.coeffs])
    return scale, list(zip([k for k, _ in x.coeffs], ints))


def sym2_pair(x: Sym2Vector, y: Sym2Vector) -> Fraction:
    """Intersection pairing of two Sym^2 classes by the three-matching rule."""
    if x.space is not y.space:
        raise ValueError("cannot pair Sym2 vectors from different spaces")
    g_scale, g = x.space._scaled_gram
    x_scale, xs = _scaled_coeffs(x)
    y_scale, ys = _scaled_coeffs(y)
    total = 0
    for (a, b), xc in xs:
        ga, gb = g[a], g[b]
        gab = ga[b]
        for (c, d), yc in ys:
            t = gab * g[c][d] + ga[c] * gb[d] + ga[d] * gb[c]
            if t:
                total += xc * yc * t
    return Fraction(total, x_scale * y_scale * g_scale * g_scale)


def sym2_gram(space: QuadSpace, vectors: Sequence[Sym2Vector]) -> Matrix:
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
    """The dual class sum_i a_i^2 / q(a_i, a_i) of an orthogonal basis."""
    if not space.is_orthogonal_basis():
        raise ValueError("dual class requires an orthogonal basis")
    out = {}
    for i in range(space.dim):
        qii = space.gram[i][i]
        if not qii:
            raise ValueError(f"basis vector {space.labels[i]!r} is isotropic")
        out[(i, i)] = Fraction(1) / qii
    return Sym2Vector.from_map(space, out)


def k3two_fujiki_pair(
    space: QuadSpace,
    u: Sequence[RationalLike],
    v: Sequence[RationalLike],
) -> Fraction:
    """integral qbar * u * v on a K3[2]-type space, C(qbar) * q(u, v)."""
    if space.hilb2_pack is None:
        raise ValueError("space carries no K3[2] constant pack")
    return space.hilb2_pack.qbar_fujiki * space.pair(u, v)
