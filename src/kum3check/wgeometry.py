"""Intersection theory on one fixed fourfold and its nodal surfaces.

One fourfold W carries a rank-23 quadratic space: six classes restricted
from the ambient sixfold (squares +4 and -4 after the restriction factor),
sixteen exceptional s classes and one half-diagonal class delta, all of
square -2 and pairwise orthogonal.  The surface V cut out by a second
fourfold carries sixteen (-2)-curves, eight per side, indexed by cosets
of the difference label.

Everything numeric flows from a handful of geometric inputs: the square
of the half-exceptional class xi upstairs, its restrictions
xi|_W = 2*delta + (1/2)*sum(s) and xi|_V = sum of all sixteen curves,
the degrees c2(V) = 24 and c2(N_{V|W}) = 12, and the shared constants of
K3[2]-type fourfolds.  The module derives the restriction scaling factor,
the 19x19 intersection matrix of invariant degree-4 classes, the expansion
of the restricted dual class, the expansions of both fourfold classes
pulled back to W, and the pairings between the pushed-forward point-class
divisors d = iota_*(4s - delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .kummer import Pt, ZERO, add, two_torsion
from .linalg import Matrix, format_rational, rat, solve_linear
from .quadspace import (
    K3Hilb2Pack,
    QuadSpace,
    Sym2Vector,
    qbar_dual,
    sym2_gram,
    sym2_pair,
    sym2_product,
)


def _bits(p: Pt) -> str:
    return "".join("1" if x else "0" for x in p)


def s_label(alpha: Pt) -> str:
    return f"s{_bits(alpha)}"


ALPHAS: tuple[Pt, ...] = two_torsion()
THETAS: tuple[Pt, ...] = tuple(t for t in ALPHAS if t != ZERO)


# ---------------------------------------------------------------------------
# the restriction factor, from exceptional classes alone

def nodal_space() -> QuadSpace:
    """The s classes and delta: seventeen orthogonal (-2)-classes."""
    labels = tuple(s_label(a) for a in ALPHAS) + ("delta",)
    n = len(labels)
    gram = Matrix(
        [[Fraction(-2) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )
    return QuadSpace(labels=labels, gram=gram, name="nodal")


def xi_restriction_on(space: QuadSpace) -> tuple[Fraction, ...]:
    """The class 2*delta + (1/2) * sum of the s classes."""
    coeffs = {s_label(a): Fraction(1, 2) for a in ALPHAS}
    coeffs["delta"] = Fraction(2)
    return space.vector(coeffs)


@dataclass(frozen=True)
class RestrictionFactor:
    """Scaling between the ambient form and a fourfold form."""

    c_w_component: Fraction
    factor: Fraction
    xi_restriction_square: Fraction
    trail: tuple[str, ...]


def derive_restriction_factor(
    pack: K3Hilb2Pack, xi_square: Fraction
) -> RestrictionFactor:
    """Fujiki constant of one fourfold class, then the quadratic scaling.

    integral_X w * xi^4 pushes to integral_W (xi|_W)^4, whose value needs
    only the exceptional part of the W lattice.  Equality of the two Fujiki
    evaluations pins C(w) and forces q_W(restriction) = factor * q_X.
    """
    nodal = nodal_space()
    xi_w = xi_restriction_on(nodal)
    xi_w_square = nodal.pair(xi_w, xi_w)
    c_w = pack.fujiki_constant * xi_w_square**2 / xi_square**2
    factor_sq = c_w / pack.fujiki_constant
    root = _exact_sqrt(factor_sq)
    trail = (
        f"q(xi|_W) = {format_rational(xi_w_square)} from the exceptional classes",
        f"C(w) * {format_rational(xi_square**2)} = "
        f"{format_rational(pack.fujiki_constant)} * {format_rational(xi_w_square**2)}"
        f" -> C(w) = {format_rational(c_w)}",
        f"scaling factor = sqrt(C(w)/{format_rational(pack.fujiki_constant)})"
        f" = {format_rational(root)} (positive square on Kaehler classes)",
    )
    return RestrictionFactor(
        c_w_component=c_w,
        factor=root,
        xi_restriction_square=xi_w_square,
        trail=trail,
    )


def _exact_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise ValueError("no rational square root of a negative number")
    from math import isqrt

    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn != x.numerator or pd * pd != x.denominator:
        raise ValueError(f"{x} is not a rational square")
    return Fraction(pn, pd)


# ---------------------------------------------------------------------------
# the fourfold model and its 19 invariant degree-4 classes

@dataclass(frozen=True)
class WModel:
    space: QuadSpace
    factor: Fraction
    basis: tuple[Sym2Vector, ...]
    basis_names: tuple[str, ...]
    xi_restriction: tuple[Fraction, ...]

    @property
    def alphas(self) -> tuple[Pt, ...]:
        return ALPHAS

    @property
    def thetas(self) -> tuple[Pt, ...]:
        return THETAS

    def s_index(self, alpha: Pt) -> int:
        return self.space.index(s_label(alpha))

    def theta_position(self, theta: Pt) -> int:
        return 3 + THETAS.index(theta)


PLUS_LABELS = ("lp1", "lp2", "lp3")
MINUS_LABELS = ("lm1", "lm2", "lm3")


def build_w_model(pack: K3Hilb2Pack, factor: Fraction) -> WModel:
    labels = (
        PLUS_LABELS + MINUS_LABELS + tuple(s_label(a) for a in ALPHAS) + ("delta",)
    )
    squares = (
        [2 * factor] * 3 + [-2 * factor] * 3 + [Fraction(-2)] * 17
    )
    n = len(labels)
    gram = Matrix(
        [[squares[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )
    space = QuadSpace(labels=labels, gram=gram, name="fourfold", hilb2_pack=pack)

    s_idx = [space.index(s_label(a)) for a in ALPHAS]
    d_idx = space.index("delta")
    pos = {a: i for a, i in zip(ALPHAS, s_idx)}

    vectors = [qbar_dual(space)]
    names = ["qbar_W"]
    vectors.append(Sym2Vector.from_map(space, {(d_idx, d_idx): Fraction(1)}))
    names.append("delta^2")
    vectors.append(
        Sym2Vector.from_map(space, {(i, i): Fraction(1) for i in s_idx})
    )
    names.append("sum s^2")
    for theta in THETAS:
        coeffs: dict[tuple[int, int], Fraction] = {}
        for alpha in ALPHAS:
            i, j = pos[alpha], pos[add(alpha, theta)]
            key = (i, j) if i <= j else (j, i)
            coeffs[key] = coeffs.get(key, Fraction(0)) + 1
        vectors.append(Sym2Vector.from_map(space, coeffs))
        names.append(f"sum s*s[{_bits(theta)}]")
    vectors.append(
        Sym2Vector.from_map(
            space, {(min(d_idx, i), max(d_idx, i)): Fraction(1) for i in s_idx}
        )
    )
    names.append("delta*sum s")

    return WModel(
        space=space,
        factor=factor,
        basis=tuple(vectors),
        basis_names=tuple(names),
        xi_restriction=xi_restriction_on(space),
    )


def expected_gram19() -> Matrix:
    """The printed intersection matrix of the 19 invariant classes."""
    n = 19
    rows = [[Fraction(0)] * n for _ in range(n)]
    head = [
        [575, -50, -800],
        [-50, 12, 64],
        [-800, 64, 1152],
    ]
    for i in range(3):
        for j in range(3):
            rows[i][j] = Fraction(head[i][j])
    for k in range(3, 18):
        rows[k][k] = Fraction(128)
    rows[18][18] = Fraction(64)
    return Matrix(rows)


def build_gram19(model: WModel) -> Matrix:
    return sym2_gram(model.space, model.basis)


def combination(model: WModel, coeffs: Sequence[Fraction]) -> Sym2Vector:
    total = Sym2Vector.from_map(model.space, {})
    for c, vec in zip(coeffs, model.basis):
        if c:
            total = total + rat(c) * vec
    return total


def expand_in_basis(model: WModel, x: Sym2Vector) -> tuple[Fraction, ...]:
    """Coefficients of x over the 19 classes, by monomial matching.

    The decomposition is rigid: the dual-class coefficient is read off the
    lambda squares, which must be uniform with opposite signs, and every
    remaining monomial family must be constant.  Raises when x is not in
    the span.
    """
    space = model.space
    m = x.as_map()

    def take(i: int, j: int) -> Fraction:
        key = (i, j) if i <= j else (j, i)
        return m.pop(key, Fraction(0))

    plus_sq = [take(space.index(l), space.index(l)) for l in PLUS_LABELS]
    minus_sq = [take(space.index(l), space.index(l)) for l in MINUS_LABELS]
    if len(set(plus_sq)) != 1 or len(set(minus_sq)) != 1:
        raise ValueError("lambda square coefficients are not uniform")
    if minus_sq[0] != -plus_sq[0]:
        raise ValueError("lambda square coefficients do not mirror")
    a = 4 * plus_sq[0]

    s_idx = [model.s_index(alpha) for alpha in ALPHAS]
    d_idx = space.index("delta")
    b = take(d_idx, d_idx) + a / 2
    s_sq = [take(i, i) for i in s_idx]
    if len(set(s_sq)) != 1:
        raise ValueError("s square coefficients are not uniform")
    c = s_sq[0] + a / 2

    pos = {alpha: i for alpha, i in zip(ALPHAS, s_idx)}
    d_coeffs = []
    for theta in THETAS:
        vals = set()
        for alpha in ALPHAS:
            beta = add(alpha, theta)
            if alpha < beta:
                vals.add(take(pos[alpha], pos[beta]))
        if len(vals) != 1:
            raise ValueError(f"mixed s coefficients not uniform at shift {_bits(theta)}")
        d_coeffs.append(vals.pop() / 2)

    e_vals = {take(d_idx, i) for i in s_idx}
    if len(e_vals) != 1:
        raise ValueError("delta*s coefficients are not uniform")
    e = e_vals.pop()

    leftover = {k: v for k, v in m.items() if v}
    if leftover:
        raise ValueError(f"monomials outside the invariant span: {sorted(leftover)}")

    coeffs = (a, b, c, *d_coeffs, e)
    if (combination(model, coeffs) - x).coeffs:
        raise ValueError("basis expansion failed to reproduce the class")
    return coeffs


# ---------------------------------------------------------------------------
# the ambient rank-7 space and the restricted dual class

def ambient_h2_space(xi_square: Fraction) -> QuadSpace:
    """Rank-7 space of the sixfold: three +2, three -2, and xi."""
    labels = ("y1", "y2", "y3", "z1", "z2", "z3", "xi")
    squares = [Fraction(2)] * 3 + [Fraction(-2)] * 3 + [rat(xi_square)]
    gram = Matrix(
        [[squares[i] if i == j else Fraction(0) for j in range(7)] for i in range(7)]
    )
    return QuadSpace(labels=labels, gram=gram, name="ambient")


def restriction_images(model: WModel) -> dict[str, tuple[Fraction, ...]]:
    images = {}
    for src, dst in zip(("y1", "y2", "y3"), PLUS_LABELS):
        images[src] = model.space.basis_vector(dst)
    for src, dst in zip(("z1", "z2", "z3"), MINUS_LABELS):
        images[src] = model.space.basis_vector(dst)
    images["xi"] = model.xi_restriction
    return images


def restrict_sym2(model: WModel, ambient: QuadSpace, x: Sym2Vector) -> Sym2Vector:
    """Push a degree-4 class of the sixfold into Sym^2 of the fourfold."""
    images = restriction_images(model)
    total = Sym2Vector.from_map(model.space, {})
    for (i, j), coeff in x.coeffs:
        u = images[ambient.labels[i]]
        v = images[ambient.labels[j]]
        total = total + coeff * sym2_product(model.space, u, v)
    return total


def restriction_is_similitude(model: WModel, ambient: QuadSpace) -> bool:
    """q_W(images) = factor * q_X on every pair of basis vectors."""
    images = restriction_images(model)
    for i, a in enumerate(ambient.labels):
        for j, b in enumerate(ambient.labels):
            got = model.space.pair(images[a], images[b])
            want = model.factor * ambient.gram[i][j]
            if got != want:
                return False
    return True


@dataclass(frozen=True)
class QbarRestriction:
    coeffs: tuple[Fraction, ...]
    sym2: Sym2Vector
    trail: tuple[str, ...]


def restrict_qbar(model: WModel, ambient: QuadSpace) -> QbarRestriction:
    """Expand the restricted ambient dual class over the 19 classes."""
    dual = qbar_dual(ambient)
    restricted = restrict_sym2(model, ambient, dual)
    coeffs = expand_in_basis(model, restricted)
    trail = (
        "ambient dual class = " + dual.render(),
        "restriction expanded over the invariant classes: "
        + ", ".join(format_rational(c) for c in coeffs[:3])
        + ", shifts "
        + format_rational(coeffs[3])
        + ", mixed "
        + format_rational(coeffs[18]),
    )
    return QbarRestriction(coeffs=coeffs, sym2=restricted, trail=trail)


# ---------------------------------------------------------------------------
# the surface cut out by a second fourfold

@dataclass(frozen=True)
class VModel:
    """Sixteen (-2)-curves on the surface V, eight per fourfold side."""

    space: QuadSpace
    theta: Pt
    near_cosets: tuple[tuple[Pt, Pt], ...]
    far_labels: tuple[str, ...]

    def near_vector(self, alpha: Pt) -> tuple[Fraction, ...]:
        for coset in self.near_cosets:
            if alpha in coset:
                return self.space.basis_vector(f"ra{_bits(coset[0])}")
        raise KeyError(f"{alpha} is not a two-torsion label")

    def delta_vector(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.space.dim
        for label in self.far_labels:
            out[self.space.index(label)] = Fraction(1, 2)
        return tuple(out)

    def xi_vector(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(1) for _ in range(self.space.dim))


def build_v_model(theta: Pt) -> VModel:
    if theta == ZERO:
        raise ValueError("the two fourfolds must have distinct labels")
    cosets = []
    seen = set()
    for alpha in ALPHAS:
        if alpha in seen:
            continue
        beta = add(alpha, theta)
        seen.update({alpha, beta})
        cosets.append((min(alpha, beta), max(alpha, beta)))
    near_labels = tuple(f"ra{_bits(c[0])}" for c in cosets)
    far_labels = tuple(f"rb{_bits(c[0])}" for c in cosets)
    labels = near_labels + far_labels
    n = len(labels)
    gram = Matrix(
        [[Fraction(-2) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )
    return VModel(
        space=QuadSpace(labels=labels, gram=gram, name="surface"),
        theta=theta,
        near_cosets=tuple(cosets),
        far_labels=far_labels,
    )


@dataclass(frozen=True)
class VRestrictionData:
    delta_sq: Fraction
    delta_s: Fraction
    s_pair_same_coset: Fraction
    s_pair_other: Fraction
    xi_sq: Fraction
    c_v_pair: Fraction
    c2_restriction_degree: Fraction
    compositions_agree: bool
    trail: tuple[str, ...]


def v_restriction_data(
    vm: VModel,
    xi_square: Fraction,
    deg_c2_v: Fraction,
    deg_c2_nvw: Fraction,
) -> VRestrictionData:
    """Surface-level pairings and the two constants they determine.

    The Fujiki constant of a pair class is integral (xi|_V)^2 / q(xi),
    and the degree of the restricted second Chern class is the sum of
    the surface term and both normal-bundle terms.
    """
    sp = vm.space
    delta = vm.delta_vector()
    delta_sq = sp.pair(delta, delta)
    alpha0 = ALPHAS[0]
    delta_s = sp.pair(delta, vm.near_vector(alpha0))
    same = sp.pair(vm.near_vector(alpha0), vm.near_vector(add(alpha0, vm.theta)))
    same_self = sp.pair(vm.near_vector(alpha0), vm.near_vector(alpha0))
    if same != same_self:
        raise ValueError("curve classes in one coset do not pair equally")
    other = sp.pair(vm.near_vector(alpha0), vm.near_vector(_other_alpha(vm)))
    xi_v = vm.xi_vector()
    xi_sq = sp.pair(xi_v, xi_v)
    c_v = xi_sq / xi_square

    composed = [2 * d + s for d, s in zip(delta, _sum_of_near(vm))]
    agree = tuple(composed) == xi_v
    swapped = [2 * f + n for f, n in zip(_half_sum_far_as_delta(vm), _sum_of_far(vm))]
    agree = agree and tuple(swapped) == xi_v

    c2_deg = deg_c2_v + 2 * deg_c2_nvw
    trail = (
        f"(delta|_V)^2 = {format_rational(delta_sq)}, xi|_V squared = {format_rational(xi_sq)}",
        f"C(pair class) = {format_rational(xi_sq)} / {format_rational(xi_square)} "
        f"= {format_rational(c_v)}",
        f"c2 restricted to V has degree {format_rational(deg_c2_v)} + "
        f"2*{format_rational(deg_c2_nvw)} = {format_rational(c2_deg)}",
    )
    return VRestrictionData(
        delta_sq=delta_sq,
        delta_s=delta_s,
        s_pair_same_coset=same,
        s_pair_other=other,
        xi_sq=xi_sq,
        c_v_pair=c_v,
        c2_restriction_degree=c2_deg,
        compositions_agree=agree,
        trail=trail,
    )


def _other_alpha(vm: VModel) -> Pt:
    alpha0 = ALPHAS[0]
    for alpha in ALPHAS:
        if alpha not in (alpha0, add(alpha0, vm.theta)):
            return alpha
    raise AssertionError


def _sum_of_near(vm: VModel) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * vm.space.dim
    for alpha in ALPHAS:
        vec = vm.near_vector(alpha)
        out = [a + Fraction(1, 2) * b for a, b in zip(out, vec)]
    return tuple(out)


def _sum_of_far(vm: VModel) -> tuple[Fraction, ...]:
    # the far side is a torsor over the same cosets: each class appears twice
    out = [Fraction(0)] * vm.space.dim
    for label in vm.far_labels:
        out[vm.space.index(label)] = Fraction(1)
    return tuple(out)


def _half_sum_far_as_delta(vm: VModel) -> tuple[Fraction, ...]:
    # seen from the other fourfold, its delta restricts to half the near sum
    out = [Fraction(0)] * vm.space.dim
    for coset in vm.near_cosets:
        out[vm.space.index(f"ra{_bits(coset[0])}")] = Fraction(1, 2)
    return tuple(out)


# ---------------------------------------------------------------------------
# restriction of the other fourfold's class

@dataclass(frozen=True)
class WOtherRestriction:
    theta: Pt
    coeffs: tuple[Fraction, ...]
    rhs: tuple[Fraction, ...]
    qbar_pairing: Fraction
    trail: tuple[str, ...]


def restrict_w_other(
    model: WModel,
    gram: Matrix,
    pack: K3Hilb2Pack,
    theta: Pt,
    deg_c2_v: Fraction,
    deg_c2_nvw: Fraction,
    xi_square: Fraction,
) -> WOtherRestriction:
    """Expand the class of a second fourfold over the 19 classes.

    Against every class built from s and delta, the pairing restricts to
    the surface V and is read off the curve Gram; against the dual class,
    it is (c2 route) the surface Euler degree plus one normal-bundle term,
    scaled by the c2-to-dual ratio.  The 19x19 system then has a unique
    solution.
    """
    vm = build_v_model(theta)
    data = v_restriction_data(vm, xi_square, deg_c2_v, deg_c2_nvw)
    if not data.compositions_agree:
        raise ValueError("xi restrictions to the surface disagree between the two sides")

    images: dict[str, tuple[Fraction, ...]] = {"delta": vm.delta_vector()}
    for alpha in ALPHAS:
        images[s_label(alpha)] = vm.near_vector(alpha)

    qbar_rhs = (deg_c2_v + deg_c2_nvw) / pack.c2_qbar_ratio
    rhs = [qbar_rhs]
    for vec in model.basis[1:]:
        total = Fraction(0)
        for (i, j), coeff in vec.coeffs:
            total += coeff * vm.space.pair(
                images[model.space.labels[i]], images[model.space.labels[j]]
            )
        rhs.append(total)

    solved = solve_linear(gram, rhs)
    if not solved.ok:
        raise ValueError(f"singular intersection matrix: {solved.detail}")
    trail = data.trail + (
        f"dual-class pairing = ({format_rational(deg_c2_v)} + "
        f"{format_rational(deg_c2_nvw)}) / {format_rational(pack.c2_qbar_ratio)} "
        f"= {format_rational(qbar_rhs)}",
        "unique solution of the 19x19 pairing system",
    )
    return WOtherRestriction(
        theta=theta,
        coeffs=solved.solution,
        rhs=tuple(rhs),
        qbar_pairing=qbar_rhs,
        trail=trail,
    )


# ---------------------------------------------------------------------------
# the shifted divisor classes and the self-restriction

@dataclass(frozen=True)
class SPrimeVectors:
    """Sums over the shifted divisors s' = 4s - delta, in the 19 basis."""

    sum_squares: tuple[Fraction, ...]
    sum_mixed_all: tuple[Fraction, ...]
    per_theta: tuple[tuple[Fraction, ...], ...]
    identity_holds: bool


def s_prime_vector(model: WModel, alpha: Pt) -> tuple[Fraction, ...]:
    coeffs = {s_label(alpha): Fraction(4), "delta": Fraction(-1)}
    return model.space.vector(coeffs)


def s_prime_vectors(model: WModel) -> SPrimeVectors:
    """Expand sum_a s'_a s'_(a+shift) and check the change-of-basis identity.

    For every shift, the sum must equal 16*delta^2 + 16*(mixed s sum at
    that shift) - 8*delta*sum(s); the shift-0 case replaces the mixed sum
    by sum s^2.
    """
    sp = model.space
    svecs = {alpha: s_prime_vector(model, alpha) for alpha in ALPHAS}

    def sprime_sum(theta: Pt) -> Sym2Vector:
        total = Sym2Vector.from_map(sp, {})
        for alpha in ALPHAS:
            total = total + sym2_product(sp, svecs[alpha], svecs[add(alpha, theta)])
        return total

    identity = True
    sum_sq = expand_in_basis(model, sprime_sum(ZERO))
    want0 = [Fraction(0)] * 19
    want0[1], want0[2], want0[18] = Fraction(16), Fraction(16), Fraction(-8)
    identity &= list(sum_sq) == want0

    per_theta = []
    total_mixed = [Fraction(0)] * 19
    for theta in THETAS:
        coeffs = expand_in_basis(model, sprime_sum(theta))
        want = [Fraction(0)] * 19
        want[1], want[18] = Fraction(16), Fraction(-8)
        want[model.theta_position(theta)] = Fraction(16)
        identity &= list(coeffs) == want
        per_theta.append(coeffs)
        total_mixed = [a + b for a, b in zip(total_mixed, coeffs)]

    return SPrimeVectors(
        sum_squares=sum_sq,
        sum_mixed_all=tuple(total_mixed),
        per_theta=tuple(per_theta),
        identity_holds=identity,
    )


@dataclass(frozen=True)
class WSelfRestriction:
    """The fourfold's own class pulled back, i.e. its normal bundle c2."""

    coeffs: tuple[Fraction, ...]
    eta: Fraction
    beta: Fraction
    gamma: Fraction
    system: Matrix
    rhs: tuple[Fraction, ...]
    qbar_pairing: Fraction          # against the fourfold dual class
    self_square: Fraction           # cube of the fourfold class upstairs
    pair_with_other: Fraction       # square of own class against another fourfold
    other_self_square: Fraction     # other restriction squared
    other_cross: Fraction           # two distinct other restrictions
    ambient_dual_pairing: Fraction  # against the restricted ambient dual
    shift_uniformity_ok: bool
    trail: tuple[str, ...]


def restrict_w_self(
    model: WModel,
    gram: Matrix,
    pack: K3Hilb2Pack,
    qbar_rest: QbarRestriction,
    others: Sequence[WOtherRestriction],
    c4_w_component: Fraction,
    w_sq_w_other: Fraction,
    qbar_w_sq: Fraction,
) -> WSelfRestriction:
    """Solve for the self-restriction over the deformation-stable ansatz.

    The class lies in the span of the restricted ambient dual and the
    shifted-divisor sums; shift coefficients away from zero must agree
    because the class pairs equally with every other fourfold.  Three
    pairings (with the fourfold dual, the sum of all other restrictions,
    and the restricted ambient dual) determine the three coefficients.
    """
    sprime = s_prime_vectors(model)
    g1 = qbar_rest.coeffs
    g2 = sprime.sum_squares
    g3 = sprime.sum_mixed_all

    others_by_theta = {o.theta: o.coeffs for o in others}
    if set(others_by_theta) != set(THETAS):
        raise ValueError("need the restriction of every other fourfold")
    other_sum = [Fraction(0)] * 19
    for coeffs in others_by_theta.values():
        other_sum = [a + b for a, b in zip(other_sum, coeffs)]

    # the class pairs equally with every other fourfold, so it pairs to zero
    # with any difference of two of them; on the shifted-divisor sums that
    # pairing is supported at the two shifts with opposite nonzero values,
    # which forces one shared coefficient for all nonzero shifts
    uniform_ok = True
    t0, t1 = THETAS[0], THETAS[1]
    diff = [
        a - b for a, b in zip(others_by_theta[t0], others_by_theta[t1])
    ]
    base = gram.pair(sprime.per_theta[THETAS.index(t0)], diff)
    # support value fixed by the shifted-divisor normalisation: each other
    # fourfold carries its shift block with weight -16 * (128/4)
    if base != -16 * Fraction(128, 4):
        uniform_ok = False
    for k, theta in enumerate(THETAS):
        got = gram.pair(sprime.per_theta[k], diff)
        want = base if theta == t0 else (-base if theta == t1 else Fraction(0))
        if got != want:
            uniform_ok = False

    e_qbar = tuple(
        Fraction(1) if i == 0 else Fraction(0) for i in range(19)
    )
    tests = (e_qbar, tuple(other_sum), g1)
    generators = (g1, g2, g3)
    system = Matrix(
        [[gram.pair(t, g) for g in generators] for t in tests]
    )
    qbar_rhs = (c4_w_component - pack.c4_degree) / pack.c2_qbar_ratio
    rhs = (qbar_rhs, len(THETAS) * w_sq_w_other, qbar_w_sq)
    solved = solve_linear(system, rhs)
    if not solved.ok:
        raise ValueError(f"self-restriction system not solvable: {solved.detail}")
    eta, beta, gamma = solved.solution

    final = tuple(
        eta * a + beta * b + gamma * c for a, b, c in zip(g1, g2, g3)
    )
    pair_other_values = {
        gram.pair(final, coeffs) for coeffs in others_by_theta.values()
    }
    if len(pair_other_values) != 1:
        raise ValueError("self-restriction does not pair equally with the others")
    cross_values = set()
    self_other_values = set()
    for ta in THETAS:
        self_other_values.add(
            gram.pair(others_by_theta[ta], others_by_theta[ta])
        )
        for tb in THETAS:
            if ta < tb:
                cross_values.add(
                    gram.pair(others_by_theta[ta], others_by_theta[tb])
                )
    if len(cross_values) != 1 or len(self_other_values) != 1:
        raise ValueError("pairings among other-fourfold restrictions are not uniform")

    trail = (
        f"dual-class pairing = ({format_rational(c4_w_component)} - "
        f"{format_rational(pack.c4_degree)}) / {format_rational(pack.c2_qbar_ratio)} "
        f"= {format_rational(qbar_rhs)}",
        f"sum over other fourfolds pairs to {len(THETAS)}*"
        f"{format_rational(w_sq_w_other)} = {format_rational(rhs[1])}",
        f"coefficients eta = {format_rational(eta)}, beta = {format_rational(beta)}, "
        f"gamma = {format_rational(gamma)}",
    )
    return WSelfRestriction(
        coeffs=final,
        eta=eta,
        beta=beta,
        gamma=gamma,
        system=system,
        rhs=rhs,
        qbar_pairing=gram.pair(final, e_qbar),
        self_square=gram.pair(final, final),
        pair_with_other=pair_other_values.pop(),
        other_self_square=self_other_values.pop(),
        other_cross=cross_values.pop(),
        ambient_dual_pairing=gram.pair(final, g1),
        shift_uniformity_ok=uniform_ok,
        trail=trail,
    )


# ---------------------------------------------------------------------------
# pairings of the pushed-forward divisor classes

@dataclass(frozen=True)
class DPairings:
    diagonal: Fraction
    same_block: Fraction
    uniform: bool
    trail: tuple[str, ...]


def d_self_pairings(model: WModel, self_coeffs: Sequence[Fraction]) -> DPairings:
    """Pairings of two divisor push-forwards from the same fourfold.

    By the projection formula these are integrals over the fourfold of
    (own class restriction) * s'_a * s'_b, so they only need the 19-class
    expansion of the self-restriction.
    """
    w_self = combination(model, self_coeffs)
    sp = model.space
    svecs = {alpha: s_prime_vector(model, alpha) for alpha in ALPHAS}

    diag_vals = set()
    off_vals = set()
    for i, a in enumerate(ALPHAS):
        for j, b in enumerate(ALPHAS):
            if j < i:
                continue
            value = sym2_pair(w_self, sym2_product(sp, svecs[a], svecs[b]))
            (diag_vals if i == j else off_vals).add(value)
    uniform = len(diag_vals) == 1 and len(off_vals) == 1
    diagonal = diag_vals.pop()
    same_block = off_vals.pop()
    trail = (
        f"divisor self-pairing {format_rational(diagonal)}, "
        f"same-fourfold pairing {format_rational(same_block)}, "
        f"uniform over all label choices: {uniform}",
    )
    return DPairings(
        diagonal=diagonal, same_block=same_block, uniform=uniform, trail=trail
    )
