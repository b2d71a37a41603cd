"""Intersection theory on one fixed fourfold and its nodal surfaces.

One fourfold W carries a rank-23 quadratic space: six classes restricted
from the ambient sixfold (squares +4 and -4 after the restriction factor),
sixteen exceptional s classes and one half-diagonal class delta, all of
square -2 and pairwise orthogonal.  The surface V cut out by a second
fourfold is one fixed space of sixteen orthogonal (-2)-curves, eight per
side.  Only the labelling of each side's curves by the cosets of the
difference label theta depends on theta: ``surface_slots(theta)`` maps
each s class and delta to one of nine slots, and each side's nine images
are one fixed tuple.  The surface constants are derived once per
document, for the first theta, and each theta builds only its slot map,
which depends on no document; the tests check it for every theta.

Everything numeric flows from a handful of geometric inputs: the square
of the half-exceptional class xi upstairs, its restrictions
xi|_W = 2*delta + (1/2)*sum(s) and xi|_V = sum of all sixteen curves,
the degrees c2(V) = 24 and c2(N_{V|W}) = 12, and the shared constants of
K3[2]-type fourfolds.  The module derives the restriction scaling factor,
the 19x19 intersection matrix of invariant degree-4 classes, the expansion
of the restricted dual class, the expansions of both fourfold classes
pulled back to W, and the pairings between the pushed-forward point-class
divisors d = iota_*(4s - delta).

The 19 invariant classes come in one order, named once next to
``build_w_model``: the dual class qbar_W (``QBAR``), delta^2 (``DELTA_SQ``),
sum s^2 (``S_SQ``), the mixed sum sum s*s[theta] of each of the fifteen
shifts theta (``MIXED[theta]``, in ``kummer.THETAS`` order) and delta*sum s
(``DELTA_S``).  Every coefficient vector over the 19 classes is indexed
through these names, and every label through ``kummer``'s tables, which
this module imports and does not restate.  Only qbar_W carries the lambda squares (of the six
restricted classes), and the other 18 classes have pairwise disjoint
monomials, so ``expand_in_basis`` needs no value of the restriction factor.
"""

from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Mapping, NamedTuple, Sequence

from .kummer import ALPHAS, COSETS, SHIFTED, THETAS, Pt
from .linalg import (
    ZERO,
    Matrix,
    RationalLike,
    combine,
    rat,
    solve_linear,
)
from .quadspace import (
    QuadSpace,
    Sym2Vector,
    qbar_dual,
    sym2_gram,
    sym2_pair,
    sym2_product,
    sym2_sum,
)


def _bits(p: Pt) -> str:
    return "".join("1" if x else "0" for x in p)


def s_label(alpha: Pt) -> str:
    return f"s{_bits(alpha)}"


# the label of the s class of each alpha, by position in ALPHAS
S_LABELS: tuple[str, ...] = tuple(map(s_label, ALPHAS))

# xi|_W = 2*delta + (1/2) * sum of the s classes, by label
XI_ON_W: dict[str, Fraction] = {**dict.fromkeys(S_LABELS, Fraction(1, 2)), "delta": Fraction(2)}


# ---------------------------------------------------------------------------
# the restriction factor, from exceptional classes alone

def nodal_space() -> QuadSpace:
    """The s classes and delta: seventeen orthogonal (-2)-classes."""
    labels = S_LABELS + ("delta",)
    return QuadSpace(labels, (Fraction(-2),) * len(labels), "nodal")


class RestrictionFactor(NamedTuple):
    """Scaling between the ambient form and a fourfold form."""

    c_w_component: Fraction
    factor: Fraction
    xi_restriction_square: Fraction
    trail: tuple[str, ...]


def derive_restriction_factor(
    fujiki_constant: Fraction, xi_square: Fraction
) -> RestrictionFactor:
    """Fujiki constant of one fourfold class, then the quadratic scaling.

    integral_X w * xi^4 pushes to integral_W (xi|_W)^4, whose value needs
    only the exceptional part of the W lattice.  Equality of the two Fujiki
    evaluations pins C(w) and forces q_W(restriction) = factor * q_X, where
    ``fujiki_constant`` is C(1) of a K3[2]-type fourfold (integral
    gamma^4 = C(1) q(gamma)^2).
    """
    nodal = nodal_space()
    xi_w = nodal.vector(XI_ON_W)
    xi_w_square = nodal.pair(xi_w, xi_w)
    c_w = fujiki_constant * xi_w_square**2 / xi_square**2
    # C(w)/C(1) is the square of q(xi|_W)/xi_square, so its positive root is
    # that square over |q(xi|_W)/xi_square|
    root = c_w / fujiki_constant * abs(xi_square / xi_w_square)
    trail = (
        f"q(xi|_W) = {xi_w_square} from the exceptional classes",
        f"C(w) * {xi_square**2} = "
        f"{fujiki_constant} * {xi_w_square**2}"
        f" -> C(w) = {c_w}",
        f"scaling factor = sqrt(C(w)/{fujiki_constant})"
        f" = {root} (positive square on Kaehler classes)",
    )
    return RestrictionFactor(
        c_w_component=c_w,
        factor=root,
        xi_restriction_square=xi_w_square,
        trail=trail,
    )


# ---------------------------------------------------------------------------
# the fourfold model and its 19 invariant degree-4 classes

class WModel(NamedTuple):
    space: QuadSpace
    factor: Fraction
    basis: tuple[Sym2Vector, ...]
    # each basis class's least monomial and its integer cell, which
    # ``expand_in_basis`` reads
    leads: tuple[tuple[tuple[int, int], int], ...]


PLUS_LABELS = ("lp1", "lp2", "lp3")
MINUS_LABELS = ("lm1", "lm2", "lm3")

# positions of the 19 invariant classes in the basis
QBAR, DELTA_SQ, S_SQ, DELTA_S = 0, 1, 2, 18
MIXED: dict[Pt, int] = {theta: 3 + k for k, theta in enumerate(THETAS)}
CLASS_COUNT = 19


def class_coeffs(values: Mapping[int, RationalLike]) -> tuple[Fraction, ...]:
    """Coefficients over the 19 classes: ``values`` by position, ``ZERO``
    elsewhere."""
    return tuple(rat(values[k]) if k in values else ZERO for k in range(CLASS_COUNT))


def build_w_model(factor: Fraction) -> WModel:
    labels = PLUS_LABELS + MINUS_LABELS + S_LABELS + ("delta",)
    squares = (2 * factor,) * 3 + (-2 * factor,) * 3 + (Fraction(-2),) * 17
    space = QuadSpace(labels, squares, "fourfold")

    s_idx = [space.index(label) for label in S_LABELS]
    d_idx = space.index("delta")

    vectors = {
        QBAR: qbar_dual(space),
        DELTA_SQ: Sym2Vector.from_map(space, {(d_idx, d_idx): 1}),
        S_SQ: Sym2Vector.from_map(space, {(i, i): 1 for i in s_idx}),
        DELTA_S: Sym2Vector.from_map(space, {(min(d_idx, i), max(d_idx, i)): 1 for i in s_idx}),
    }
    for theta in THETAS:
        # alpha and alpha + theta both give the monomial of their coset
        coeffs = {(s_idx[i], s_idx[j]): 2 for i, j in COSETS[theta]}
        vectors[MIXED[theta]] = Sym2Vector.from_map(space, coeffs)

    basis = tuple(vectors[k] for k in range(CLASS_COUNT))
    return WModel(
        space=space,
        factor=factor,
        basis=basis,
        leads=tuple(min(v.cells.items()) for v in basis),
    )


def expected_gram19(qbar_square: Fraction, qbar_fujiki: Fraction) -> Matrix:
    """The printed intersection matrix of the 19 invariant classes.

    In the dual-class row, qbar_W squares to ``qbar_square`` and pairs with
    delta^2 and sum s^2 as -2 and -32 times ``qbar_fujiki`` (integral
    qbar * a * b = C(qbar) q(a, b), with q(delta) = -2 and sixteen s classes
    of square -2).
    """
    cells = {
        (QBAR, QBAR): qbar_square,
        (QBAR, DELTA_SQ): -2 * qbar_fujiki,
        (QBAR, S_SQ): -32 * qbar_fujiki,
        (DELTA_SQ, DELTA_SQ): 12,
        (DELTA_SQ, S_SQ): 64,
        (S_SQ, S_SQ): 1152,
        (DELTA_S, DELTA_S): 64,
        **{(k, k): 128 for k in MIXED.values()},
    }
    rows: list[dict[int, RationalLike]] = [{} for _ in range(CLASS_COUNT)]
    for (i, j), value in cells.items():
        rows[i][j] = rows[j][i] = value
    return Matrix(rows, CLASS_COUNT)


def expected_w_other(theta: Pt) -> tuple[Fraction, ...]:
    """The printed expansion of the second fourfold of shift ``theta``."""
    return class_coeffs(
        {QBAR: Fraction(2, 5), S_SQ: Fraction(1, 4), MIXED[theta]: Fraction(-1, 4)}
    )


def build_gram19(model: WModel) -> Matrix:
    return sym2_gram(model.basis)


def combination(model: WModel, coeffs: Sequence[Fraction]) -> Sym2Vector:
    return sym2_sum(model.space, zip(coeffs, model.basis))


def expand_in_basis(model: WModel, x: Sym2Vector) -> tuple[Fraction, ...]:
    """Coefficients of x over the 19 classes, each read at one monomial.

    By the premise in the module docstring, the dual-class coefficient a is
    x's coefficient at qbar_W's least monomial over qbar_W's own, and every
    other coefficient is the same ratio of x - a*qbar_W at its class's least
    monomial.  Each ratio is formed in integers and is one ``Fraction``
    (``ZERO`` when it is 0).  Raises when they do not rebuild x: x is not
    in the span.
    """
    qbar_w = model.basis[QBAR]
    first, q0 = model.leads[QBAR]
    # a = an / ad, over x's and qbar_W's scales
    an, ad = x.cells.get(first, 0) * qbar_w.scale, x.scale * q0
    coeffs = []
    for v, (key, v0) in zip(model.basis, model.leads):
        # (x - a*qbar_W) at key, over x.scale * ad * qbar_W.scale
        rest = x.cells.get(key, 0) * ad * qbar_w.scale - an * qbar_w.cells.get(key, 0) * x.scale
        coeffs.append(
            Fraction(rest * v.scale, x.scale * ad * qbar_w.scale * v0) if rest else ZERO
        )
    coeffs[QBAR] = Fraction(an, ad) if an else ZERO
    rebuilt = combination(model, coeffs)
    if rebuilt != x:
        residue = sym2_sum(model.space, [(1, x), (-1, rebuilt)]).render()
        raise ValueError(f"class not in the span of the 19 invariant classes; residue {residue}")
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# restriction from the config's rank-7 h2_space and the restricted dual class

def restriction_images(model: WModel) -> tuple[tuple[Fraction, ...], ...]:
    """Images of the seven ambient classes, in ``config.H2_LABELS`` order:
    y_k goes to lp_k, z_k to lm_k and xi to xi|_W."""
    yz_images = map(model.space.basis_vector, PLUS_LABELS + MINUS_LABELS)
    return (*yz_images, model.space.vector(XI_ON_W))


def restriction_is_similitude(model: WModel, ambient: QuadSpace) -> bool:
    """q_W(images) = factor * q_X on every pair of basis vectors.

    The fourfold's diagonal Gram pairs the seven images with each other
    through ``Matrix.pairings``, each pair once (the triangle on and above
    the diagonal, as the Gram is symmetric); a pair of distinct images
    must pair to 0.
    """
    gram = Matrix([{k: q} for k, q in enumerate(model.space.squares)], model.space.dim)
    images = restriction_images(model)
    want = tuple(
        (model.factor * square, *repeat(ZERO, len(images) - 1 - i))
        for i, square in enumerate(ambient.squares)
    )
    return gram.pairings(images, images, upper=True) == want


class QbarRestriction(NamedTuple):
    coeffs: tuple[Fraction, ...]
    trail: tuple[str, ...]


def restrict_qbar(model: WModel, ambient: QuadSpace) -> QbarRestriction:
    """Expand the restricted ambient dual class over the 19 classes."""
    dual = qbar_dual(ambient)
    images = restriction_images(model)
    restricted = sym2_sum(
        model.space,
        ((c, sym2_product(model.space, images[i], images[j])) for (i, j), c in dual.coeffs),
    )
    coeffs = expand_in_basis(model, restricted)
    trail = (
        "ambient dual class = " + dual.render(),
        "restriction expanded over the invariant classes: "
        + ", ".join(str(coeffs[k]) for k in (QBAR, DELTA_SQ, S_SQ))
        + ", shifts "
        + str(coeffs[MIXED[THETAS[0]]])
        + ", mixed "
        + str(coeffs[DELTA_S]),
    )
    return QbarRestriction(coeffs=coeffs, trail=trail)


# ---------------------------------------------------------------------------
# the surface cut out by a second fourfold

SIDE = 8  # curves on each side of V, one per coset {alpha, alpha + theta}
SURFACE = QuadSpace(
    tuple(f"near{k}" for k in range(SIDE)) + tuple(f"far{k}" for k in range(SIDE)),
    (Fraction(-2),) * (2 * SIDE),
    "surface",
)
_CURVES = tuple(SURFACE.basis_vector(label) for label in SURFACE.labels)
# xi|_V: the sum of all sixteen curves
XI_ON_V = (Fraction(1),) * SURFACE.dim
# The nine images on V of the classes of a fourfold on either side, by slot:
# the eight curves of its own side, then half the sum of the other side's
# curves (slot SIDE).  The near side comes first.
_IMAGES = tuple(
    own + (combine((Fraction(1, 2), curve) for curve in other),)
    for own, other in ((_CURVES[:SIDE], _CURVES[SIDE:]), (_CURVES[SIDE:], _CURVES[:SIDE]))
)
# SURFACE is fixed, so the 81 pairings among the near-side images are too:
# L * q_V(images[a], images[b]) by slot, over the lcm L of their denominators.
_NEAR_PAIRINGS = tuple(tuple(SURFACE.pair(a, b) for b in _IMAGES[0]) for a in _IMAGES[0])
_NEAR_SCALE = lcm(*(x.denominator for row in _NEAR_PAIRINGS for x in row))
_NEAR_PAIRINGS = tuple(tuple(int(x * _NEAR_SCALE) for x in row) for row in _NEAR_PAIRINGS)


def surface_slots(theta: Pt) -> dict[str, int]:
    """The slot of the image on V of each s class and of delta.

    A fourfold sends s_alpha to the curve of its side for the coset
    {alpha, alpha + theta}, the k-th coset of ``COSETS[theta]`` to slot k,
    and delta to slot ``SIDE``.  The two fourfolds share these slots;
    ``_IMAGES`` holds each side's images by slot.
    """
    slots = {"delta": SIDE}
    for k, coset in enumerate(COSETS[theta]):
        for i in coset:
            slots[S_LABELS[i]] = k
    return slots


def _near_pair(slots: dict[str, int], a: str, b: str) -> Fraction:
    """q_V of the near-side images of the classes labelled a and b."""
    return Fraction(_NEAR_PAIRINGS[slots[a]][slots[b]], _NEAR_SCALE)


def _compositions_agree(slots: dict[str, int]) -> bool:
    """Both fourfolds send xi|_W = XI_ON_W, added per slot, to xi|_V by their images."""
    weights = [0] * (SIDE + 1)
    for label, c in XI_ON_W.items():
        weights[slots[label]] += c
    return all(combine(zip(weights, images)) == XI_ON_V for images in _IMAGES)


def near_pairing(slot: Sequence[int | None], x: Sym2Vector) -> Fraction:
    """q_V summed over the monomials of x: sum of c * q_V(image_i, image_j).

    ``slot`` lists, by index of x's space, the slot of each near-side
    image (None for an index with no image on V); the pairings are read
    from the table and summed in integers.  A zero pairing is ``ZERO``.
    """
    table = _NEAR_PAIRINGS
    total = 0
    for (i, j), c in x.cells.items():
        total += c * table[slot[i]][slot[j]]
    return Fraction(total, x.scale * _NEAR_SCALE) if total else ZERO


class VRestrictionData(NamedTuple):
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
    theta: Pt,
    xi_square: Fraction,
    deg_c2_v: Fraction,
    deg_c2_nvw: Fraction,
) -> VRestrictionData:
    """Surface-level pairings and the two constants they determine.

    The Fujiki constant of a pair class is integral (xi|_V)^2 / q(xi),
    and the degree of the restricted second Chern class is the sum of
    the surface term and both normal-bundle terms.  Both fourfolds must
    restrict their xi to the same class xi|_V.  None of these values
    depends on theta, which only labels the curves.
    """
    slots = surface_slots(theta)
    partner = SHIFTED[theta][0]
    other = next(i for i in range(len(ALPHAS)) if i not in (0, partner))
    s0 = S_LABELS[0]
    delta_sq = _near_pair(slots, "delta", "delta")
    xi_sq = SURFACE.pair(XI_ON_V, XI_ON_V)
    c_v = xi_sq / xi_square
    c2_deg = deg_c2_v + 2 * deg_c2_nvw
    trail = (
        f"(delta|_V)^2 = {delta_sq}, xi|_V squared = {xi_sq}",
        f"C(pair class) = {xi_sq} / {xi_square} "
        f"= {c_v}",
        f"c2 restricted to V has degree {deg_c2_v} + "
        f"2*{deg_c2_nvw} = {c2_deg}",
    )
    return VRestrictionData(
        delta_sq=delta_sq,
        delta_s=_near_pair(slots, "delta", s0),
        s_pair_same_coset=_near_pair(slots, s0, S_LABELS[partner]),
        s_pair_other=_near_pair(slots, s0, S_LABELS[other]),
        xi_sq=xi_sq,
        c_v_pair=c_v,
        c2_restriction_degree=c2_deg,
        compositions_agree=_compositions_agree(slots),
        trail=trail,
    )


# ---------------------------------------------------------------------------
# restriction of the other fourfold's class

class WOtherRestriction(NamedTuple):
    theta: Pt
    coeffs: tuple[Fraction, ...]
    rhs: tuple[Fraction, ...]  # rhs[QBAR] is the pairing with the dual class
    trail: tuple[str, ...]


def restrict_w_other(
    model: WModel,
    gram: Matrix,
    c2_qbar_ratio: Fraction,
    theta: Pt,
    deg_c2_v: Fraction,
    deg_c2_nvw: Fraction,
) -> WOtherRestriction:
    """Expand the class of a second fourfold over the 19 classes.

    Against every class built from s and delta, the pairing restricts to
    the surface V and is read off the curve Gram; against the dual class,
    it is (c2 route) the surface Euler degree plus one normal-bundle term,
    divided by ``c2_qbar_ratio`` (c2 = ratio * qbar on the fourfold).  The
    19x19 system then has a unique solution.  The surface pairings do not
    depend on theta (``v_restriction_data`` reports them for one theta);
    theta enters here only through its slot map ``surface_slots(theta)``.
    """
    slots = surface_slots(theta)
    slot = [slots.get(label) for label in model.space.labels]
    qbar_rhs = (deg_c2_v + deg_c2_nvw) / c2_qbar_ratio
    rhs = [
        qbar_rhs if k == QBAR else near_pairing(slot, vec) for k, vec in enumerate(model.basis)
    ]

    coeffs = solve_linear(gram, rhs)
    trail = (
        f"dual-class pairing = ({deg_c2_v} + "
        f"{deg_c2_nvw}) / {c2_qbar_ratio} "
        f"= {qbar_rhs}",
        "unique solution of the 19x19 pairing system",
    )
    return WOtherRestriction(
        theta=theta,
        coeffs=coeffs,
        rhs=tuple(rhs),
        trail=trail,
    )


# ---------------------------------------------------------------------------
# the shifted divisor classes and the self-restriction

class SPrimeVectors(NamedTuple):
    """Products of the shifted divisors s' = 4s - delta and their sums.

    ``products[i, j]`` is s'_i * s'_j for positions i <= j in ``ALPHAS``;
    the sums are expanded in the 19 basis.
    """

    products: dict[tuple[int, int], Sym2Vector]
    sum_squares: tuple[Fraction, ...]
    sum_mixed_all: tuple[Fraction, ...]
    per_theta: tuple[tuple[Fraction, ...], ...]
    identity_holds: bool


# sum_a s'_a * s'_a = 16*delta^2 + 16*sum s^2 - 8*delta*sum s
SPRIME_SQUARE_SUM = class_coeffs({DELTA_SQ: 16, S_SQ: 16, DELTA_S: -8})


def s_prime_vectors(model: WModel) -> SPrimeVectors:
    """Build each product s'_a s'_b once; expand and check the shift sums.

    The 136 products s'_i * s'_j (i <= j) are the table that the shift sums
    here and the divisor pairings (``d_self_pairings``) read.  For every
    shift, sum_a s'_a s'_(a+shift) must equal 16*delta^2 + 16*(mixed s sum
    at that shift) - 8*delta*sum(s); the shift-0 case replaces the mixed
    sum by sum s^2.  A nonzero shift's sum is taken over its eight cosets
    {a, a + shift} (``COSETS``), each product with coefficient 2, as a and
    a + shift give the same product.
    """
    sp = model.space
    # s' = 4s - delta as its two cells
    delta = sp.index("delta")
    svecs = [{sp.index(label): 4, delta: -1} for label in S_LABELS]
    n = len(svecs)
    products = {
        (i, j): sym2_product(sp, svecs[i], svecs[j]) for i in range(n) for j in range(i, n)
    }

    sum_sq = expand_in_basis(model, sym2_sum(sp, ((1, products[i, i]) for i in range(n))))
    identity = sum_sq == SPRIME_SQUARE_SUM

    per_theta = []
    for theta in THETAS:
        coeffs = expand_in_basis(model, sym2_sum(sp, ((2, products[c]) for c in COSETS[theta])))
        want = class_coeffs({DELTA_SQ: 16, MIXED[theta]: 16, DELTA_S: -8})
        identity &= coeffs == want
        per_theta.append(coeffs)

    return SPrimeVectors(
        products=products,
        sum_squares=sum_sq,
        sum_mixed_all=combine((1, v) for v in per_theta),
        per_theta=tuple(per_theta),
        identity_holds=identity,
    )


class WSelfRestriction(NamedTuple):
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
    gram: Matrix,
    c4_degree: Fraction,
    c2_qbar_ratio: Fraction,
    qbar_rest: QbarRestriction,
    sprime: SPrimeVectors,
    others: Sequence[WOtherRestriction],
    c4_w_component: Fraction,
    w_sq_w_other: Fraction,
    qbar_w_sq: Fraction,
) -> WSelfRestriction:
    """Solve for the self-restriction over the deformation-stable ansatz.

    The class lies in the span of the restricted ambient dual and the
    shifted-divisor sums; shift coefficients away from zero must agree
    because the class pairs equally with every other fourfold (``others``,
    in ``THETAS`` order).  Three pairings (with the fourfold dual, the sum
    of all other restrictions, and the restricted ambient dual) determine
    the three coefficients.  ``shift_uniformity_ok`` reports whether these
    pairings, and those among the other restrictions, are uniform.
    """
    g1 = qbar_rest.coeffs
    g2 = sprime.sum_squares
    g3 = sprime.sum_mixed_all

    other_vecs = [o.coeffs for o in others]
    other_sum = combine((1, v) for v in other_vecs)

    # the class pairs equally with every other fourfold, so it pairs to zero
    # with any difference of two of them; on the shifted-divisor sums that
    # pairing is supported at the two shifts with opposite nonzero values,
    # which forces one shared coefficient for all nonzero shifts
    diff = combine(((1, other_vecs[0]), (-1, other_vecs[1])))
    shift_pairings = [got for (got,) in gram.pairings(sprime.per_theta, [diff])]
    # support value fixed by the shifted-divisor normalisation: each other
    # fourfold carries its shift block with weight -16 * (128/4)
    base = -16 * Fraction(128, 4)
    uniform_ok = shift_pairings == [base, -base] + [0] * (len(THETAS) - 2)

    e_qbar = class_coeffs({QBAR: 1})
    tests = (e_qbar, other_sum, g1)
    generators = (g1, g2, g3)
    system = Matrix(gram.pairings(tests, generators))
    qbar_rhs = (c4_w_component - c4_degree) / c2_qbar_ratio
    rhs = (qbar_rhs, len(THETAS) * w_sq_w_other, qbar_w_sq)
    eta, beta, gamma = solve_linear(system, rhs)

    final = combine(((eta, g1), (beta, g2), (gamma, g3)))
    # the final class against each other restriction, the dual class,
    # itself and the restricted ambient dual
    *with_others, qbar_pairing, self_square, ambient_dual = gram.pairings(
        [final], [*other_vecs, e_qbar, final, g1]
    )[0]
    # row a: other restriction a against itself and each later one
    among = gram.pairings(other_vecs, other_vecs, upper=True)
    self_other_values = [row[0] for row in among]
    cross_values = [x for row in among for x in row[1:]]
    # each value is compared with the first of its kind, not hashed
    uniform_ok &= all(
        vals.count(vals[0]) == len(vals)
        for vals in (with_others, cross_values, self_other_values)
    )

    trail = (
        f"dual-class pairing = ({c4_w_component} - "
        f"{c4_degree}) / {c2_qbar_ratio} "
        f"= {qbar_rhs}",
        f"sum over other fourfolds pairs to {len(THETAS)}*"
        f"{w_sq_w_other} = {rhs[1]}",
        f"coefficients eta = {eta}, beta = {beta}, "
        f"gamma = {gamma}",
    )
    return WSelfRestriction(
        coeffs=final,
        eta=eta,
        beta=beta,
        gamma=gamma,
        system=system,
        rhs=rhs,
        qbar_pairing=qbar_pairing,
        self_square=self_square,
        pair_with_other=with_others[0],
        other_self_square=among[0][0],
        other_cross=among[0][1],
        ambient_dual_pairing=ambient_dual,
        shift_uniformity_ok=uniform_ok,
        trail=trail,
    )


# ---------------------------------------------------------------------------
# pairings of the pushed-forward divisor classes

class DPairings(NamedTuple):
    diagonal: Fraction
    same_block: Fraction
    uniform: bool
    trail: tuple[str, ...]


def d_self_pairings(
    model: WModel, self_coeffs: Sequence[Fraction], sprime: SPrimeVectors
) -> DPairings:
    """Pairings of two divisor push-forwards from the same fourfold.

    By the projection formula these are integrals over the fourfold of
    (own class restriction) * s'_a * s'_b, so they only need the 19-class
    expansion of the self-restriction and the products s'_a * s'_b, which
    are read from ``sprime.products``.
    """
    w_self = combination(model, self_coeffs)
    diag_vals, off_vals = [], []
    for (i, j), product in sprime.products.items():
        (diag_vals if i == j else off_vals).append(sym2_pair(w_self, product))
    # each value is compared with the first of its kind, not hashed
    uniform = all(vals.count(vals[0]) == len(vals) for vals in (diag_vals, off_vals))
    diagonal, same_block = diag_vals[0], off_vals[0]
    trail = (
        f"divisor self-pairing {diagonal}, "
        f"same-fourfold pairing {same_block}, "
        f"uniform over all label choices: {uniform}",
    )
    return DPairings(
        diagonal=diagonal, same_block=same_block, uniform=uniform, trail=trail
    )
