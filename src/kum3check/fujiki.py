"""The ring of invariant canonical classes on a Kum3-type sixfold.

Everything here is driven by one table of fourteen generalized Fujiki
constants C(m) for monomials m in qbar, c2, c4, c6, keyed by the names of
the configuration's ``fujiki_constants`` entries (``"C(qbar^2*c2)"``); the
loader fixes that key set.  The table determines a canonical degree-4
class z = c2 - (C(c2)/C(qbar)) qbar with C(z) = 0, and closed bases
{qbar, z} in degree 4 and {qbar^2, qbar*z} in degree 8.
:func:`derive_z_relations` reproduces the expansion of z^2, c2^2 and c4
in those bases exactly from the table, and :func:`multiply` evaluates
graded products against the derived relations.  :func:`express_w_v`
expands the sum classes w and v; their label sums are the pattern counts
of the torsion-label module, ``kummer``.

Degrees are real cohomological degrees; the top degree is 12.
"""

from fractions import Fraction
from typing import Mapping, NamedTuple

from .kummer import LABEL_COUNT, component_cube_from_total, w_dot_v_total
from .linalg import RationalLike, rat

# the complex dimension of the sixfold
COMPLEX_DIM = 6

# (C(m), C(qbar*m)) for the table monomials m of degrees 4 and 8 that have
# both.  The first pair of a degree sets the ratio the others must match, so
# this order fixes the text of a disagreement error, which reports carry.
DUAL_PAIRS: dict[int, tuple[tuple[str, str], ...]] = {
    4: (("C(c2)", "C(qbar*c2)"), ("C(qbar)", "C(qbar^2)")),
    8: (
        ("C(c4)", "C(qbar*c4)"),
        ("C(c2^2)", "C(qbar*c2^2)"),
        ("C(qbar*c2)", "C(qbar^2*c2)"),
        ("C(qbar^2)", "C(qbar^3)"),
    ),
}


class FujikiTableError(ValueError):
    """The constant table fails an identity that the derivation relies on."""


def evaluate_fujiki(c_omega: RationalLike, deg_omega: int, q_gamma: RationalLike) -> Fraction:
    """Evaluate integral omega * gamma^(COMPLEX_DIM - deg/2).

    The generalized Fujiki relation gives C(omega) * q(gamma, gamma)^e with
    e = (2*COMPLEX_DIM - deg_omega) / 4 for omega of real degree deg_omega,
    a multiple of 4 from 0 to 2*COMPLEX_DIM.
    """
    return rat(c_omega) * rat(q_gamma) ** ((2 * COMPLEX_DIM - deg_omega) // 4)


def qbar_factor(table: Mapping[str, Fraction], degree: int) -> Fraction:
    """The common ratio C(qbar * m) / C(m) over the table monomials of a degree."""
    ratios = [(table[high] / table[low], low) for low, high in DUAL_PAIRS[degree]]
    first = ratios[0][0]
    bad = [low[2:-1] for r, low in ratios if r != first]
    if bad:
        raise FujikiTableError(
            f"qbar multiplication factors disagree in degree {degree}: "
            f"C(qbar*{', '.join(bad)}) breaks the ratio {first}"
        )
    return first


class Deg4(NamedTuple):
    """Degree-4 class a*qbar + b*z in the canonical basis."""

    qbar: Fraction
    z: Fraction


class Deg8(NamedTuple):
    """Degree-8 class a*qbar^2 + b*qbar*z in the canonical basis."""

    qbar2: Fraction
    qbarz: Fraction


def deg8(qbar2: RationalLike, qbarz: RationalLike) -> Deg8:
    return Deg8(rat(qbar2), rat(qbarz))


class ZRelations(NamedTuple):
    """Derived structure constants of the canonical basis.

    top_* values are integrals of top-degree monomials (in degree 12 the
    constant is the integral, so top_qbar_z2 is also C(qbar*z^2)); z2,
    c2_squared and c4 are expansions in the degree-8 basis {qbar^2, qbar*z}.
    """

    ratio: Fraction                 # C(c2)/C(qbar), the coefficient in z = c2 - ratio*qbar
    factor_deg8: Fraction
    c_z: Fraction
    c_z2: Fraction
    top_qbar3: Fraction
    top_qbar2_z: Fraction
    top_qbar_z2: Fraction
    z3: Fraction
    c2: Deg4
    z2: Deg8
    c2_squared: Deg8
    c4: Deg8
    c_qbar: Fraction
    c_qbar2: Fraction
    c_qbarz: Fraction
    trail: tuple[str, ...]


def derive_z_relations(table: Mapping[str, Fraction]) -> ZRelations:
    """Reproduce the z-basis relations exactly from the constant table.

    ``table`` maps each of the fourteen ``C(...)`` names to its constant.
    Raises FujikiTableError when the qbar factors of degree 4 or 8
    disagree, or when integral qbar*z^2 vanishes.  Consistent factors make
    C(qbar*z) and integral qbar^2*z vanish, and give C(z^2) by the
    degree-8 factor and by direct expansion alike.
    """
    trail = []
    ratio = table["C(c2)"] / table["C(qbar)"]
    trail.append(f"z = c2 - ({ratio})*qbar")

    qbar_factor(table, 4)  # raises unless the degree-4 factors agree
    factor8 = qbar_factor(table, 8)

    c_z = table["C(c2)"] - ratio * table["C(qbar)"]
    c_qbarz = table["C(qbar*c2)"] - ratio * table["C(qbar^2)"]
    top_qbar2_z = table["C(qbar^2*c2)"] - ratio * table["C(qbar^3)"]
    top_qbar3 = table["C(qbar^3)"]
    trail.append(
        f"C(z) = {c_z}, C(qbar*z) = {c_qbarz}, "
        f"integral qbar^2*z = {top_qbar2_z}"
    )

    # integral qbar*c2^2 expands through (ratio*qbar + z)^2; the qbar^2*z term drops out
    top_qbar_z2 = (
        table["C(qbar*c2^2)"]
        - ratio**2 * top_qbar3
        - 2 * ratio * top_qbar2_z
    )
    trail.append(f"integral qbar*z^2 = {top_qbar_z2}")

    z3 = (
        table["C(c2^3)"]
        - ratio**3 * top_qbar3
        - 3 * ratio**2 * top_qbar2_z
        - 3 * ratio * top_qbar_z2
    )
    trail.append(f"z^3 = {z3}")

    c_z2 = top_qbar_z2 / factor8  # degree 12: C(qbar*z^2) is the integral
    trail.append(f"C(z^2) = {c_z2} (both routes)")

    if top_qbar_z2 == 0:
        raise FujikiTableError("integral qbar*z^2 vanishes; z-basis expansions are singular")

    lam = z3 / top_qbar_z2
    z2 = Deg8(c_z2 / table["C(qbar^2)"], lam)
    trail.append(
        f"z^2 = ({z2.qbar2})*qbar^2 + ({z2.qbarz})*qbar*z"
    )

    c2_lead = table["C(c2^2)"] / table["C(qbar^2)"]
    a = (table["C(c2^3)"] - ratio * c2_lead * top_qbar3 - c2_lead * top_qbar2_z) / top_qbar_z2
    c2_squared = Deg8(c2_lead, a)
    trail.append(
        f"c2^2 = ({c2_lead})*qbar^2 + ({a})*qbar*z"
    )

    c4_lead = table["C(c4)"] / table["C(qbar^2)"]
    b = (table["C(c2*c4)"] - ratio * c4_lead * top_qbar3 - c4_lead * top_qbar2_z) / top_qbar_z2
    c4 = Deg8(c4_lead, b)
    trail.append(
        f"c4 = ({c4_lead})*qbar^2 + ({b})*qbar*z"
    )

    return ZRelations(
        ratio=ratio,
        factor_deg8=factor8,
        c_z=c_z,
        c_z2=c_z2,
        top_qbar3=top_qbar3,
        top_qbar2_z=top_qbar2_z,
        top_qbar_z2=top_qbar_z2,
        z3=z3,
        c2=Deg4(ratio, Fraction(1)),
        z2=z2,
        c2_squared=c2_squared,
        c4=c4,
        c_qbar=table["C(qbar)"],
        c_qbar2=table["C(qbar^2)"],
        c_qbarz=c_qbarz,
        trail=tuple(trail),
    )


def multiply(a: Deg4, b: Deg4 | Deg8, rel: ZRelations) -> Deg8 | Fraction:
    """Graded product of a degree-4 class ``a`` with ``b``: degree 4 x 4
    gives Deg8, degree 4 x 8 gives the top integral."""
    if isinstance(b, Deg4):
        # (a1 qbar + a2 z)(b1 qbar + b2 z), with z^2 rewritten in the basis
        qbar2 = a.qbar * b.qbar + a.z * b.z * rel.z2.qbar2
        qbarz = a.qbar * b.z + a.z * b.qbar + a.z * b.z * rel.z2.qbarz
        return Deg8(qbar2, qbarz)
    return (
        a.qbar * b.qbar2 * rel.top_qbar3
        + (a.z * b.qbar2 + a.qbar * b.qbarz) * rel.top_qbar2_z
        + a.z * b.qbarz * rel.top_qbar_z2
    )


def c_of(x: Deg8, rel: ZRelations) -> Fraction:
    """The Fujiki constant of a degree-8 class, linear in the basis constants."""
    return x.qbar2 * rel.c_qbar2 + x.qbarz * rel.c_qbarz


class WVClasses(NamedTuple):
    """The invariant sum classes w (degree 4) and v (degree 8)."""

    w: Deg4
    v: Deg8
    c_w: Fraction
    c_v: Fraction
    c2_dot_v: Fraction
    w_dot_v: Fraction
    w_cube: Fraction
    w_component_cube: Fraction
    integral_w: Deg4           # 8*qbar - 3*c2, for the identity check
    integral_3v: Deg8          # 7*c4 - c2^2
    trail: tuple[str, ...]


def express_w_v(
    rel: ZRelations,
    w_sq_w_other: Fraction,
    w_triple_distinct: Fraction,
    c2_v_pair: Fraction,
    c_w_component: Fraction,
    c_v_pair: Fraction,
) -> WVClasses:
    """Expand w and v in the canonical bases from their Fujiki constants.

    The inputs are the triple numbers w_tau^2 * w_tau' (tau != tau') and
    w * w' * w'' (three distinct labels), c2 against one v component, and
    the Fujiki constants C(w_tau) and C(one v component).  w * v is summed
    over the sixteen labels by the pattern count ``kummer.w_dot_v_total``,
    and ``kummer.component_cube_from_total`` recovers w_tau^3 from w^3, both
    from the two triple numbers.
    """
    n = LABEL_COUNT
    w_dot_v = w_dot_v_total(w_sq_w_other, w_triple_distinct, n)
    pair_count = n * (n - 1) // 2
    trail = []

    c_w = n * c_w_component
    c_v = pair_count * c_v_pair
    c2_dot_v = pair_count * c2_v_pair
    trail.append(
        f"C(w) = {n}*{c_w_component} = {c_w}; "
        f"C(v) = {pair_count}*{c_v_pair} = {c_v}; "
        f"c2*v = {pair_count}*{c2_v_pair} = {c2_dot_v}"
    )

    # v = (C(v)/C(qbar^2)) qbar^2 + gamma qbar z, gamma fixed by c2*v
    v_lead = c_v / rel.c_qbar2
    base = multiply(rel.c2, Deg8(v_lead, Fraction(0)), rel)
    slope = multiply(rel.c2, Deg8(Fraction(0), Fraction(1)), rel)
    gamma = (c2_dot_v - base) / slope
    v = Deg8(v_lead, gamma)
    trail.append(
        f"c2*v equation: {c2_dot_v} = {base} "
        f"+ gamma*{slope} -> gamma = {gamma}"
    )

    # w = (C(w)/C(qbar)) qbar + lambda z, lambda fixed by w*v
    w_lead = c_w / rel.c_qbar
    base_w = multiply(Deg4(w_lead, Fraction(0)), v, rel)
    slope_w = multiply(Deg4(Fraction(0), Fraction(1)), v, rel)
    lam = (w_dot_v - base_w) / slope_w
    w = Deg4(w_lead, lam)
    trail.append(
        f"w*v equation: {w_dot_v} = {base_w} "
        f"+ lambda*{slope_w} -> lambda = {lam}"
    )

    w_cube = multiply(w, multiply(w, w, rel), rel)
    w_component_cube = component_cube_from_total(
        w_cube, w_sq_w_other, w_triple_distinct, n
    )
    trail.append(
        f"w^3 = {w_cube}; "
        f"component cube = {w_component_cube}"
    )

    integral_w = Deg4(8 - 3 * rel.ratio, Fraction(-3))
    integral_3v = Deg8(
        7 * rel.c4.qbar2 - rel.c2_squared.qbar2,
        7 * rel.c4.qbarz - rel.c2_squared.qbarz,
    )

    return WVClasses(
        w=w,
        v=v,
        c_w=c_w,
        c_v=c_v,
        c2_dot_v=c2_dot_v,
        w_dot_v=w_dot_v,
        w_cube=w_cube,
        w_component_cube=w_component_cube,
        integral_w=integral_w,
        integral_3v=integral_3v,
        trail=tuple(trail),
    )


class AuxiliaryValues(NamedTuple):
    """Second-order invariants of one fixed-fourfold class w_tau."""

    c_w_sq: Fraction            # C(w^2)
    c_w_component_sq: Fraction  # C(w_tau^2)
    c4_w_component: Fraction    # c4 * w_tau
    qbar_w_sq: Fraction         # qbar * w_tau^2
    qbar_w_pair: Fraction       # qbar * w_tau * w_tau'
    trail: tuple[str, ...]


def auxiliary_values(rel: ZRelations, wv: WVClasses, c_v_pair: Fraction) -> AuxiliaryValues:
    n = LABEL_COUNT
    c_w_sq = c_of(multiply(wv.w, wv.w, rel), rel)
    c_w_component_sq = (c_w_sq - n * (n - 1) * c_v_pair) / n
    c4_w_component = multiply(wv.w, rel.c4, rel) / n
    qbar_w_sq = rel.factor_deg8 * c_w_component_sq
    qbar_w_pair = rel.factor_deg8 * c_v_pair
    trail = (
        f"C(w^2) = {c_w_sq} = {n}*C(w_tau^2) "
        f"+ {n * (n - 1)}*{c_v_pair}",
        f"c4*w_tau = (c4*w)/{n} = {c4_w_component}",
        f"qbar products by the degree-8 factor {rel.factor_deg8}",
    )
    return AuxiliaryValues(
        c_w_sq=c_w_sq,
        c_w_component_sq=c_w_component_sq,
        c4_w_component=c4_w_component,
        qbar_w_sq=qbar_w_sq,
        qbar_w_pair=qbar_w_pair,
        trail=trail,
    )
