"""Named check suites over one derivation engine.

Each suite compares derived quantities against hard-coded expected values,
so a mutated configuration entry always surfaces as a failing check.  A
derivation step that raises becomes a failing error check instead of
aborting the suite.
"""

from fractions import Fraction
from typing import Callable, Iterable

from . import SUITE_NAMES
from .bookkeeping import rank_table_matches_diamond, rep_dims
from .engine import Engine
from .fujiki import evaluate_fujiki, qbar_factor
from .linalg import Matrix, rank
from .report import Check, SuiteReport, error_check, make_check, merge_reports
from .wgeometry import (
    DELTA_S,
    DELTA_SQ,
    MIXED,
    QBAR,
    S_SQ,
    SPRIME_SQUARE_SUM,
    THETAS,
    class_coeffs,
    expected_gram19,
    restriction_is_similitude,
)

EXPECTED_CONSTANTS = {
    "C(1)": 60,
    "C(qbar)": 132,
    "C(qbar^2)": 396,
    "C(qbar^3)": 2772,
    "C(c2)": 288,
    "C(qbar*c2)": 864,
    "C(qbar^2*c2)": 6048,
    "C(c2^2)": 1920,
    "C(qbar*c2^2)": 13440,
    "C(c4)": 480,
    "C(qbar*c4)": 3360,
    "C(c2^3)": 30208,
    "C(c2*c4)": 6784,
    "C(c6)": 448,
}

REF_TABLE = "tabulated intersection constants"
REF_FACTORS = "dual-class multiplication factors"
REF_Z = "auxiliary class derivation"
REF_EVAL = "evaluation of the intersection form"
REF_EXPANSION = "degree-8 basis expansion"
REF_SUM = "sum-class expansion"
REF_AUX = "component pairing derivation"
REF_IND = "independence certificate"
REF_INJ = "injectivity certificate"
REF_G19 = "nineteen-class intersection matrix"
REF_SCALE = "restriction scaling"
REF_REST = "restriction solve"
REF_SURF = "surface pairing table"
REF_DCLS = "push-forward pairing certificate"
REF_HODGE = "cohomology table"
REF_REPS = "structure representation ranks"
REF_TRACE = "trace averaging"
REF_BLOWUP = "blowup comparison"
REF_CONFIG = "configured geometric input"


def _add(
    checks: list[Check],
    check_id: str,
    ref: str,
    expected,
    compute: Callable[[], object],
    trail: Callable[[], Iterable[str]] = tuple,
) -> None:
    """One check; a raising derivation becomes a failing error check."""
    try:
        computed = compute()
        trail_values = tuple(trail())
    except Exception as exc:
        checks.append(error_check(check_id, ref, exc))
        return
    checks.append(make_check(check_id, ref, expected, computed, trail_values))


def _fujiki_table_checks(e: Engine) -> list[Check]:
    checks: list[Check] = []
    for key, value in EXPECTED_CONSTANTS.items():
        _add(checks, f"constant {key}", REF_TABLE, value, lambda key=key: e.table[key])
    _add(checks, "dual factor degree 4", REF_FACTORS, 3, lambda: qbar_factor(e.table, 4))
    _add(checks, "dual factor degree 8", REF_FACTORS, 7, lambda: qbar_factor(e.table, 8))
    _add(
        checks, "chern to dual ratio", REF_Z, Fraction(24, 11),
        lambda: e.relations.ratio,
    )
    _add(
        checks, "auxiliary class vanishing", REF_Z, (0, 0, 0),
        lambda: (e.relations.c_z, e.relations.c_qbarz, e.relations.top_qbar2_z),
    )
    _add(
        checks, "auxiliary square constant", REF_Z, Fraction(384, 11),
        lambda: e.relations.c_z2,
    )
    _add(
        checks, "auxiliary square against dual", REF_Z, Fraction(2688, 11),
        lambda: e.relations.top_qbar_z2,
    )
    _add(
        checks, "z3 derivation", REF_Z, Fraction(-22016, 121),
        lambda: e.relations.z3, trail=lambda: e.relations.trail,
    )
    _add(
        checks, "evaluate at degree zero", REF_EVAL, 480,
        lambda: evaluate_fujiki(e.table["C(1)"], 0, 2),
    )
    _add(
        checks, "evaluate at degree four", REF_EVAL, 1188,
        lambda: evaluate_fujiki(e.table["C(qbar)"], 4, 3),
    )
    return checks


def _basis_lemma_checks(e: Engine) -> list[Check]:
    checks: list[Check] = []
    _add(
        checks, "square constant", REF_EXPANSION, Fraction(384, 11),
        lambda: e.relations.c_z2,
    )
    _add(
        checks, "square against dual", REF_EXPANSION, Fraction(2688, 11),
        lambda: e.relations.top_qbar_z2,
    )
    _add(
        checks, "cube", REF_EXPANSION, Fraction(-22016, 121),
        lambda: e.relations.z3,
    )
    _add(
        checks, "square expansion", REF_EXPANSION,
        (Fraction(32, 363), Fraction(-172, 231)),
        lambda: (e.relations.z2.qbar2, e.relations.z2.qbarz),
        trail=lambda: e.relations.trail,
    )
    _add(
        checks, "chern square expansion", REF_EXPANSION,
        (Fraction(160, 33), Fraction(76, 21)),
        lambda: (e.relations.c2_squared.qbar2, e.relations.c2_squared.qbarz),
    )
    _add(
        checks, "euler class expansion", REF_EXPANSION,
        (Fraction(40, 33), Fraction(-47, 21)),
        lambda: (e.relations.c4.qbar2, e.relations.c4.qbarz),
    )
    return checks


def _w_classes_checks(e: Engine) -> list[Check]:
    checks: list[Check] = []
    _add(checks, "sum class constant", REF_SUM, 192, lambda: e.wv.c_w)
    _add(
        checks, "sum class expansion", REF_SUM, (Fraction(16, 11), -3),
        lambda: (e.wv.w.qbar, e.wv.w.z), trail=lambda: e.wv.trail,
    )
    _add(checks, "pair sum constant", REF_SUM, 480, lambda: e.wv.c_v)
    _add(
        checks, "pair sum expansion", REF_SUM, (Fraction(40, 33), Fraction(-45, 7)),
        lambda: (e.wv.v.qbar2, e.wv.v.qbarz),
    )
    _add(checks, "chern against pair sum", REF_SUM, 5760, lambda: e.wv.c2_dot_v)
    _add(checks, "sum against pair sum", REF_SUM, 9600, lambda: e.wv.w_dot_v)
    _add(
        checks, "integral form of the sum class", REF_SUM, (Fraction(16, 11), -3),
        lambda: (e.wv.integral_w.qbar, e.wv.integral_w.z),
    )
    _add(
        checks, "integral form of the pair sum", REF_SUM,
        (Fraction(40, 11), Fraction(-135, 7)),
        lambda: (e.wv.integral_3v.qbar2, e.wv.integral_3v.qbarz),
    )
    _add(checks, "sum class cube", REF_SUM, 23040, lambda: e.wv.w_cube)
    _add(checks, "component cube", REF_SUM, 60, lambda: e.wv.w_component_cube)
    _add(
        checks, "sum class square constant", REF_AUX, 1152,
        lambda: e.aux.c_w_sq, trail=lambda: e.aux.trail,
    )
    _add(
        checks, "component square constant", REF_AUX, 12,
        lambda: e.aux.c_w_component_sq,
    )
    _add(
        checks, "component constant from scaling", REF_SCALE, 12,
        lambda: e.restriction_factor.c_w_component,
        trail=lambda: e.restriction_factor.trail,
    )
    _add(
        checks, "pair constant from surface", REF_SURF, 4,
        lambda: e.v_data.c_v_pair,
    )
    _add(
        checks, "euler class against component", REF_AUX, 408,
        lambda: e.aux.c4_w_component,
    )
    _add(
        checks, "euler pairing configured", REF_CONFIG, 408,
        lambda: e.doc.value("geometry_pack.c4_component_pairing"),
    )
    _add(
        checks, "dual against component square", REF_AUX, 84,
        lambda: e.aux.qbar_w_sq,
    )
    _add(
        checks, "dual against component pair", REF_AUX, 28,
        lambda: e.aux.qbar_w_pair,
    )
    return checks


def _w17_rank_checks(e: Engine) -> list[Check]:
    checks: list[Check] = []
    _add(
        checks, "independence matrix shape", REF_IND, (17, 138),
        lambda: (e.independence.matrix.rows, e.independence.matrix.cols),
    )
    _add(
        checks, "independence rank", REF_IND, 17,
        lambda: e.independence.rank, trail=lambda: e.independence.trail,
    )
    _add(
        checks, "separating gap", REF_IND, 48,
        lambda: e.independence.separating_gap,
    )
    _add(
        checks, "z pairing with squares", REF_IND, Fraction(-432, 11),
        lambda: e.independence.pairings.z_w_sq,
    )
    _add(
        checks, "z pairing with pairs", REF_IND, Fraction(-144, 11),
        lambda: e.independence.pairings.z_w_pair,
    )
    _add(
        checks, "chern pairing with squares", REF_IND, 144,
        lambda: e.independence.pairings.c2_w_sq,
    )
    _add(
        checks, "chern pairing with pairs", REF_IND, 48,
        lambda: e.independence.pairings.c2_w_pair,
    )
    _add(
        checks, "injectivity matrix shape", REF_INJ, (17, 17),
        lambda: (e.injectivity.matrix.rows, e.injectivity.matrix.cols),
    )
    _add(
        checks, "injectivity rank", REF_INJ, 17,
        lambda: e.injectivity.rank, trail=lambda: e.injectivity.trail,
    )
    _add(
        checks, "dual chern against component", REF_INJ, 504,
        lambda: e.injectivity.qbar_c2_w,
    )
    return checks


def _gram19_checks(e: Engine) -> list[Check]:
    checks: list[Check] = []
    _add(
        checks, "intersection matrix of the invariant classes", REF_G19,
        expected_gram19(
            e.doc.value("fourfold_pack.qbar_square"),
            e.doc.value("fourfold_pack.qbar_fujiki"),
        ),
        lambda: e.gram19,
    )
    _add(
        checks, "intersection matrix rank", REF_G19, 19,
        lambda: rank(e.gram19),
    )
    _add(
        checks, "restriction scaling factor", REF_SCALE, 2,
        lambda: e.restriction_factor.factor,
        trail=lambda: e.restriction_factor.trail,
    )
    _add(
        checks, "restricted half-diagonal square", REF_SCALE, -16,
        lambda: e.restriction_factor.xi_restriction_square,
    )
    _add(
        checks, "ambient restriction is a similitude", REF_SCALE, True,
        lambda: restriction_is_similitude(e.w_model, e.ambient),
    )
    _add(
        checks, "shifted divisor sum expansion", REF_G19,
        SPRIME_SQUARE_SUM, lambda: e.sprime.sum_squares,
    )
    _add(
        checks, "shifted divisor identity per coset", REF_G19, True,
        lambda: e.sprime.identity_holds,
    )
    return checks


def _other_pattern(theta) -> tuple[Fraction, ...]:
    return class_coeffs(
        {QBAR: Fraction(2, 5), S_SQ: Fraction(1, 4), MIXED[theta]: Fraction(-1, 4)}
    )


def _restrictions_checks(e: Engine) -> list[Check]:
    checks: list[Check] = []
    _add(
        checks, "ambient dual expansion", REF_REST,
        class_coeffs(
            {
                QBAR: 2,
                DELTA_SQ: Fraction(1, 2),
                S_SQ: Fraction(31, 32),
                DELTA_S: Fraction(-1, 4),
                **dict.fromkeys(MIXED.values(), Fraction(-1, 32)),
            }
        ),
        lambda: e.qbar_restriction.coeffs,
        trail=lambda: e.qbar_restriction.trail,
    )
    _add(
        checks, "second fourfold expansion", REF_REST,
        _other_pattern(THETAS[0]),
        lambda: e.w_other_all[0].coeffs,
        trail=lambda: e.w_other_all[0].trail,
    )
    _add(
        checks, "second fourfold pattern uniform", REF_REST, True,
        lambda: all(
            o.coeffs == _other_pattern(o.theta) for o in e.w_other_all
        ),
    )
    _add(
        checks, "second fourfold flat pairing", REF_REST, 30,
        lambda: e.w_other_all[0].rhs[QBAR],
    )
    _add(
        checks, "self expansion", REF_REST,
        class_coeffs({QBAR: Fraction(8, 5), DELTA_SQ: 1, S_SQ: 1, DELTA_S: Fraction(-1, 2)}),
        lambda: e.w_self.coeffs, trail=lambda: e.w_self.trail,
    )
    _add(
        checks, "self solution", REF_REST,
        (Fraction(4, 5), Fraction(9, 640), Fraction(1, 640)),
        lambda: (e.w_self.eta, e.w_self.beta, e.w_self.gamma),
    )
    _add(
        checks, "self system", REF_REST,
        Matrix([
            [350, -13600, -12000],
            [420, -8640, -22080],
            [252, -7616, -6720],
        ]),
        lambda: e.w_self.system,
    )
    _add(
        checks, "self data", REF_REST, (70, 180, 84),
        lambda: e.w_self.rhs,
    )
    _add(checks, "round trip self square", REF_REST, 60, lambda: e.w_self.self_square)
    _add(
        checks, "round trip with second fourfold", REF_REST, 12,
        lambda: e.w_self.pair_with_other,
    )
    _add(
        checks, "round trip second fourfold square", REF_REST, 12,
        lambda: e.w_self.other_self_square,
    )
    _add(
        checks, "round trip two second fourfolds", REF_REST, 4,
        lambda: e.w_self.other_cross,
    )
    _add(
        checks, "round trip fourfold dual", REF_REST, 70,
        lambda: e.w_self.qbar_pairing,
    )
    _add(
        checks, "round trip ambient dual", REF_REST, 84,
        lambda: e.w_self.ambient_dual_pairing,
    )
    _add(
        checks, "shift coefficient uniformity", REF_REST, True,
        lambda: e.w_self.shift_uniformity_ok,
    )
    _add(
        checks, "surface diagonal square", REF_SURF, -4,
        lambda: e.v_data.delta_sq, trail=lambda: e.v_data.trail,
    )
    _add(
        checks, "surface diagonal configured", REF_CONFIG, -4,
        lambda: e.doc.value("geometry_pack.surface_delta_square"),
    )
    _add(
        checks, "surface mixed pairings", REF_SURF, (0, -2, 0),
        lambda: (
            e.v_data.delta_s,
            e.v_data.s_pair_same_coset,
            e.v_data.s_pair_other,
        ),
    )
    _add(
        checks, "surface half-diagonal square", REF_SURF, -32,
        lambda: e.v_data.xi_sq,
    )
    _add(
        checks, "surface chern degree", REF_SURF, 48,
        lambda: e.v_data.c2_restriction_degree,
    )
    _add(
        checks, "surface chern degree configured", REF_CONFIG, 48,
        lambda: e.doc.value("geometry_pack.restricted_c2_degree"),
    )
    _add(
        checks, "surface compositions agree", REF_SURF, True,
        lambda: e.v_data.compositions_agree,
    )
    _add(
        checks, "dual square via sum class", REF_REST, 252,
        lambda: e.fixed_intersections.qbar2_w,
    )
    _add(
        checks, "dual square via nineteen classes", REF_REST, 252,
        lambda: e.gram19.pairings(
            [e.qbar_restriction.coeffs], [e.qbar_restriction.coeffs]
        )[0][0],
    )
    return checks


def _d_classes_checks(e: Engine) -> list[Check]:
    checks: list[Check] = []
    _add(
        checks, "push-forward diagonal", REF_DCLS, -52,
        lambda: e.d_pairings.diagonal, trail=lambda: e.d_pairings.trail,
    )
    _add(
        checks, "push-forward same block", REF_DCLS, 12,
        lambda: e.d_pairings.same_block,
    )
    _add(
        checks, "push-forward uniformity", REF_DCLS, True,
        lambda: e.d_pairings.uniform,
    )
    _add(
        checks, "block layout", REF_DCLS, (16, 16),
        lambda: (e.d_gram.blocks, e.d_gram.block_size),
    )
    _add(checks, "cross-block value", REF_DCLS, 8, lambda: e.d_gram.cross_block)
    _add(
        checks, "gram rank", REF_DCLS, 241,
        lambda: e.d_gram.rank, trail=lambda: e.d_gram.trail,
    )
    _add(checks, "gram nullity", REF_DCLS, 15, lambda: e.d_gram.nullity)
    _add(
        checks, "kernel block structure", REF_DCLS, True,
        lambda: e.d_gram.kernel_is_block_structured,
    )
    _add(
        checks, "difference relations in kernel", REF_DCLS, True,
        lambda: e.d_gram.difference_relations_in_kernel,
    )
    _add(
        checks, "difference relations rank", REF_DCLS, 15,
        lambda: e.d_gram.difference_relations_rank,
    )
    _add(checks, "row block total", REF_DCLS, 128, lambda: e.d_gram.row_block_total)
    _add(checks, "block sum square", REF_DCLS, 2048, lambda: e.d_gram.block_square)
    return checks


def _bookkeeping_checks(e: Engine) -> list[Check]:
    checks: list[Check] = []
    _add(
        checks, "betti numbers", REF_HODGE,
        (1, 0, 7, 8, 51, 56, 458, 56, 51, 8, 7, 0, 1),
        lambda: tuple(e.sixfold_diamond.betti(w) for w in range(13)),
    )
    _add(checks, "euler number", REF_HODGE, 448, lambda: e.sixfold_diamond.euler)
    _add(
        checks, "euler matches chern degree", REF_HODGE, 448,
        lambda: e.table["C(c6)"],
    )
    _add(
        checks, "even cohomology dimension", REF_HODGE, 576,
        lambda: e.sixfold_diamond.even_total,
    )
    _add(
        checks, "odd cohomology dimension", REF_HODGE, 128,
        lambda: e.sixfold_diamond.odd_total,
    )
    _add(
        checks, "total cohomology dimension", REF_HODGE, 704,
        lambda: e.sixfold_diamond.even_total + e.sixfold_diamond.odd_total,
    )
    _add(
        checks, "abelian betti numbers", REF_HODGE, (1, 4, 6, 4, 1),
        lambda: tuple(e.abelian_diamond.betti(w) for w in range(5)),
    )
    _add(
        checks, "invariant weight 4", REF_HODGE, (1, 6, 22, 6, 1),
        lambda: e.weight4.translation_fixed, trail=lambda: e.weight4.trail,
    )
    _add(
        checks, "invariant weight 4 rank", REF_HODGE, 36,
        lambda: e.weight4.fixed_rank,
    )
    _add(
        checks, "weight 4 symmetric part", REF_HODGE, (1, 5, 16, 5, 1),
        lambda: e.weight4.sym2_part,
    )
    _add(
        checks, "weight 4 extra part", REF_HODGE, (0, 1, 6, 1, 0),
        lambda: e.weight4.extra_part,
    )
    _add(checks, "weight 4 extra rank", REF_HODGE, 8, lambda: e.weight4.extra_rank)
    _add(
        checks, "weight 4 twist match", REF_HODGE, True,
        lambda: e.weight4.extra_matches_twist,
    )
    _add(
        checks, "weight 4 reassembly", REF_HODGE, (2, 23, 61, 23, 2),
        lambda: e.weight4_total,
    )
    _add(
        checks, "weight 6 known part", REF_HODGE, 479,
        lambda: e.weight6.known_dim, trail=lambda: e.weight6.trail,
    )
    _add(
        checks, "weight 6 invariant", REF_HODGE, 113,
        lambda: e.weight6.invariant_dim,
    )
    _add(
        checks, "weight 6 exhaustion", REF_HODGE, (84, 21, 1, 7),
        lambda: (
            e.weight6.sym3_dim,
            e.weight6.wedge2_dim,
            e.weight6.square_class_dim,
            e.weight6.cube_class_dim,
        ),
    )
    _add(
        checks, "weight 6 missing multiplicity", REF_HODGE, 0,
        lambda: e.weight6.missing_multiplicity,
    )
    _add(
        checks, "rank table rows", REF_REPS,
        (
            (1, 7, 28, 84, 28, 7, 1),
            (0, 0, 7, 22, 7, 0, 0),
            (0, 0, 16, 112, 16, 0, 0),
            (0, 0, 0, 240, 0, 0, 0),
        ),
        lambda: e.rank_table.rows, trail=lambda: e.rank_table.trail,
    )
    _add(
        checks, "rank table component totals", REF_REPS, (156, 36, 144, 240),
        lambda: e.rank_table.component_totals,
    )
    _add(
        checks, "rank table degree totals", REF_REPS, (1, 7, 51, 458, 51, 7, 1),
        lambda: e.rank_table.degree_totals,
    )
    _add(
        checks, "rank table even total", REF_REPS, 576,
        lambda: e.rank_table.even_total,
    )
    _add(
        checks, "rank table matches cohomology", REF_REPS, True,
        lambda: rank_table_matches_diamond(e.rank_table, e.sixfold_diamond),
    )
    _add(
        checks, "symmetric square and exterior square", REF_REPS, (28, 21),
        lambda: rep_dims(7, 2),
    )
    _add(checks, "symmetric cube", REF_REPS, (84, 35), lambda: rep_dims(7, 3))
    _add(
        checks, "canonical span dimensions", REF_REPS, (17, 241, 17),
        lambda: (e.canonical.degree4, e.canonical.degree6, e.canonical.degree8),
    )
    _add(
        checks, "canonical span symmetry", REF_REPS, True,
        lambda: e.canonical.symmetric,
    )
    _add(
        checks, "fixed even dimension", REF_TRACE, 336,
        lambda: e.rank_table.even_fixed,
    )
    _add(
        checks, "group element euler numbers", REF_TRACE, (448, 192, 464),
        lambda: (
            e.traces.chi_identity,
            e.traces.chi_translation,
            e.traces.chi_reflection,
        ),
        trail=lambda: e.traces.trail,
    )
    _add(
        checks, "spin traces", REF_TRACE, (240, -16, 0),
        lambda: (
            e.traces.trace_identity,
            e.traces.trace_translation,
            e.traces.trace_reflection,
        ),
    )
    _add(
        checks, "spin invariant dimension", REF_TRACE, 0,
        lambda: e.traces.invariant_dim,
    )
    _add(
        checks, "blowup h(3,1)", REF_BLOWUP, 22,
        lambda: e.blowup.h31_blowup, trail=lambda: e.blowup.trail,
    )
    _add(checks, "blowup h(4,0)", REF_BLOWUP, 1, lambda: e.blowup.h40_blowup)
    _add(
        checks, "blowup matches targets", REF_BLOWUP, True,
        lambda: e.blowup.matches,
    )
    return checks


_BUILDERS: dict[str, Callable[[Engine], list[Check]]] = {
    "fujiki-table": _fujiki_table_checks,
    "basis-lemma": _basis_lemma_checks,
    "w-classes": _w_classes_checks,
    "w17-rank": _w17_rank_checks,
    "gram19": _gram19_checks,
    "restrictions": _restrictions_checks,
    "d-classes": _d_classes_checks,
    "bookkeeping": _bookkeeping_checks,
}

if SUITE_NAMES != (*_BUILDERS, "all"):
    raise ImportError("the suite builders do not match kum3check.SUITE_NAMES")


def run_suite(engine: Engine, name: str) -> SuiteReport:
    if name == "all":
        return merge_reports(
            "all", [run_suite(engine, base) for base in _BUILDERS]
        )
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(SUITE_NAMES)
        raise ValueError(f"unknown suite {name!r}; choose one of: {known}") from None
    return SuiteReport(name, tuple(builder(engine)))
