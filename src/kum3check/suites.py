"""Named check suites over one derivation engine.

Each suite compares derived quantities against hard-coded expected values,
so a mutated configuration entry always surfaces as a failing check.  The
checks are data: ``SUITES`` maps each suite, in report order, to its rows
``(id, ref, expected, value[, trail])``.  The ``value`` is a path
``"stage.step..."`` or a tuple of paths, read into a tuple; the ``trail``
is a path or a tuple of paths, whose trails are joined.  A path starts at
an engine stage, so a row names the stage it reads without a run, and
each later step reads an attribute, a ``dict`` key (``"table.C(c6)"``) or
a plain-tuple position (``"w_other_all.0.coeffs"``).  Every number a row
prints is computed by a stage; the rows only read.

``expected`` is a value, or a function of the engine when it depends on
the document.  A row whose reads raise becomes a failing error check
instead of aborting the suite.
"""

from fractions import Fraction

from . import SUITE_NAMES
from .engine import Engine
from .kummer import THETAS
# rank is unread here; the bench's test_restores_every_wrapped_function wraps suites.rank
from .linalg import Matrix, rank
from .report import Check, SuiteReport, error_check, make_check
from .wgeometry import (
    DELTA_S,
    DELTA_SQ,
    MIXED,
    QBAR,
    S_SQ,
    SPRIME_SQUARE_SUM,
    class_coeffs,
    expected_gram19,
    expected_w_other,
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


SUITES = {
    "fujiki-table": (
        *(
            (f"constant {key}", REF_TABLE, value, f"table.{key}")
            for key, value in EXPECTED_CONSTANTS.items()
        ),
        ("dual factor degree 4", REF_FACTORS, 3, "dual_factor4"),
        ("dual factor degree 8", REF_FACTORS, 7, "dual_factor8"),
        ("chern to dual ratio", REF_Z, Fraction(24, 11), "relations.ratio"),
        (
            "auxiliary class vanishing",
            REF_Z,
            (0, 0, 0),
            ("relations.c_z", "relations.c_qbarz", "relations.top_qbar2_z"),
        ),
        ("auxiliary square constant", REF_Z, Fraction(384, 11), "relations.c_z2"),
        ("auxiliary square against dual", REF_Z, Fraction(2688, 11), "relations.top_qbar_z2"),
        ("z3 derivation", REF_Z, Fraction(-22016, 121), "relations.z3", "relations.trail"),
        ("evaluate at degree zero", REF_EVAL, 480, "evaluations.0"),
        ("evaluate at degree four", REF_EVAL, 1188, "evaluations.1"),
    ),
    "basis-lemma": (
        ("square constant", REF_EXPANSION, Fraction(384, 11), "relations.c_z2"),
        ("square against dual", REF_EXPANSION, Fraction(2688, 11), "relations.top_qbar_z2"),
        ("cube", REF_EXPANSION, Fraction(-22016, 121), "relations.z3"),
        (
            "square expansion",
            REF_EXPANSION,
            (Fraction(32, 363), Fraction(-172, 231)),
            ("relations.z2.qbar2", "relations.z2.qbarz"),
            "relations.trail",
        ),
        (
            "chern square expansion",
            REF_EXPANSION,
            (Fraction(160, 33), Fraction(76, 21)),
            ("relations.c2_squared.qbar2", "relations.c2_squared.qbarz"),
        ),
        (
            "euler class expansion",
            REF_EXPANSION,
            (Fraction(40, 33), Fraction(-47, 21)),
            ("relations.c4.qbar2", "relations.c4.qbarz"),
        ),
    ),
    "w-classes": (
        ("sum class constant", REF_SUM, 192, "wv.c_w"),
        (
            "sum class expansion",
            REF_SUM,
            (Fraction(16, 11), -3),
            ("wv.w.qbar", "wv.w.z"),
            "wv.trail",
        ),
        ("pair sum constant", REF_SUM, 480, "wv.c_v"),
        (
            "pair sum expansion",
            REF_SUM,
            (Fraction(40, 33), Fraction(-45, 7)),
            ("wv.v.qbar2", "wv.v.qbarz"),
        ),
        ("chern against pair sum", REF_SUM, 5760, "wv.c2_dot_v"),
        ("sum against pair sum", REF_SUM, 9600, "wv.w_dot_v"),
        (
            "integral form of the sum class",
            REF_SUM,
            (Fraction(16, 11), -3),
            ("wv.integral_w.qbar", "wv.integral_w.z"),
        ),
        (
            "integral form of the pair sum",
            REF_SUM,
            (Fraction(40, 11), Fraction(-135, 7)),
            ("wv.integral_3v.qbar2", "wv.integral_3v.qbarz"),
        ),
        ("sum class cube", REF_SUM, 23040, "wv.w_cube"),
        ("component cube", REF_SUM, 60, "wv.w_component_cube"),
        ("sum class square constant", REF_AUX, 1152, "aux.c_w_sq", "aux.trail"),
        ("component square constant", REF_AUX, 12, "aux.c_w_component_sq"),
        (
            "component constant from scaling",
            REF_SCALE,
            12,
            "restriction_factor.c_w_component",
            "restriction_factor.trail",
        ),
        ("pair constant from surface", REF_SURF, 4, "v_data.c_v_pair"),
        ("euler class against component", REF_AUX, 408, "aux.c4_w_component"),
        ("euler pairing configured", REF_CONFIG, 408, "configured.c4_component_pairing"),
        ("dual against component square", REF_AUX, 84, "aux.qbar_w_sq"),
        ("dual against component pair", REF_AUX, 28, "aux.qbar_w_pair"),
    ),
    "w17-rank": (
        (
            "independence matrix shape",
            REF_IND,
            (17, 138),
            ("independence.matrix.rows", "independence.matrix.cols"),
        ),
        ("independence rank", REF_IND, 17, "independence.rank", "independence.trail"),
        ("separating gap", REF_IND, 48, "independence.separating_gap"),
        ("z pairing with squares", REF_IND, Fraction(-432, 11), "independence.pairings.z_w_sq"),
        ("z pairing with pairs", REF_IND, Fraction(-144, 11), "independence.pairings.z_w_pair"),
        ("chern pairing with squares", REF_IND, 144, "independence.pairings.c2_w_sq"),
        ("chern pairing with pairs", REF_IND, 48, "independence.pairings.c2_w_pair"),
        (
            "injectivity matrix shape",
            REF_INJ,
            (17, 17),
            ("injectivity.matrix.rows", "injectivity.matrix.cols"),
        ),
        ("injectivity rank", REF_INJ, 17, "injectivity.rank", "injectivity.trail"),
        ("dual chern against component", REF_INJ, 504, "injectivity.qbar_c2_w"),
    ),
    "gram19": (
        (
            "intersection matrix of the invariant classes",
            REF_G19,
            lambda e: expected_gram19(
                e.doc.value("fourfold_pack.qbar_square"),
                e.doc.value("fourfold_pack.qbar_fujiki"),
            ),
            "gram19",
        ),
        ("intersection matrix rank", REF_G19, 19, "gram19_rank"),
        (
            "restriction scaling factor",
            REF_SCALE,
            2,
            "restriction_factor.factor",
            "restriction_factor.trail",
        ),
        (
            "restricted half-diagonal square",
            REF_SCALE,
            -16,
            "restriction_factor.xi_restriction_square",
        ),
        ("ambient restriction is a similitude", REF_SCALE, True, "similitude"),
        ("shifted divisor sum expansion", REF_G19, SPRIME_SQUARE_SUM, "sprime.sum_squares"),
        ("shifted divisor identity per coset", REF_G19, True, "sprime.identity_holds"),
    ),
    "restrictions": (
        (
            "ambient dual expansion",
            REF_REST,
            class_coeffs({
                QBAR: 2, DELTA_SQ: Fraction(1, 2), S_SQ: Fraction(31, 32),
                DELTA_S: Fraction(-1, 4), **dict.fromkeys(MIXED.values(), Fraction(-1, 32)),
            }),
            "qbar_restriction.coeffs",
            "qbar_restriction.trail",
        ),
        (
            "second fourfold expansion",
            REF_REST,
            expected_w_other(THETAS[0]),
            "w_other_all.0.coeffs",
            ("v_data.trail", "w_other_all.0.trail"),
        ),
        ("second fourfold pattern uniform", REF_REST, True, "w_other_uniform"),
        # rhs position 0 is QBAR, the pairing with the dual class
        ("second fourfold flat pairing", REF_REST, 30, "w_other_all.0.rhs.0"),
        (
            "self expansion",
            REF_REST,
            class_coeffs({QBAR: Fraction(8, 5), DELTA_SQ: 1, S_SQ: 1, DELTA_S: Fraction(-1, 2)}),
            "w_self.coeffs",
            "w_self.trail",
        ),
        (
            "self solution",
            REF_REST,
            (Fraction(4, 5), Fraction(9, 640), Fraction(1, 640)),
            ("w_self.eta", "w_self.beta", "w_self.gamma"),
        ),
        (
            "self system",
            REF_REST,
            Matrix([[350, -13600, -12000], [420, -8640, -22080], [252, -7616, -6720]]),
            "w_self.system",
        ),
        ("self data", REF_REST, (70, 180, 84), "w_self.rhs"),
        ("round trip self square", REF_REST, 60, "w_self.self_square"),
        ("round trip with second fourfold", REF_REST, 12, "w_self.pair_with_other"),
        ("round trip second fourfold square", REF_REST, 12, "w_self.other_self_square"),
        ("round trip two second fourfolds", REF_REST, 4, "w_self.other_cross"),
        ("round trip fourfold dual", REF_REST, 70, "w_self.qbar_pairing"),
        ("round trip ambient dual", REF_REST, 84, "w_self.ambient_dual_pairing"),
        ("shift coefficient uniformity", REF_REST, True, "w_self.shift_uniformity_ok"),
        ("surface diagonal square", REF_SURF, -4, "v_data.delta_sq", "v_data.trail"),
        ("surface diagonal configured", REF_CONFIG, -4, "configured.surface_delta_square"),
        (
            "surface mixed pairings",
            REF_SURF,
            (0, -2, 0),
            ("v_data.delta_s", "v_data.s_pair_same_coset", "v_data.s_pair_other"),
        ),
        ("surface half-diagonal square", REF_SURF, -32, "v_data.xi_sq"),
        ("surface chern degree", REF_SURF, 48, "v_data.c2_restriction_degree"),
        ("surface chern degree configured", REF_CONFIG, 48, "configured.restricted_c2_degree"),
        ("surface compositions agree", REF_SURF, True, "v_data.compositions_agree"),
        ("dual square via sum class", REF_REST, 252, "fixed_intersections.qbar2_w"),
        ("dual square via nineteen classes", REF_REST, 252, "dual_square"),
    ),
    "d-classes": (
        ("push-forward diagonal", REF_DCLS, -52, "d_pairings.diagonal", "d_pairings.trail"),
        ("push-forward same block", REF_DCLS, 12, "d_pairings.same_block"),
        ("push-forward uniformity", REF_DCLS, True, "d_pairings.uniform"),
        ("block layout", REF_DCLS, (16, 16), ("d_gram.blocks", "d_gram.block_size")),
        ("cross-block value", REF_DCLS, 8, "d_gram.cross_block"),
        ("gram rank", REF_DCLS, 241, "d_gram.rank", "d_gram.trail"),
        ("gram nullity", REF_DCLS, 15, "d_gram.nullity"),
        ("kernel block structure", REF_DCLS, True, "d_gram.kernel_is_block_structured"),
        (
            "difference relations in kernel",
            REF_DCLS,
            True,
            "d_gram.difference_relations_in_kernel",
        ),
        ("difference relations rank", REF_DCLS, 15, "d_gram.difference_relations_rank"),
        ("row block total", REF_DCLS, 128, "d_gram.row_block_total"),
        ("block sum square", REF_DCLS, 2048, "d_gram.block_square"),
    ),
    "bookkeeping": (
        (
            "betti numbers",
            REF_HODGE,
            (1, 0, 7, 8, 51, 56, 458, 56, 51, 8, 7, 0, 1),
            "sixfold_diamond.bettis",
        ),
        ("euler number", REF_HODGE, 448, "sixfold_diamond.euler"),
        ("euler matches chern degree", REF_HODGE, 448, "table.C(c6)"),
        ("even cohomology dimension", REF_HODGE, 576, "sixfold_diamond.even_total"),
        ("odd cohomology dimension", REF_HODGE, 128, "sixfold_diamond.odd_total"),
        ("total cohomology dimension", REF_HODGE, 704, "sixfold_diamond.total"),
        ("abelian betti numbers", REF_HODGE, (1, 4, 6, 4, 1), "abelian_diamond.bettis"),
        (
            "invariant weight 4",
            REF_HODGE,
            (1, 6, 22, 6, 1),
            "weight4.translation_fixed",
            "weight4.trail",
        ),
        ("invariant weight 4 rank", REF_HODGE, 36, "weight4.fixed_rank"),
        ("weight 4 symmetric part", REF_HODGE, (1, 5, 16, 5, 1), "weight4.sym2_part"),
        ("weight 4 extra part", REF_HODGE, (0, 1, 6, 1, 0), "weight4.extra_part"),
        ("weight 4 extra rank", REF_HODGE, 8, "weight4.extra_rank"),
        ("weight 4 twist match", REF_HODGE, True, "weight4.extra_matches_twist"),
        ("weight 4 reassembly", REF_HODGE, (2, 23, 61, 23, 2), "weight4_total"),
        ("weight 6 known part", REF_HODGE, 479, "weight6.known_dim", "weight6.trail"),
        ("weight 6 invariant", REF_HODGE, 113, "weight6.invariant_dim"),
        (
            "weight 6 exhaustion",
            REF_HODGE,
            (84, 21, 1, 7),
            (
                "weight6.sym3_dim",
                "weight6.wedge2_dim",
                "weight6.square_class_dim",
                "weight6.cube_class_dim",
            ),
        ),
        ("weight 6 missing multiplicity", REF_HODGE, 0, "weight6.missing_multiplicity"),
        (
            "rank table rows",
            REF_REPS,
            (
                (1, 7, 28, 84, 28, 7, 1),
                (0, 0, 7, 22, 7, 0, 0),
                (0, 0, 16, 112, 16, 0, 0),
                (0, 0, 0, 240, 0, 0, 0),
            ),
            "rank_table.rows",
            "rank_table.trail",
        ),
        (
            "rank table component totals",
            REF_REPS,
            (156, 36, 144, 240),
            "rank_table.component_totals",
        ),
        (
            "rank table degree totals",
            REF_REPS,
            (1, 7, 51, 458, 51, 7, 1),
            "rank_table.degree_totals",
        ),
        ("rank table even total", REF_REPS, 576, "rank_table.even_total"),
        ("rank table matches cohomology", REF_REPS, True, "rank_table_matches"),
        ("symmetric square and exterior square", REF_REPS, (28, 21), "h2_powers.0"),
        ("symmetric cube", REF_REPS, (84, 35), "h2_powers.1"),
        (
            "canonical span dimensions",
            REF_REPS,
            (17, 241, 17),
            ("independence.rank", "d_gram.rank", "injectivity.rank"),
        ),
        ("canonical span symmetry", REF_REPS, True, "canonical"),
        ("fixed even dimension", REF_TRACE, 336, "rank_table.even_fixed"),
        (
            "group element euler numbers",
            REF_TRACE,
            (448, 192, 464),
            ("traces.chi_identity", "traces.chi_translation", "traces.chi_reflection"),
            "traces.trail",
        ),
        (
            "spin traces",
            REF_TRACE,
            (240, -16, 0),
            ("traces.trace_identity", "traces.trace_translation", "traces.trace_reflection"),
        ),
        ("spin invariant dimension", REF_TRACE, 0, "traces.invariant_dim"),
        ("blowup h(3,1)", REF_BLOWUP, 22, "blowup.h31_blowup", "blowup.trail"),
        ("blowup h(4,0)", REF_BLOWUP, 1, "blowup.h40_blowup"),
        ("blowup matches targets", REF_BLOWUP, True, "blowup.matches"),
    ),
}

def _read(e: Engine, path: str):
    """The value at ``path``: an attribute, a dict key or a plain-tuple position per step."""
    value = e
    for step in path.split("."):
        if type(value) is dict:
            value = value[step]
        elif type(value) is tuple:
            value = value[int(step)]
        else:
            value = getattr(value, step)
    return value


def _check(e: Engine, check_id: str, ref: str, expected, value, trail=()) -> Check:
    """One row's check; a raise while reading it becomes a failing error check."""
    try:
        if callable(expected):
            expected = expected(e)
        if isinstance(value, str):
            computed = _read(e, value)
        else:
            computed = tuple(_read(e, path) for path in value)
        paths = (trail,) if isinstance(trail, str) else trail
        trail_values = tuple(line for path in paths for line in _read(e, path))
    except Exception as exc:
        return error_check(check_id, ref, exc)
    return make_check(check_id, ref, expected, computed, trail_values)


def run_suite(engine: Engine, name: str) -> SuiteReport:
    if name == "all":
        # one call per suite through the module-level name, so a tracer that
        # wraps run_suite times each suite (bench: suites.<suite>.ms)
        checks = [(base, c) for base in SUITES for c in run_suite(engine, base).checks]
        return SuiteReport("all", tuple(Check(f"{base}/{c.id}", *c[1:]) for base, c in checks))
    try:
        rows = SUITES[name]
    except KeyError:
        known = ", ".join(SUITE_NAMES)
        raise ValueError(f"unknown suite {name!r}; choose one of: {known}") from None
    return SuiteReport(name, tuple(_check(engine, *row) for row in rows))
