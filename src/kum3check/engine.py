"""Derivation pipeline from a configuration document to the certificates.

Every quantity is computed at most once and cached; downstream steps see
exactly the objects their derivations consume, so one engine instance
reproduces the whole chain from the constant table to the rank, kernel
and bookkeeping certificates.  A stage that raises is computed once too:
every later read raises the same exception object again.

Stages read the configuration by entry name only: ``doc.value(name)`` for
``<pack>.<key>`` (``doc.integer(name)`` for the entries that must be
integers: the Hodge entries, and ``fourfold_pack.c4_degree`` where
``traces`` reads it as an Euler number), plus the H^2 squares of
``ambient``.  Each derivation takes the scalars it reads as arguments.
"""

from fractions import Fraction
from typing import Callable

from .bookkeeping import (
    BlowupComparison,
    HodgeDiamond,
    InvariantWeight4,
    InvariantWeight6,
    RankTable,
    Row,
    TraceAverages,
    blowup_comparison,
    build_rank_table,
    diamond_from_half,
    invariant_weight4,
    invariant_weight6,
    rank_table_matches_diamond,
    rep_dims,
    trace_averages,
    weight4_kuenneth_total,
)
from .config import (
    ABELIAN_HODGE_PAIRS,
    FUJIKI_KEYS,
    H2_LABELS,
    SIXFOLD_HODGE_PAIRS,
    ConfigDocument,
)
from .fujiki import (
    AuxiliaryValues,
    WVClasses,
    ZRelations,
    auxiliary_values,
    deg8,
    derive_z_relations,
    evaluate_fujiki,
    express_w_v,
    multiply,
    qbar_factor,
)
from .kummer import (
    LABEL_COUNT,
    THETAS,
    DGramCertificate,
    FixedClassIntersections,
    IndependenceCertificate,
    InjectivityCertificate,
    d_gram_certificate,
    deg4_independence_certificate,
    qbar_injectivity_certificate,
)
from .linalg import Matrix, rank
from .quadspace import QuadSpace
from .wgeometry import (
    DPairings,
    QbarRestriction,
    RestrictionFactor,
    SPrimeVectors,
    VRestrictionData,
    WModel,
    WOtherRestriction,
    WSelfRestriction,
    build_gram19,
    build_w_model,
    d_self_pairings,
    derive_restriction_factor,
    expected_w_other,
    restrict_qbar,
    restrict_w_other,
    restrict_w_self,
    restriction_is_similitude,
    s_prime_vectors,
    v_restriction_data,
)


class stage:
    """A memoised engine stage: its value, or the first exception it raised.

    Unlike ``functools.cached_property``, a failing stage is not run again
    by each check that reads it; the memo holds the exception and its
    traceback, and every read re-raises that same object.  The memo sits in
    the instance ``__dict__`` under ``"<name> stage"``, a key that no
    attribute of the engine can shadow.
    """

    def __init__(self, func: Callable):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.key = f"{name} stage"

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        memo = instance.__dict__.get(self.key)
        if memo is None:
            try:
                memo = self.func(instance), None
            except Exception as exc:
                memo = None, (exc, exc.__traceback__)
            instance.__dict__[self.key] = memo
        value, error = memo
        if error is not None:
            exc, traceback = error
            raise exc.with_traceback(traceback)
        return value


class Engine:
    """Lazy, memoised derivation chain over one configuration document."""

    def __init__(self, doc: ConfigDocument):
        self.doc = doc

    # -- degree-wise constants and the z basis ------------------------------

    @stage
    def table(self) -> dict[str, Fraction]:
        return {key: self.doc.value(f"fujiki_constants.{key}") for key in FUJIKI_KEYS}

    @stage
    def relations(self) -> ZRelations:
        return derive_z_relations(self.table)

    @stage
    def dual_factor4(self) -> Fraction:
        return qbar_factor(self.table, 4)

    @stage
    def dual_factor8(self) -> Fraction:
        return qbar_factor(self.table, 8)

    @stage
    def evaluations(self) -> tuple[Fraction, Fraction]:
        table = self.table
        return evaluate_fujiki(table["C(1)"], 0, 2), evaluate_fujiki(table["C(qbar)"], 4, 3)

    @stage
    def configured(self) -> dict[str, Fraction]:
        # geometric entries that checks hold against their derivations
        keys = ("c4_component_pairing", "surface_delta_square", "restricted_c2_degree")
        return {key: self.doc.value(f"geometry_pack.{key}") for key in keys}

    # -- the fixed fourfold and its nineteen invariant classes --------------

    @stage
    def restriction_factor(self) -> RestrictionFactor:
        return derive_restriction_factor(
            self.doc.value("fourfold_pack.fujiki_constant"),
            self.doc.value("geometry_pack.xi_square"),
        )

    @stage
    def w_model(self) -> WModel:
        return build_w_model(self.restriction_factor.factor)

    @stage
    def gram19(self) -> Matrix:
        return build_gram19(self.w_model)

    @stage
    def gram19_rank(self) -> int:
        return rank(self.gram19)

    @stage
    def ambient(self) -> QuadSpace:
        return QuadSpace(H2_LABELS, self.doc.h2_squares, "ambient")

    @stage
    def similitude(self) -> bool:
        return restriction_is_similitude(self.w_model, self.ambient)

    @stage
    def qbar_restriction(self) -> QbarRestriction:
        return restrict_qbar(self.w_model, self.ambient)

    @stage
    def dual_square(self) -> Fraction:
        # the restricted ambient dual squared through the nineteen classes
        gram, coeffs = self.gram19, self.qbar_restriction.coeffs
        return gram.pairings([coeffs], [coeffs])[0][0]

    @stage
    def v_data(self) -> VRestrictionData:
        return v_restriction_data(
            THETAS[0],
            self.doc.value("geometry_pack.xi_square"),
            self.doc.value("geometry_pack.surface_c2_degree"),
            self.doc.value("geometry_pack.normal_c2_degree"),
        )

    @stage
    def w_other_all(self) -> tuple[WOtherRestriction, ...]:
        model, gram = self.w_model, self.gram19
        ratio = self.doc.value("fourfold_pack.c2_qbar_ratio")
        deg_c2_v = self.doc.value("geometry_pack.surface_c2_degree")
        deg_c2_nvw = self.doc.value("geometry_pack.normal_c2_degree")
        return tuple(
            restrict_w_other(model, gram, ratio, theta, deg_c2_v, deg_c2_nvw)
            for theta in THETAS
        )

    @stage
    def w_other_uniform(self) -> bool:
        # each shift against the printed pattern, so a fault shared by all shifts shows
        return all(o.coeffs == expected_w_other(o.theta) for o in self.w_other_all)

    @stage
    def sprime(self) -> SPrimeVectors:
        return s_prime_vectors(self.w_model)

    @stage
    def w_self(self) -> WSelfRestriction:
        return restrict_w_self(
            self.gram19,
            self.doc.value("fourfold_pack.c4_degree"),
            self.doc.value("fourfold_pack.c2_qbar_ratio"),
            self.qbar_restriction,
            self.sprime,
            self.w_other_all,
            c4_w_component=self.doc.value("geometry_pack.c4_component_pairing"),
            w_sq_w_other=self.doc.value("geometry_pack.normal_c2_degree"),
            qbar_w_sq=self.aux.qbar_w_sq,
        )

    # -- sum classes on the sixfold ------------------------------------------

    @stage
    def wv(self) -> WVClasses:
        return express_w_v(
            self.relations,
            self.doc.value("geometry_pack.normal_c2_degree"),
            self.doc.value("geometry_pack.transversal_points"),
            self.doc.value("geometry_pack.restricted_c2_degree"),
            self.restriction_factor.c_w_component,
            self.v_data.c_v_pair,
        )

    @stage
    def aux(self) -> AuxiliaryValues:
        return auxiliary_values(self.relations, self.wv, self.v_data.c_v_pair)

    # -- certificates ----------------------------------------------------------

    @stage
    def fixed_intersections(self) -> FixedClassIntersections:
        rel = self.relations
        wv = self.wv
        n = LABEL_COUNT
        return FixedClassIntersections(
            qbar2_w=multiply(wv.w, deg8(1, 0), rel) / n,
            qbarz_w=multiply(wv.w, deg8(0, 1), rel) / n,
            qbar_w_sq=self.aux.qbar_w_sq,
            qbar_w_pair=self.aux.qbar_w_pair,
            w_cube=wv.w_component_cube,
            w_sq_w_other=self.doc.value("geometry_pack.normal_c2_degree"),
            w_triple_distinct=self.doc.value("geometry_pack.transversal_points"),
            c2_qbar2=self.table["C(qbar^2*c2)"],
            c2_qbarz=multiply(rel.c2, deg8(0, 1), rel),
            qbar_c2_sq=self.table["C(qbar*c2^2)"],
            ratio=rel.ratio,
            w_qbar_coeff=wv.w.qbar,
            w_z_coeff=wv.w.z,
        )

    @stage
    def independence(self) -> IndependenceCertificate:
        return deg4_independence_certificate(self.fixed_intersections)

    @stage
    def injectivity(self) -> InjectivityCertificate:
        return qbar_injectivity_certificate(self.fixed_intersections)

    @stage
    def d_pairings(self) -> DPairings:
        return d_self_pairings(self.w_model, self.w_self.coeffs, self.sprime)

    @stage
    def d_gram(self) -> DGramCertificate:
        # a block is one halving fiber {alpha : 2*alpha = tau}, a coset of
        # the sixteen two-torsion points, and there is one block per tau
        return d_gram_certificate(
            self.d_pairings.diagonal, self.d_pairings.same_block, LABEL_COUNT, LABEL_COUNT
        )

    # -- cohomology bookkeeping -------------------------------------------------

    @stage
    def sixfold_diamond(self) -> HodgeDiamond:
        half = {
            (p, q): self.doc.integer(f"hodge_pack.sixfold h({p},{q})")
            for p, q in SIXFOLD_HODGE_PAIRS
        }
        return diamond_from_half(half, 6)

    @stage
    def abelian_diamond(self) -> HodgeDiamond:
        half = {
            (p, q): self.doc.integer(f"hodge_pack.abelian h({p},{q})")
            for p, q in ABELIAN_HODGE_PAIRS
        }
        return diamond_from_half(half, 2)

    @stage
    def weight4(self) -> InvariantWeight4:
        h40, h31, h22 = (
            self.doc.integer(f"hodge_pack.length4 h({pq})")
            for pq in ("4,0", "3,1", "2,2")
        )
        return invariant_weight4(
            (h40, h31, h22, h31, h40),
            self.abelian_diamond,
            self.sixfold_diamond,
        )

    @stage
    def weight4_total(self) -> Row:
        return weight4_kuenneth_total(
            self.weight4.translation_fixed,
            self.abelian_diamond,
            self.sixfold_diamond,
        )

    @stage
    def weight6(self) -> InvariantWeight6:
        return invariant_weight6(
            self.doc.integer("hodge_pack.length4 b6"),
            self.abelian_diamond,
            self.sixfold_diamond,
            self.weight4.fixed_rank,
        )

    @stage
    def rank_table(self) -> RankTable:
        return build_rank_table(
            base_rank=self.sixfold_diamond.bettis[2],
            spin_rank=self.doc.integer("hodge_pack.spin rank"),
            odd_rank=self.doc.integer("hodge_pack.odd rank"),
        )

    @stage
    def rank_table_matches(self) -> bool:
        return rank_table_matches_diamond(self.rank_table, self.sixfold_diamond)

    @stage
    def h2_powers(self) -> tuple[tuple[int, int], ...]:
        # symmetric and exterior square and cube of the rank-7 second cohomology
        return rep_dims(7, 2), rep_dims(7, 3)

    @stage
    def canonical(self) -> bool:
        # the canonical span has the same dimension in degrees 4 and 8
        return self.independence.rank == self.injectivity.rank

    @stage
    def traces(self) -> TraceAverages:
        table = self.rank_table
        return trace_averages(
            euler_total=self.sixfold_diamond.euler,
            fourfold_euler=self.doc.integer("fourfold_pack.c4_degree"),
            reflection_extra_points=self.doc.integer(
                "hodge_pack.reflection extra points"
            ),
            translation_surface_count=self.doc.integer(
                "hodge_pack.translation surface count"
            ),
            surface_euler=self.doc.integer("hodge_pack.surface euler"),
            even_fixed_dim=table.even_fixed,
            odd_dim=self.doc.integer("hodge_pack.odd rank"),
        )

    @stage
    def blowup(self) -> BlowupComparison:
        # each blown-up centre is one fourfold carrying one holomorphic two-form
        return blowup_comparison(
            self.sixfold_diamond,
            center_count=LABEL_COUNT,
            center_h20=1,
            target_h31=self.doc.integer("hodge_pack.blowup h(3,1) target"),
            target_h40=self.doc.integer("hodge_pack.blowup h(4,0) target"),
        )
