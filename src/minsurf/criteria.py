"""Pointwise sufficient stability criteria for minimal graphs.

Two tests run over the singular-value field of the map: the
distance-decreasing criterion (all stretches at most one) and the
two-Jacobian criterion (product of the two largest stretches at most
1/(p-1) for maps of rank at most p). Both are sufficient, not necessary,
and the combined report cross-checks them against a computed stability
index when one is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass

from .area import AreaReport, minimal_system_residual
from .errors import ContradictionDetected
from .grid import GridMap, SingularSpectrumField, jacobian, singular_spectrum
from .variation import DEFAULT_MINIMAL_TOL, StabilityReport

__all__ = [
    "DistanceDecreasingVerdict",
    "TwoJacobianVerdict",
    "CriteriaVerdict",
    "distance_decreasing_verdict",
    "rank_estimate",
    "two_jacobian_verdict",
    "criteria_report",
]

DD_STRICT = "strict"
DD_NON_STRICT = "non-strict"
DD_FAILS = "fails"
TJ_PASSES = "passes"
TJ_FAILS = "fails"

# band around each criterion threshold inside which a verdict is not strict
DEFAULT_TOL = 1e-9
CROSSCHECK_MARGIN = 0.02  # relative margin a criterion needs before a negative index contradicts it

# criterion tags listed as applicable in combined reports
TAG_DISTANCE_DECREASING = "distance-decreasing-stability"
TAG_TWO_JACOBIAN = "two-jacobian-stability"
TAG_UNIQUENESS = "distance-decreasing-uniqueness"


@dataclass(frozen=True)
class DistanceDecreasingVerdict:
    verdict: str
    sup_lambda_max: float  # interior nodes
    sup_lambda_max_closure: float
    strict_margin: float  # 1 - interior sup
    tol: float


def distance_decreasing_verdict(
    S: SingularSpectrumField, tol: float = DEFAULT_TOL
) -> DistanceDecreasingVerdict:
    """Classify the map by its largest stretch over interior nodes.

    Strict below 1 - tol, failing above 1 + tol, non-strict in the band.
    The closure supremum is reported alongside since boundary stencils are
    one-sided and slightly less accurate.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    sup = S.sup_lambda_max("interior")
    if sup < 1.0 - tol:
        verdict = DD_STRICT
    elif sup > 1.0 + tol:
        verdict = DD_FAILS
    else:
        verdict = DD_NON_STRICT
    return DistanceDecreasingVerdict(
        verdict=verdict,
        sup_lambda_max=sup,
        sup_lambda_max_closure=S.sup_lambda_max("closure"),
        strict_margin=1.0 - sup,
        tol=tol,
    )


def rank_estimate(S: SingularSpectrumField, rank_tol: float) -> int:
    """Numerical rank bound p: largest nodewise count of stretches above rank_tol."""
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    p = int((S.values > rank_tol).sum(axis=-1).max())
    return min(p, S.values.shape[-1])


@dataclass(frozen=True)
class TwoJacobianVerdict:
    verdict: str
    sup_two_jacobian: float
    sup_two_jacobian_closure: float
    p: int
    rank_bound: float | None  # 1/(p-1), None when vacuous
    tol: float
    vacuous: bool


def two_jacobian_verdict(
    S: SingularSpectrumField, p: int, tol: float = DEFAULT_TOL
) -> TwoJacobianVerdict:
    """Two-Jacobian criterion at rank bound p.

    For p <= 1 the product of the two largest stretches vanishes identically
    and the criterion is vacuously satisfied; otherwise the interior
    supremum of the product must not exceed 1/(p-1) + tol.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    sup = S.sup_two_jacobian("interior")
    sup_closure = S.sup_two_jacobian("closure")
    if p <= 1:
        return TwoJacobianVerdict(
            verdict=TJ_PASSES,
            sup_two_jacobian=sup,
            sup_two_jacobian_closure=sup_closure,
            p=p,
            rank_bound=None,
            tol=tol,
            vacuous=True,
        )
    bound = 1.0 / (p - 1)
    verdict = TJ_PASSES if sup <= bound + tol else TJ_FAILS
    return TwoJacobianVerdict(
        verdict=verdict,
        sup_two_jacobian=sup,
        sup_two_jacobian_closure=sup_closure,
        p=p,
        rank_bound=bound,
        tol=tol,
        vacuous=False,
    )


@dataclass(frozen=True)
class CriteriaVerdict:
    """Combined criteria report for one (approximately) minimal graph."""

    dd: DistanceDecreasingVerdict
    tj: TwoJacobianVerdict
    rank_tol: float
    dimension_bound: float | None  # weaker 1/(n-1) bound shown for comparison
    minimal: bool
    residual_sup_norm: float
    applicable: tuple[str, ...]
    notes: tuple[str, ...]
    stability_min_eigenvalue: float | None = None
    stability_epsilon: float | None = None

    def summary(self) -> dict:
        return {
            "dd_verdict": self.dd.verdict,
            "sup_lambda_max": self.dd.sup_lambda_max,
            "sup_lambda_max_closure": self.dd.sup_lambda_max_closure,
            "strict_margin": self.dd.strict_margin,
            "tj_verdict": self.tj.verdict,
            "sup_two_jacobian": self.tj.sup_two_jacobian,
            "sup_two_jacobian_closure": self.tj.sup_two_jacobian_closure,
            "rank_estimate": self.tj.p,
            "rank_bound": self.tj.rank_bound,
            "dimension_bound": self.dimension_bound,
            "rank_tol": self.rank_tol,
            "minimal": self.minimal,
            "residual_sup_norm": self.residual_sup_norm,
            "applicable": list(self.applicable),
            "notes": list(self.notes),
            "stability_min_eigenvalue": self.stability_min_eigenvalue,
            "stability_epsilon": self.stability_epsilon,
        }


def criteria_report(
    f: GridMap,
    S: SingularSpectrumField | None = None,
    stability: StabilityReport | None = None,
    tol: float = DEFAULT_TOL,
    rank_tol: float | None = None,
    minimal_tol: float = DEFAULT_MINIMAL_TOL,
    area: AreaReport | None = None,
) -> CriteriaVerdict:
    """Evaluate both criteria and cross-check against a stability index.

    When a criterion holds with margin and a StabilityReport shows a
    negative index beyond its tolerance band, the disagreement is raised as
    :class:`ContradictionDetected`: sufficiency is proved pointwise, so the
    combination can only mean an implementation bug. The cross-check demands
    a relative margin on the criterion so that discretization error near the
    sharp thresholds cannot trigger false alarms, and is skipped when the
    stability verdict is "undetermined" (the eigen-solve did not converge).
    ``area``, the residual report of f, is computed when not given.
    """
    if S is None:
        S = singular_spectrum(jacobian(f))
    sup_all = S.sup_lambda_max("closure")
    if rank_tol is None:
        rank_tol = 1e-8 * max(sup_all, 1e-30)
    p = rank_estimate(S, rank_tol)
    dd = distance_decreasing_verdict(S, tol)
    tj = two_jacobian_verdict(S, p, tol)

    if area is None:
        area = minimal_system_residual(f)
    minimal = area.residual_sup_norm <= minimal_tol
    notes = []
    if not minimal:
        notes.append("hypotheses not met: not minimal")
    if tj.vacuous:
        notes.append("two-jacobian criterion vacuous at rank <= 1")

    applicable = []
    if minimal and dd.verdict in (DD_STRICT, DD_NON_STRICT):
        applicable.append(TAG_DISTANCE_DECREASING)
        if dd.verdict == DD_STRICT:
            applicable.append(TAG_UNIQUENESS)
    if minimal and tj.verdict == TJ_PASSES:
        applicable.append(TAG_TWO_JACOBIAN)

    theta = stability.min_eigenvalue if stability is not None else None
    eps = stability.epsilon if stability is not None else None
    determined = stability is not None and stability.verdict != "undetermined"
    if stability is not None and not determined:
        notes.append("stability index undetermined: eigen-solve did not converge")
    if determined and minimal and theta < -eps:
        dd_solid = dd.verdict == DD_STRICT and dd.strict_margin > CROSSCHECK_MARGIN
        dd_solid = dd_solid and (1.0 - S.sup_lambda_max("closure")) > CROSSCHECK_MARGIN
        tj_solid = tj.vacuous or (
            tj.verdict == TJ_PASSES
            and tj.rank_bound is not None
            and tj.sup_two_jacobian <= tj.rank_bound * (1.0 - CROSSCHECK_MARGIN)
        )
        tj_solid = tj_solid and tj.verdict == TJ_PASSES
        if dd_solid or tj_solid:
            raise ContradictionDetected(
                "a stability criterion holds with margin but the stability index is "
                f"{theta:.3e} < -{eps:.3e}; this indicates an implementation defect"
            )

    return CriteriaVerdict(
        dd=dd,
        tj=tj,
        rank_tol=rank_tol,
        dimension_bound=1.0 / (f.grid.n - 1) if f.grid.n > 1 else None,
        minimal=minimal,
        residual_sup_norm=area.residual_sup_norm,
        applicable=tuple(applicable),
        notes=tuple(notes),
        stability_min_eigenvalue=theta,
        stability_epsilon=eps,
    )
