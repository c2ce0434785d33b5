"""Numerical laboratory for minimal graphs in arbitrary codimension.

Solves the Dirichlet problem for the minimal surface system on box domains,
computes first and second variations of the discrete area, evaluates the
distance-decreasing and two-Jacobian stability criteria, certifies the
pointwise inequality chains behind them by randomized campaigns, and probes
uniqueness through straight-line homotopies.
"""

from .area import AreaReport, codim1_residual, discrete_area, fd_gradient_check, minimal_system_residual
from .chains import (
    CampaignReport,
    ChainEvaluation,
    SearchRegime,
    SearchReport,
    SpectrumSample,
    counterexample_search,
    eval_dd_chain,
    eval_rank_chain,
    run_dd_campaign,
    run_rank_campaign,
)
from .criteria import (
    CriteriaVerdict,
    criteria_report,
    distance_decreasing_verdict,
    rank_estimate,
    two_jacobian_verdict,
)
from .errors import BoundaryMismatch, ConfigError, ContradictionDetected, NotMinimalWarning
from .grid import (
    DomainGrid,
    GridMap,
    JacobianField,
    MetricField,
    SingularSpectrumField,
    build_grid,
    induced_metric,
    jacobian,
    singular_spectrum,
)
from .homotopy import (
    Homotopy,
    HomotopyProfile,
    JacobiConvexityReport,
    UniquenessReport,
    area_profile,
    jacobi_norm_convexity,
    linear_homotopy,
    uniqueness_experiment,
)
from .serialize import load_map, map_from_document, map_to_document, save_map
from .solver import (
    ContinuationReport,
    SolveOutcome,
    SolverConfig,
    continuation_solve,
    harmonic_extension,
    solve_dirichlet,
)
from .variation import (
    EigenConfig,
    SecondVariationForm,
    StabilityReport,
    VariationField,
    first_variation,
    stability_index,
)

__version__ = "0.1.0"
