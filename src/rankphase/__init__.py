"""Approximate ranking from pairwise interactions.

Estimators (feature matching, profile least squares, small-n benchmarks by
enumeration, Poisson MLE), exact algebraic identities used as numerical
oracles, and a deterministic Monte Carlo harness that reproduces the
four-regime phase diagram of the ranking error as a function of SNR.
"""

from .errors import ConfigError, DegenerateFitError, InputError, RankPhaseError
from .estimators import (
    IterationTrace,
    OlsFit,
    hat_matrix,
    lse_brute_force,
    ols_fit,
    profile_ls_estimate,
    profile_ls_objective,
    score_adaptive,
    score_collaboration,
    score_comparison,
)
from .matching import exhaustive_feature_match, feature_match, match_objective
from .model import (
    ADDITIVE,
    DIFFERENTIAL,
    POISSON_SQRT_LINEAR,
    InteractionMatrix,
    ModelSpec,
    RankSpace,
    beta_for_snr,
    build_mean_matrix,
    default_sum_budget,
    default_sumsq_budget,
    identity_rank,
    loss,
    position_mean_table,
    signal_gap,
    signal_gap_closed_form,
    snr,
    space_contains,
)
from .poisson import (
    PoissonCounts,
    bhattacharyya_affinity,
    bhattacharyya_affinity_series,
    cell_affinity_series,
    poisson_log_likelihood,
    poisson_mle_brute_force,
)
from .simulate import (
    ExperimentConfig,
    GridPointSummary,
    RegimeFit,
    RegimeReport,
    ResultRow,
    classify_regime,
    derive_seed,
    fit_regimes,
    generate_gaussian,
    generate_poisson,
    random_feasible_rank,
    resolve_workers,
    run_experiment,
    summarize_grid,
)
from .verify import IdentityResult, run_identity_suite

__version__ = "0.1.0"
