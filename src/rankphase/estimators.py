"""Score computations and rank estimators.

Covers the per-object scores for the comparison and collaboration models
(with known abilities or fully data-driven), returned as float64 arrays;
the profile least-squares estimator with its alternating feature-match
(``matching``) / refit loop, the rank-2 hat-matrix primitives behind it, and
the small-n least-squares benchmark by enumeration.  Ranks go in and come
out as int64 arrays.  The diagonal of ``X.values`` is exact zero, so every
sum over j != i is a plain row, column or grand sum of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, InputError, MatchBudgetError
from .matching import feature_match
from .model import (
    InteractionMatrix,
    ModelSpec,
    RankSpace,
    _member_pairs,
    position_mean_table,
    rank_entries,
    space_argmin,
    space_contains,
)

PL_CONVERGENCE_TOL = 1e-10
DEFAULT_MAX_ITERS = 100
SLOPE_FLOOR = 1e-12

__all__ = [
    "OlsFit",
    "IterationTrace",
    "score_comparison",
    "score_collaboration",
    "score_adaptive",
    "ols_fit",
    "hat_matrix",
    "profile_ls_objective",
    "profile_ls_estimate",
    "lse_brute_force",
]


@dataclass(frozen=True)
class OlsFit:
    """Intercept and slope of the least-squares line of scores on ranks."""

    a_hat: float
    b_hat: float


@dataclass(frozen=True)
class IterationTrace:
    """Record of one profile least-squares run.

    objective_path[0] is the objective at the initial rank; one entry is
    appended per alternation step, and the path is nonincreasing by
    construction.  converged means the decrease fell below the tolerance
    (or the fit degenerated); stalled means a step would have raised the
    objective, so the run stopped at the incumbent.  match_gap is the
    largest certified optimality gap of a matching step that outgrew the
    dynamic program's budget, 0.0 when every step was matched exactly.
    negative_slope_iters lists the steps at which the fitted slope came out
    nonpositive (the iteration continues with the fitted value, magnitude
    floored at 1e-12).
    """

    iterations: int
    objective_path: tuple[float, ...]
    converged: bool
    negative_slope_iters: tuple[int, ...] = ()
    stalled: bool = False
    match_gap: float = 0.0


def _finite(scores: np.ndarray) -> np.ndarray:
    # theta with an inf, or entries near 1e308 whose row sums overflow (the
    # score functions silence numpy's warnings for what this rejects)
    if not np.all(np.isfinite(scores)):
        raise InputError("scores must be finite")
    return scores


def _require_n(X: InteractionMatrix, least: int, what: str) -> int:
    if X.n < least:
        raise InputError(f"{what} needs n >= {least}, got n={X.n}")
    return X.n


def score_comparison(X: InteractionMatrix, theta) -> np.ndarray:
    """Scores for the differential comparison model with known abilities.

    S_i = (1/2n) * sum_{j != i} (X_ij - X_ji) + mean(theta).
    """
    n = _require_n(X, 3, "score_comparison")
    th = np.asarray(theta, dtype=np.float64)
    if th.shape != (n,):
        raise InputError(f"theta must have length {n}")
    v = X.values
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite((v.sum(axis=1) - v.sum(axis=0)) / (2.0 * n) + th.mean())


def score_collaboration(X: InteractionMatrix) -> np.ndarray:
    """Scores for the additive collaboration model.

    S_i = (1/(2(n-2))) * (sum_{j != i}(X_ij + X_ji) - grand_sum/(n-1)).
    """
    n = _require_n(X, 3, "score_collaboration")
    v = X.values
    with np.errstate(over="ignore", invalid="ignore"):
        row, col, grand = v.sum(axis=1), v.sum(axis=0), float(v.sum())
        return _finite(((row + col) - grand / (n - 1.0)) / (2.0 * (n - 2.0)))


def score_adaptive(X: InteractionMatrix, kind: str) -> np.ndarray:
    """Fully data-driven scores; no ability values are used.

    kind="comparison":     S_i = (1/2n) * sum_{j != i}(X_ij - X_ji)
    kind="collaboration":  S_i = (1/(2(n-2))) * sum_{j != i}(X_ij + X_ji)
    """
    n = _require_n(X, 3, "score_adaptive")
    v = X.values
    with np.errstate(over="ignore", invalid="ignore"):
        row, col = v.sum(axis=1), v.sum(axis=0)
        if kind == "comparison":
            return _finite((row - col) / (2.0 * n))
        if kind == "collaboration":
            return _finite((row + col) / (2.0 * (n - 2.0)))
    raise InputError(f"unknown score kind {kind!r}")


def _line_fit(scores, r) -> tuple[float, float | None, float]:
    """(a_hat, b_hat, PL) of the least-squares line of scores on ranks; for a
    constant rank, (mean(S), None, the centered sum of squares)."""
    S = np.asarray(scores, dtype=np.float64)
    rr = rank_entries(r).astype(np.float64)
    if S.shape != rr.shape:
        raise InputError("scores and ranks must have equal length")
    mean_r = rr.mean()
    var_r = np.mean(rr * rr) - mean_r * mean_r
    mean_s = S.mean()
    if var_r <= 0.0:
        resid = S - mean_s
        return float(mean_s), None, float(np.dot(resid, resid))
    b_hat = float((np.mean(S * rr) - mean_r * mean_s) / var_r)
    a_hat = float(mean_s - b_hat * mean_r)
    resid = S - a_hat - b_hat * rr
    return a_hat, b_hat, float(np.dot(resid, resid))


def ols_fit(scores, r) -> OlsFit:
    """Least-squares line of scores on rank values.

    b_hat = (mean(S*r) - mean(r)*mean(S)) / (mean(r^2) - mean(r)^2),
    a_hat = mean(S) - b_hat * mean(r).
    """
    a_hat, b_hat, _ = _line_fit(scores, r)
    if b_hat is None:
        raise DegenerateFitError("rank vector is constant; slope is undefined")
    return OlsFit(a_hat=a_hat, b_hat=b_hat)


def hat_matrix(r) -> np.ndarray:
    """Orthogonal projector onto span{1, r}: H = J/n + cc^T/||c||^2, c = centered r."""
    rr = rank_entries(r).astype(np.float64)
    n = rr.shape[0]
    centered = rr - rr.mean()
    denom = float(np.dot(centered, centered))
    if denom <= 0.0:
        raise DegenerateFitError("rank vector is constant; hat matrix is undefined")
    return np.full((n, n), 1.0 / n) + np.outer(centered, centered) / denom


def profile_ls_objective(scores, r) -> float:
    """PL(r) = min over (a, b) of sum_i (S_i - a - b*r(i))^2, attained by the
    OLS fit on r; for a constant r it is sum_i (S_i - mean(S))^2."""
    return _line_fit(scores, r)[2]


def profile_ls_estimate(
    scores,
    space: RankSpace,
    init=None,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[np.ndarray, IterationTrace]:
    """Minimize the profile least-squares objective by alternating steps.

    Each pass feature-matches the scores against the current linear
    surrogate a + b*k over the restricted space, then refits (a, b) by
    least squares.  Stops when the objective decrease falls below
    PL_CONVERGENCE_TOL, when a step would raise the objective, or after
    ``max_iters`` passes; returns the best rank seen.  A matching step that
    outgrows the DP budget continues from the feasible rank its
    MatchBudgetError carries, and the trace keeps the largest certified gap.
    """
    if space.c_n_sq is None:
        raise InputError("profile_ls_estimate needs a restricted space (c_n_sq set)")
    n = space.n
    S = np.asarray(scores, dtype=np.float64)
    if S.shape != (n,):
        raise InputError(f"scores must have length {n}")

    if init is None:
        order = np.argsort(S, kind="stable")
        r_cur = np.empty(n, dtype=np.int64)
        r_cur[order] = np.arange(1, n + 1, dtype=np.int64)
    else:
        r_cur = rank_entries(init, n)
        if not space_contains(space, r_cur):
            raise InputError("init rank is not in the given space")

    positions = np.arange(1, n + 1, dtype=np.float64)
    # the current rank's fit; an accepted candidate's fit carries over
    a, b, pl = _line_fit(S, r_cur)
    path = [pl]
    negative_slopes: list[int] = []
    converged = stalled = False
    match_gap = 0.0
    iterations = 0
    for it in range(1, max_iters + 1):
        if b is None:  # constant rank: no slope to match against
            converged = True
            break
        if b <= 0.0:
            negative_slopes.append(it)
        slope = b if abs(b) >= SLOPE_FLOOR else (SLOPE_FLOOR if b >= 0.0 else -SLOPE_FLOOR)
        try:
            candidate = feature_match(S, a + slope * positions, space)
        except MatchBudgetError as exc:
            candidate = exc.incumbent
            match_gap = max(match_gap, exc.gap)
        iterations = it
        fit = _line_fit(S, candidate)
        if not fit[2] <= pl:
            # an exact match cannot raise the objective, so this takes a
            # budget-bounded match, the slope floor or rounding; keep the
            # incumbent so the path stays nonincreasing
            path.append(pl)
            stalled = True
            break
        r_cur, (a, b, pl) = candidate, fit
        path.append(pl)
        if path[-2] - pl < PL_CONVERGENCE_TOL:
            converged = True
            break

    trace = IterationTrace(
        iterations=iterations,
        objective_path=tuple(path),
        converged=converged,
        negative_slope_iters=tuple(negative_slopes),
        stalled=stalled,
        match_gap=match_gap,
    )
    return r_cur, trace


def lse_brute_force(X: InteractionMatrix, model: ModelSpec, space: RankSpace) -> np.ndarray:
    """Exact least-squares rank estimate by enumerating the feasible space.

    Minimizes sum_{i != j} (X_ij - mu_{r(i)r(j)})^2; ties broken by
    lexicographic order of the rank vector.  Refuses n > ENUMERATION_N_MAX.
    Every cell's squared residual at every position pair is tabulated
    once; each candidate's residuals are gathered from that table through
    its row of _member_pairs.  The diagonal reads an appended 0.0 slot
    against the exact-zero diagonal of X, so every diagonal residual is an
    exact zero.
    """
    n = X.n
    if model.n != n or space.n != n:
        raise InputError("matrix, model, and space sizes must agree")
    diff = X.values.reshape(-1, 1) - np.append(position_mean_table(model), 0.0)
    sq = (diff * diff).ravel()

    def sq_error(pairs: np.ndarray) -> np.ndarray:
        return sq.take(pairs).sum(axis=1)

    return space_argmin(space, sq_error, _member_pairs(space))[0]
