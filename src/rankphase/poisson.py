"""Poisson-model likelihoods, the brute-force MLE, and the Bhattacharyya oracle.

For count interactions X_ij ~ Poisson(mu_{r(i)r(j)}), the maximum likelihood
estimator over the rank space is evaluated by enumeration at small n (no
efficient algorithm is available for this model, and inventing one is out of
scope).  The Bhattacharyya affinity between two Poisson product measures has
the closed form exp(-0.5 * sum (sqrt(mu~) - sqrt(mu))^2), which drives the
pairwise-error Chernoff bound; a truncated-series evaluation of the same
quantity serves as an independent verification path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import ModelSpec, RankSpace, position_mean_table, space_argmin

__all__ = [
    "PoissonCounts",
    "poisson_log_likelihood",
    "poisson_mle_brute_force",
    "bhattacharyya_affinity",
    "bhattacharyya_affinity_series",
    "cell_affinity_series",
]

SERIES_TERM_FLOOR = 1e-16


@dataclass(frozen=True)
class PoissonCounts:
    """Nonnegative integer interactions with a masked (ignored) diagonal."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError(f"count matrix must be square, got shape {v.shape}")
        if v.shape[0] < 2:
            raise InputError("count matrix needs n >= 2")
        if not np.issubdtype(v.dtype, np.integer):
            if not np.all(np.isfinite(v)) or np.any(np.rint(v) != v):
                raise InputError("counts must be integers")
        v = v.astype(np.int64, copy=True)
        off = ~np.eye(v.shape[0], dtype=bool)
        if np.any(v[off] < 0):
            raise InputError("off-diagonal counts must be nonnegative")
        np.fill_diagonal(v, 0)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _offdiag(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def _check_means(mu: np.ndarray, n: int, name: str) -> np.ndarray:
    m = np.asarray(mu, dtype=np.float64)
    if m.shape != (n, n):
        raise InputError(f"{name} must be an {n}x{n} matrix")
    off = _offdiag(n)
    if not np.all(m[off] > 0):
        raise InputError(f"{name} must be strictly positive off the diagonal")
    return m


def poisson_log_likelihood(X: PoissonCounts, mu) -> float:
    """sum over i != j of X_ij*log(mu_ij) - mu_ij - log(X_ij!)."""
    # deferred: scipy.special costs most of the package's import time
    from scipy.special import gammaln

    n = X.n
    m = _check_means(mu, n, "mu")
    off = _offdiag(n)
    x = X.values[off].astype(np.float64)
    mo = m[off]
    return float(np.sum(x * np.log(mo) - mo - gammaln(x + 1.0)))


def poisson_mle_brute_force(X: PoissonCounts, model: ModelSpec, space: RankSpace) -> np.ndarray:
    """Exact maximizer of the Poisson likelihood over the rank space.

    Enumerates every feasible rank vector; ties broken by lexicographic
    order.  Refuses n > ENUMERATION_N_MAX.
    """
    from scipy.special import gammaln

    n = X.n
    if model.n != n or space.n != n:
        raise InputError("matrix, model, and space sizes must agree")
    pos_mu = position_mean_table(model)
    if np.any(pos_mu <= 0):
        raise InputError("model means must be strictly positive for the MLE")
    off = _offdiag(n)
    x = X.values.astype(np.float64)
    log_pos = np.log(pos_mu)
    const = -float(np.sum(gammaln(x[off] + 1.0)))

    def neg_log_likelihood(cand: np.ndarray) -> np.ndarray:
        block = cand - 1
        mu = pos_mu[block[:, :, None], block[:, None, :]]
        lmu = log_pos[block[:, :, None], block[:, None, :]]
        terms = (x[None, :, :] * lmu - mu) * off[None, :, :]
        return -(np.sum(terms, axis=(1, 2)) + const)

    return space_argmin(space, neg_log_likelihood)[0]


def cell_affinity_series(mu1: float, mu2: float) -> float:
    """sum_x sqrt(p(x|mu1) p(x|mu2)) by truncated series.

    Terms are exp(-(mu1+mu2)/2) * s^x / x! with s = sqrt(mu1*mu2),
    accumulated by streaming log-sum-exp.  Truncation: past the larger of
    the two distribution modes, once a term drops below 1e-16 both
    absolutely and relative to the running peak.
    """
    if not (mu1 > 0 and mu2 > 0):
        raise InputError("cell means must be positive")
    s = math.sqrt(mu1 * mu2)
    log_s = 0.5 * (math.log(mu1) + math.log(mu2))
    mode = int(max(mu1, mu2))
    log_floor = math.log(SERIES_TERM_FLOOR)
    log_t = -0.5 * (mu1 + mu2)  # x = 0 term
    peak = log_t
    acc = 1.0  # sum of exp(log_t - peak)
    x = 0
    # hard stop far past the mode as a safety net; never reached in practice
    x_stop = mode + 20 * int(math.sqrt(s + 1.0)) + 200
    while x < x_stop:
        x += 1
        log_t += log_s - math.log(x)
        if log_t > peak:
            acc = acc * math.exp(peak - log_t) + 1.0
            peak = log_t
        else:
            acc += math.exp(log_t - peak)
        if x > mode and log_t < log_floor and log_t - peak < log_floor:
            break
    total = peak + math.log(acc)
    return math.exp(total) if total > -745.0 else 0.0


def bhattacharyya_affinity(mu, mu_tilde) -> float:
    """Closed-form affinity exp(-0.5 * sum_{i!=j} (sqrt(mu~)-sqrt(mu))^2)."""
    m1 = np.asarray(mu, dtype=np.float64)
    n = m1.shape[0]
    m1 = _check_means(m1, n, "mu")
    m2 = _check_means(mu_tilde, n, "mu_tilde")
    off = _offdiag(n)
    d = np.sqrt(m2[off]) - np.sqrt(m1[off])
    return float(np.exp(-0.5 * np.sum(d * d)))


def bhattacharyya_affinity_series(mu, mu_tilde) -> float:
    """Affinity via the per-cell truncated series, multiplied across cells.

    Verification path for bhattacharyya_affinity; accumulates in log space
    so the product does not underflow cell by cell.
    """
    m1 = np.asarray(mu, dtype=np.float64)
    n = m1.shape[0]
    m1 = _check_means(m1, n, "mu")
    m2 = _check_means(mu_tilde, n, "mu_tilde")
    log_total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cell = cell_affinity_series(float(m1[i, j]), float(m2[i, j]))
            if cell <= 0.0:
                return 0.0
            log_total += math.log(cell)
    return math.exp(log_total) if log_total > -745.0 else 0.0
