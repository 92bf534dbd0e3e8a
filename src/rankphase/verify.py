"""Numerical verification of the exact algebraic identities.

Every identity is one entry in the ``CHECKS`` registry.  Its body is a
generator ``(seed, bump)`` that evaluates the identity on seeded random
instances and yields one deviation per comparison; each passes the computed
side of the identity through ``bump`` exactly once.  ``_identity`` wraps the
generator into a check ``(seed, corrupt) -> IdentityResult``: it takes the
maximum deviation, with a NaN deviation propagating to the maximum and so
failing the check, and compares it with the pinned tolerance.  A passing
check uses the identity as ``bump``; a corrupt one shifts the computed side
by 1e-3*(1+|x|), which proves the gate trips.  The suite is the release gate
behind the ``verify`` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .estimators import (
    hat_matrix,
    profile_ls_objective,
    score_adaptive,
    score_collaboration,
    score_comparison,
)
from .model import (
    DIFFERENTIAL,
    InteractionMatrix,
    ModelSpec,
    RankSpace,
    beta_for_snr,
    build_mean_matrix,
    default_sum_budget,
    loss,
    signal_gap,
    signal_gap_closed_form,
    snr,
    space_contains,
)
from .poisson import (
    bhattacharyya_affinity,
    bhattacharyya_affinity_series,
    cell_affinity_series,
)
from .simulate import derive_seed, random_feasible_rank

GAP_SIZES = (5, 20, 100)
GAP_PAIRS_PER_SIZE = 1000
SCORE_INSTANCES = 50
DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    seed: int
    detail: str = ""


CHECKS: dict[str, Callable[..., IdentityResult]] = {}


def _unchanged(x):
    return x


def _shifted(x):
    return x + 1e-3 * (1.0 + abs(x))


def _identity(name: str, tolerance: float, detail: str = ""):
    """Register a deviation generator ``(seed, bump)`` as the check ``name``."""

    def register(deviations):
        def check(seed: int = DEFAULT_SEED, corrupt: bool = False) -> IdentityResult:
            devs = deviations(seed, _shifted if corrupt else _unchanged)
            worst = float(np.max(np.fromiter(devs, dtype=np.float64), initial=0.0))
            return IdentityResult(name, worst <= tolerance, worst, tolerance, seed, detail)

        check.__doc__ = deviations.__doc__
        CHECKS[name] = check
        return check

    return register


def _excess(value: float, limit: float) -> float:
    """How far ``value`` exceeds ``limit``; 0 within it, NaN kept."""
    over = value - limit
    return 0.0 if over <= 0.0 else over


def _rank_pairs(n: int, count: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    # Drawn up front: interleaving the draws with each check's numpy work
    # measured slower than drawing them all first.
    space = RankSpace.default(n)
    pairs = []
    for idx in range(count):
        r = random_feasible_rank(space, derive_seed(seed, n, idx, 0))
        r_tilde = random_feasible_rank(space, derive_seed(seed, n, idx, 1))
        pairs.append((r, r_tilde))
    return pairs


@_identity("differential-gap", 1e-9)
def check_differential_gap(seed, bump):
    """Closed-form differential signal gap against direct summation."""
    for n in GAP_SIZES:
        rng = np.random.default_rng(derive_seed(seed, 1, n))
        for r, r_tilde in _rank_pairs(n, GAP_PAIRS_PER_SIZE, derive_seed(seed, 2, n)):
            beta = float(rng.uniform(0.1, 2.5))
            alpha = float(rng.uniform(-5.0, 5.0))
            model = ModelSpec.parametric(DIFFERENTIAL, n, alpha=alpha, beta_tilde=beta)
            direct = signal_gap(model, r, r_tilde)
            closed = bump(signal_gap_closed_form(model, r, r_tilde))
            yield abs(direct - closed) / (1.0 + direct)


@_identity("poisson-gap", 1e-9)
def check_poisson_gap(seed, bump):
    """Closed-form sqrt-scale Poisson gap against direct summation."""
    for n in GAP_SIZES:
        rng = np.random.default_rng(derive_seed(seed, 3, n))
        for r, r_tilde in _rank_pairs(n, GAP_PAIRS_PER_SIZE, derive_seed(seed, 4, n)):
            beta = float(rng.uniform(0.1, 2.5))
            model = ModelSpec.poisson_sqrt_linear(n, alpha=beta * n**2, beta_tilde=beta)
            direct = signal_gap(model, r, r_tilde)
            closed = bump(signal_gap_closed_form(model, r, r_tilde))
            yield abs(direct - closed) / (1.0 + direct)


def _relative_deviation(s: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(s - expected) / (1.0 + np.abs(expected))))


@_identity("score-comparison", 1e-12)
def check_score_comparison(seed, bump):
    """Noise-free comparison scores equal theta_{r(i)} - Delta_r / n."""
    for n in GAP_SIZES:
        rng = np.random.default_rng(derive_seed(seed, 5, n))
        for r, _ in _rank_pairs(n, SCORE_INSTANCES, derive_seed(seed, 6, n)):
            theta = rng.normal(0.0, 2.0, n)
            X = InteractionMatrix(build_mean_matrix(ModelSpec.differential(theta), r))
            s = bump(score_comparison(X, theta))
            delta_r = theta[r - 1].sum() - theta.sum()
            yield _relative_deviation(s, theta[r - 1] - delta_r / n)


@_identity("score-collaboration", 1e-12)
def check_score_collaboration(seed, bump):
    """Noise-free collaboration scores equal theta_{r(i)} exactly."""
    for n in GAP_SIZES:
        rng = np.random.default_rng(derive_seed(seed, 7, n))
        for r, _ in _rank_pairs(n, SCORE_INSTANCES, derive_seed(seed, 8, n)):
            theta = rng.normal(0.0, 2.0, n)
            X = InteractionMatrix(build_mean_matrix(ModelSpec.additive(theta), r))
            s = bump(score_collaboration(X))
            yield _relative_deviation(s, theta[r - 1])


@_identity("score-adaptive-linear", 1e-12)
def check_score_adaptive_linear(seed, bump):
    """Noise-free adaptive comparison scores are exactly linear in position."""
    for n in GAP_SIZES:
        rng = np.random.default_rng(derive_seed(seed, 9, n))
        i = np.arange(1, n + 1, dtype=np.float64)
        for _ in range(SCORE_INSTANCES):
            beta = float(rng.uniform(0.2, 3.0))
            alpha = float(rng.uniform(-4.0, 4.0))
            model = ModelSpec.parametric(DIFFERENTIAL, n, alpha=alpha, beta_tilde=beta)
            X = InteractionMatrix(build_mean_matrix(model, np.arange(1, n + 1)))
            s = bump(score_adaptive(X, "comparison"))
            yield _relative_deviation(s, beta * i - beta * (n + 1) / 2.0)


@_identity("hat-matrix", 1e-10)
def check_hat_matrix(seed, bump):
    """Hat-matrix algebra: symmetry, idempotence, H1=1, Hr=r, trace 2."""
    for n in GAP_SIZES:
        ones = np.ones(n)
        for r, _ in _rank_pairs(n, 25, derive_seed(seed, 10, n)):
            if np.all(r == r[0]):
                continue
            h = bump(hat_matrix(r))
            rr = r.astype(np.float64)
            yield float(np.max(np.abs(h - h.T)))
            yield float(np.max(np.abs(h @ h - h)))
            yield float(np.max(np.abs(h @ ones - ones)))
            yield float(np.max(np.abs(h @ rr - rr)) / (1.0 + float(np.max(np.abs(rr)))))
            yield abs(float(np.trace(h)) - 2.0)


@_identity("profile-ls-hat", 1e-9)
def check_profile_ls_hat(seed, bump):
    """Profile objective equals the squared hat-matrix residual norm."""
    for n in GAP_SIZES:
        rng = np.random.default_rng(derive_seed(seed, 11, n))
        for r, _ in _rank_pairs(n, 25, derive_seed(seed, 12, n)):
            if np.all(r == r[0]):
                continue
            s = rng.normal(0.0, 1.0, n)
            pl = profile_ls_objective(s, r)
            resid = s - hat_matrix(r) @ s
            via_hat = bump(float(np.dot(resid, resid)))
            yield abs(pl - via_hat) / (1.0 + pl)


@_identity("bhattacharyya-series", 1e-8)
def check_bhattacharyya(seed, bump):
    """Closed-form Poisson affinity against the truncated series, per cell."""
    rng = np.random.default_rng(derive_seed(seed, 13))
    cells = []
    for _ in range(120):
        mu1 = float(np.exp(rng.uniform(math.log(0.1), math.log(1e4))))
        mu2 = mu1 * float(np.exp(rng.uniform(-0.7, 0.7)))
        mu2 = min(max(mu2, 0.1), 1e4)
        cells.append((mu1, mu2))
    for _ in range(40):
        cells.append(
            (
                float(np.exp(rng.uniform(math.log(0.1), math.log(1e4)))),
                float(np.exp(rng.uniform(math.log(0.1), math.log(1e4)))),
            )
        )
    for mu1, mu2 in cells:
        closed = math.exp(-0.5 * (math.sqrt(mu1) - math.sqrt(mu2)) ** 2)
        yield abs(closed - bump(cell_affinity_series(mu1, mu2)))
    # matrix level: the closed form against the per-cell series product
    mu_a = rng.uniform(5.0, 50.0, size=(4, 4))
    mu_b = mu_a * rng.uniform(0.8, 1.25, size=(4, 4))
    yield abs(bhattacharyya_affinity(mu_a, mu_b) - bhattacharyya_affinity_series(mu_a, mu_b))


@_identity("loss-properties", 0.0)
def check_loss_properties(seed, bump):
    """l_q ranges, zero at identical arguments, and l0 <= l1 <= l2 nesting."""
    for n in GAP_SIZES:
        for r, r_tilde in _rank_pairs(n, 40, derive_seed(seed, 14, n)):
            for q in (0.0, 0.5, 1.0, 1.5, 2.0):
                yield abs(bump(loss(q, r, r)))
                val = loss(q, r_tilde, r)
                yield _excess(0.0, val)
                yield _excess(val, 1.0 if q == 0.0 else float((n - 1) ** q))
            l0 = loss(0.0, r_tilde, r)
            l1 = loss(1.0, r_tilde, r)
            l2 = loss(2.0, r_tilde, r)
            yield _excess(l0, l1)
            yield _excess(l1, l2)


_WINDOW_N = 100
_WINDOW_LOWER = 1.0 - 4.0 * default_sum_budget(_WINDOW_N) ** 2 / _WINDOW_N


@_identity(
    "signal-window", 1e-9, detail=f"ratio window [{_WINDOW_LOWER:.4f}, 1] at n={_WINDOW_N}"
)
def check_signal_window(seed, bump):
    """Signal condition window for the parametric differential model.

    For theta_k = alpha + bt*k the gap satisfies
        2*n*bt^2*(1 - 4*c_n^2/n) * ||d||^2 <= gap <= 2*n*bt^2*||d||^2,
    i.e. the two-sided signal condition holds with constant M <= 1 + eps.
    Verified on 1000 random pairs at n = 100.
    """
    n = _WINDOW_N
    rng = np.random.default_rng(derive_seed(seed, 15))
    for r, r_tilde in _rank_pairs(n, 1000, derive_seed(seed, 16)):
        d2 = float(np.sum((r - r_tilde) ** 2))
        if d2 == 0.0:
            continue
        beta = float(rng.uniform(0.1, 2.5))
        model = ModelSpec.parametric(DIFFERENTIAL, n, alpha=0.0, beta_tilde=beta)
        ratio = bump(signal_gap(model, r, r_tilde) / (2.0 * n * beta * beta * d2))
        yield _excess(ratio, 1.0)
        yield _excess(_WINDOW_LOWER, ratio)


@_identity("snr-roundtrip", 1e-12)
def check_snr_roundtrip(seed, bump):
    """beta_for_snr inverts snr to relative 1e-12."""
    rng = np.random.default_rng(derive_seed(seed, 17))
    for _ in range(500):
        n = int(rng.integers(2, 500))
        beta = float(rng.uniform(1e-4, 10.0))
        sigma = float(rng.uniform(1e-3, 10.0))
        back = bump(beta_for_snr(n, snr(n, beta, sigma), sigma))
        yield abs(back - beta) / beta


@_identity("space-nesting", 0.0)
def check_space_nesting(seed, bump):
    """Membership in the restricted space implies membership in the base space."""
    for n in GAP_SIZES:
        restricted = RankSpace.default_restricted(n)
        base = RankSpace.default(n)
        for idx in range(50):
            r = random_feasible_rank(restricted, derive_seed(seed, 18, n, idx))
            yield bump(0.0 if space_contains(base, r) else 1.0)


def run_identity_suite(
    inject: str | None = None, seed: int = DEFAULT_SEED
) -> list[IdentityResult]:
    """Run every identity check; ``inject`` corrupts the named one."""
    if inject is not None and inject not in CHECKS:
        raise InputError(
            f"unknown identity {inject!r}; choose from: {', '.join(sorted(CHECKS))}"
        )
    return [fn(seed=seed, corrupt=(name == inject)) for name, fn in CHECKS.items()]
