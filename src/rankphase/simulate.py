"""Synthetic data generation and the replicated Monte Carlo grid runner.

Every replication derives its own seed from (master_seed, grid index, rep
index) with a stable 64-bit hash, so results are a pure function of the
configuration: independent of worker count and scheduling.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import math
import os
import struct
import time
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputError
from .estimators import (
    lse_brute_force,
    profile_ls_estimate,
    score_adaptive,
    score_collaboration,
    score_comparison,
)
from .matching import feature_match
from .model import (
    ADDITIVE,
    DIFFERENTIAL,
    ENUMERATION_N_MAX,
    MODEL_KINDS,
    POISSON_SQRT_LINEAR,
    InteractionMatrix,
    ModelSpec,
    RankSpace,
    _ROW_BLOCK,
    _pair_means,
    _row_blocks,
    _zero_diagonal_checked,
    beta_for_snr,
    build_mean_matrix,
    default_sum_budget,
    default_sumsq_budget,
    identity_rank,
    loss,
    rank_entries,
    snr,
)
from .poisson import PoissonCounts, poisson_mle_brute_force

THREADS_ENV_VAR = "RANK_PHASE_THREADS"

ESTIMATORS = ("feature_match_oracle_theta", "profile_ls_adaptive", "brute_force")
TRUE_RANK_POLICIES = ("identity", "random_feasible")
CONFIG_MODELS = {
    "differential": DIFFERENTIAL,
    "additive": ADDITIVE,
    "poisson": POISSON_SQRT_LINEAR,
    "poisson_sqrt_linear": POISSON_SQRT_LINEAR,
}

# numpy's Poisson sampler refuses larger means ("lam value too large")
POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)

# SNR thresholds separating the four error regimes (boundaries go to the
# lower regime): trivial < n^-2 <= polynomial <= 1 < exponential <= log n < exact.
REGIME_TRIVIAL = "trivial"
REGIME_POLYNOMIAL = "polynomial"
REGIME_EXPONENTIAL = "exponential"
REGIME_EXACT = "exact"


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable 64-bit seed from the master seed and worker-independent indices."""
    mask = (1 << 64) - 1
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", int(master_seed) & mask))
    for v in indices:
        h.update(struct.pack("<Q", int(v) & mask))
    return int.from_bytes(h.digest(), "little")


def resolve_workers() -> int:
    """Worker count: RANK_PHASE_THREADS if set, else the CPUs this process may use."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise ConfigError(f"{THREADS_ENV_VAR} must be >= 1, got {workers}")
    return workers


def _default_workers(config: ExperimentConfig) -> int:
    """1 if RANK_PHASE_THREADS is unset and a rep is many small numpy calls (one
    row block, no enumeration), which a pool only slows; else resolve_workers()."""
    small = config.estimator != "brute_force" and config.n**2 <= _ROW_BLOCK
    return 1 if small and THREADS_ENV_VAR not in os.environ else resolve_workers()


def generate_gaussian(model: ModelSpec, r, sigma: float, seed: int) -> InteractionMatrix:
    """X = mu(r) + Z with Z i.i.d. N(0, sigma^2); sigma = 0 returns mu exactly."""
    if sigma < 0:
        raise InputError("sigma must be >= 0")
    # One n x n array, filled a row block at a time in the generator's stream
    # order: fl(sigma * z) then mu + that is normal(0, sigma)'s loc + scale * z
    # bit for bit, so off the diagonal this equals build_mean_matrix +
    # normal(0, sigma, (n, n)).
    # Each block is checked while it is in cache, and the matrix takes the
    # array over without a copy.
    n = model.n
    th = model.theta[rank_entries(r, n) - 1]
    rng = np.random.default_rng(seed)
    x = np.empty((n, n))
    for rows in _row_blocks(n):
        block = x[rows]
        means = _pair_means(model.kind, th[rows], th)
        if sigma == 0.0:
            block[...] = means
        else:
            rng.standard_normal(out=block)
            block *= sigma
            np.add(means, block, out=block)
        _zero_diagonal_checked(block, rows.start)
    return InteractionMatrix._adopt(x)


def generate_poisson(model: ModelSpec, r, seed: int) -> PoissonCounts:
    """Independent Poisson draws with means mu_{r(i)r(j)}."""
    if model.kind != POISSON_SQRT_LINEAR:
        raise InputError("generate_poisson needs a poisson_sqrt_linear model")
    mu = build_mean_matrix(model, r)
    rng = np.random.default_rng(seed)
    return PoissonCounts(rng.poisson(mu))


def _chain_draws(n: int, seeds):
    """For each seed, a chain's starting permutation (1-based) and its 2n (coordinate, up) moves.

    Each chain has its own generator and draws in the order a move at a
    time would draw; both samplers read their draws here.
    """
    highs = np.tile([n, 2], 2 * n)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        yield rng.permutation(n) + 1, rng.integers(0, highs).reshape(-1, 2)


def random_feasible_rank(space: RankSpace, seed: int) -> np.ndarray:
    """A random member of the space: random permutation plus 2n accepted +-1 moves.

    Every candidate move is accepted only if both budgets still hold, so the
    result is feasible by construction.
    """
    n = space.n
    ((start, moves),) = _chain_draws(n, (seed,))
    r = start.tolist()
    # the budget test is RankSpace.admits written out on Python ints, kept
    # incremental: a method call per move would slow this loop
    dev1, dev2 = 0, 0
    for i, up in moves.tolist():
        d = 1 if up else -1
        cand = r[i] + d
        if cand < 1 or cand > n:
            continue
        ndev1 = dev1 + d
        if abs(ndev1) > space.c_n:
            continue
        ndev2 = dev2 + 2 * r[i] * d + 1
        if space.c_n_sq is not None and abs(ndev2) > space.c_n_sq:
            continue
        r[i] = cand
        dev1, dev2 = ndev1, ndev2
    return np.array(r, dtype=np.int64)


def random_feasible_ranks(space: RankSpace, seeds) -> np.ndarray:
    """random_feasible_rank for each of a sequence of seeds, as the rows of one (K, n) int64 array.

    The K chains take their moves together, one array step per move, so
    the cost of a step is shared by every chain; row k equals
    random_feasible_rank(space, seeds[k]).  A single draw is cheaper
    through the scalar loop of random_feasible_rank.
    """
    n = space.n
    r = np.empty((len(seeds), n), dtype=np.int64)
    # move t of chain k is column k of row t
    coords = np.empty((2 * n, len(seeds)), dtype=np.int32)
    ups = np.empty((2 * n, len(seeds)), dtype=bool)
    for k, (start, moves) in enumerate(_chain_draws(n, seeds)):
        r[k] = start
        coords[:, k], ups[:, k] = moves.T
    chains = np.arange(len(seeds))
    dev1 = np.zeros(len(seeds), dtype=np.int64)
    dev2 = np.zeros(len(seeds), dtype=np.int64)
    for i, up in zip(coords, ups):
        d = 2 * up.astype(np.int64) - 1
        cur = r[chains, i]
        cand = cur + d
        ndev1 = dev1 + d
        ndev2 = dev2 + 2 * cur * d + 1
        ok = (cand >= 1) & (cand <= n) & space.admits(ndev1, ndev2)
        r[chains, i] = np.where(ok, cand, cur)
        dev1 = np.where(ok, ndev1, dev1)
        dev2 = np.where(ok, ndev2, dev2)
    return r


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one replicated Monte Carlo grid.

    The grid is given either as SNR values (signal strengths derived from
    them) or as explicit beta values; sigma = 0 selects the noiseless
    shortcut and then requires an explicit beta grid.
    """

    model: str
    n: int
    snr_grid: tuple[float, ...]
    reps: int
    master_seed: int
    estimator: str
    sigma: float = 1.0
    q_list: tuple[float, ...] = (0.0, 1.0, 2.0)
    c_n: int | None = None
    c_n_sq: int | None = None
    true_rank: str = "identity"
    alpha: float | None = None
    beta_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"field 'model': unknown model {self.model!r}")
        if self.n < 3:
            raise ConfigError(f"field 'n': must be >= 3, got {self.n}")
        if not self.snr_grid:
            raise ConfigError("field 'snr_grid': must be nonempty")
        if any(not s > 0 for s in self.snr_grid):
            raise ConfigError("field 'snr_grid': all SNR values must be > 0")
        if self.beta_grid is not None:
            if len(self.beta_grid) != len(self.snr_grid):
                raise ConfigError("field 'beta_grid': length must match snr_grid")
            if any(not b > 0 for b in self.beta_grid):
                raise ConfigError("field 'beta_grid': all beta values must be > 0")
            if len(set(self.beta_grid)) < len(self.beta_grid):
                raise ConfigError("field 'beta_grid': values must be distinct")
        elif len(set(self.snr_grid)) < len(self.snr_grid):
            raise ConfigError("field 'snr_grid': values must be distinct")
        if self.reps < 1:
            raise ConfigError(f"field 'reps': must be >= 1, got {self.reps}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"field 'estimator': unknown estimator {self.estimator!r}")
        if self.sigma < 0:
            raise ConfigError(f"field 'sigma': must be >= 0, got {self.sigma}")
        if self.sigma == 0.0 and self.beta_grid is None and self.model != POISSON_SQRT_LINEAR:
            raise ConfigError("field 'sigma': sigma = 0 requires an explicit beta_grid")
        if any(not 0.0 <= q <= 2.0 for q in self.q_list) or not self.q_list:
            raise ConfigError("field 'q_list': entries must lie in [0, 2]")
        if len(set(self.q_list)) < len(self.q_list):
            raise ConfigError("field 'q_list': values must be distinct")
        if self.true_rank not in TRUE_RANK_POLICIES:
            raise ConfigError(f"field 'true_rank': unknown policy {self.true_rank!r}")
        if self.c_n is not None and self.c_n < 1:
            raise ConfigError("field 'c_n': must be >= 1")
        if self.c_n_sq is not None and not 0 <= self.c_n_sq < self.n**3:
            raise ConfigError("field 'c_n_sq': must be in [0, n^3)")
        if self.model == POISSON_SQRT_LINEAR:
            if self.estimator != "brute_force":
                raise ConfigError(
                    "field 'estimator': the poisson model supports only brute_force"
                )
        if self.estimator == "brute_force" and self.n > ENUMERATION_N_MAX:
            raise ConfigError(
                f"field 'n': brute_force estimator requires n <= {ENUMERATION_N_MAX}"
            )
        if self.model == POISSON_SQRT_LINEAR:
            self._check_poisson_means()

    def _check_poisson_means(self) -> None:
        # what ModelSpec and numpy's sampler will see at each grid point
        grid = "snr_grid" if self.beta_grid is None else "beta_grid"
        for g, value in enumerate(self.beta_grid or self.snr_grid):
            try:
                theta = self.model_for(self.beta_at(g)).theta
            except InputError as exc:
                field = grid if self.alpha is None else "alpha"
                raise ConfigError(f"field {field!r}: at {grid} entry {value!r}: {exc}") from None
            top = 2.0 * theta[-1]  # the largest sqrt-mean a rank can reach
            if not top * top <= POISSON_MEAN_MAX:
                alone = self.alpha is not None and (2.0 * self.alpha) ** 2 > POISSON_MEAN_MAX
                raise ConfigError(
                    f"field {'alpha' if alone else grid!r}: at {grid} entry {value!r} the "
                    f"largest Poisson mean is {top * top:.6g}, above the sampler's "
                    f"limit {POISSON_MEAN_MAX:.6g}"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        for key in raw:
            if key not in known:
                raise ConfigError(f"field {key!r}: unknown config field")
        for key in ("model", "n", "reps", "master_seed", "estimator"):
            if key not in raw:
                raise ConfigError(f"field {key!r}: missing")
        model_raw = raw["model"]
        if not isinstance(model_raw, str) or model_raw not in CONFIG_MODELS:
            raise ConfigError(f"field 'model': unknown model {model_raw!r}")
        model = CONFIG_MODELS[model_raw]
        n = _as_int(raw["n"], "n")
        sigma = _as_float(raw.get("sigma", 1.0), "sigma")
        if "snr_grid" in raw and "beta_grid" in raw:
            raise ConfigError("field 'beta_grid': give snr_grid or beta_grid, not both")
        beta_grid = None
        if "snr_grid" in raw:
            snr_grid = tuple(
                _as_float(s, "snr_grid") for s in _as_list(raw["snr_grid"], "snr_grid")
            )
        elif "beta_grid" in raw:
            beta_grid = tuple(
                _as_float(b, "beta_grid") for b in _as_list(raw["beta_grid"], "beta_grid")
            )
            sd = _noise_sd(model, sigma)
            # sigma = 0 is the noiseless shortcut (SNR = inf); where snr() is
            # undefined otherwise, __post_init__ rejects n or sigma
            snr_grid = tuple(
                snr(n, b, sd) if sd > 0 and n >= 3 else math.inf for b in beta_grid
            )
        else:
            raise ConfigError("field 'snr_grid': missing (or give beta_grid)")
        q_list = tuple(
            _as_float(q, "q_list") for q in _as_list(raw.get("q_list", (0.0, 1.0, 2.0)), "q_list")
        )
        return cls(
            model=model,
            n=n,
            snr_grid=snr_grid,
            reps=_as_int(raw["reps"], "reps"),
            master_seed=_as_int(raw["master_seed"], "master_seed"),
            estimator=str(raw["estimator"]),
            sigma=sigma,
            q_list=q_list,
            c_n=None if raw.get("c_n") is None else _as_int(raw["c_n"], "c_n"),
            c_n_sq=None if raw.get("c_n_sq") is None else _as_int(raw["c_n_sq"], "c_n_sq"),
            true_rank=str(raw.get("true_rank", "identity")),
            alpha=None if raw.get("alpha") is None else _as_float(raw["alpha"], "alpha"),
            beta_grid=beta_grid,
        )

    def space(self) -> RankSpace:
        c = self.c_n if self.c_n is not None else default_sum_budget(self.n)
        csq = self.c_n_sq
        if self.estimator == "profile_ls_adaptive" and csq is None:
            csq = default_sumsq_budget(self.n)
        return RankSpace(n=self.n, c_n=c, c_n_sq=csq)

    def beta_at(self, grid_index: int) -> float:
        if self.beta_grid is not None:
            return self.beta_grid[grid_index]
        return beta_for_snr(
            self.n, self.snr_grid[grid_index], _noise_sd(self.model, self.sigma)
        )

    def model_for(self, beta: float) -> ModelSpec:
        if self.model == POISSON_SQRT_LINEAR:
            alpha = self.alpha if self.alpha is not None else beta * self.n**2
            return ModelSpec.poisson_sqrt_linear(self.n, alpha=alpha, beta_tilde=beta)
        alpha = self.alpha if self.alpha is not None else 0.0
        return ModelSpec.parametric(self.model, self.n, alpha=alpha, beta_tilde=beta)


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"field {name!r}: must be an integer, got {value!r}")
    return int(value)


def _as_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"field {name!r}: must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"field {name!r}: must be finite, got {value!r}")
    return out


def _as_list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"field {name!r}: must be a nonempty list")
    return list(value)


def _noise_sd(model: str, sigma: float) -> float:
    # Poisson SNR n*beta^2 is snr() at sd 1/2: sqrt of a Poisson count has
    # sd about 1/2 on the square-root scale its means are linear on.
    return 0.5 if model == POISSON_SQRT_LINEAR else sigma


@dataclass(frozen=True)
class ResultRow:
    """Outcome of one replication at one grid point."""

    model: str
    n: int
    snr: float
    beta: float
    sigma: float
    estimator: str
    rep: int
    seed: int
    q_list: tuple[float, ...]
    losses: tuple[float, ...]
    exact_recovery: bool
    iterations: int
    wall_time_ms: float
    grid_index: int

    def loss_for(self, q: float) -> float:
        for qq, val in zip(self.q_list, self.losses):
            if qq == q:
                return val
        raise InputError(
            f"grid point {self.grid_index} (snr={self.snr}), rep {self.rep}: loss q={q} was not recorded"
        )


def _run_single(config: ExperimentConfig, grid_index: int, rep: int) -> ResultRow:
    snr_value = config.snr_grid[grid_index]
    beta = config.beta_at(grid_index)
    model = config.model_for(beta)
    space = config.space()
    rank_seed = derive_seed(config.master_seed, grid_index, rep, 0)
    noise_seed = derive_seed(config.master_seed, grid_index, rep, 1)
    if config.true_rank == "identity":
        r_true = identity_rank(config.n)
    else:
        r_true = random_feasible_rank(space, rank_seed)

    t0 = time.perf_counter()
    iterations = 0
    if config.model == POISSON_SQRT_LINEAR:
        counts = generate_poisson(model, r_true, noise_seed)
        r_hat = poisson_mle_brute_force(counts, model, space)
    else:
        X = generate_gaussian(model, r_true, config.sigma, noise_seed)
        if config.estimator == "feature_match_oracle_theta":
            if config.model == DIFFERENTIAL:
                scores = score_comparison(X, model.theta)
            else:
                scores = score_collaboration(X)
            del X  # the n x n matrix, freed before matching
            r_hat = feature_match(scores, model.theta, space)
        elif config.estimator == "profile_ls_adaptive":
            kind = "comparison" if config.model == DIFFERENTIAL else "collaboration"
            scores = score_adaptive(X, kind)
            del X
            r_hat, trace = profile_ls_estimate(scores, space)
            iterations = trace.iterations
        else:
            r_hat = lse_brute_force(X, model, space)
    wall_ms = (time.perf_counter() - t0) * 1000.0

    losses = tuple(loss(q, r_hat, r_true) for q in config.q_list)
    exact = bool(np.array_equal(r_hat, r_true))
    return ResultRow(
        model=config.model,
        n=config.n,
        snr=snr_value,
        beta=beta,
        sigma=config.sigma,
        estimator=config.estimator,
        rep=rep,
        seed=noise_seed,
        q_list=config.q_list,
        losses=losses,
        exact_recovery=exact,
        iterations=iterations,
        wall_time_ms=wall_ms,
        grid_index=grid_index,
    )


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> list[ResultRow]:
    """Run every (grid point, replication) task; output order is deterministic.

    Tasks run on up to ``workers`` threads, no more than there are tasks
    (default: _default_workers, one thread at n <= 128 unless enumerating or
    RANK_PHASE_THREADS is set).  Each owns its derived RNG and results merge
    back in (grid index, rep) order, so they never depend on the worker count.
    """
    if workers is None:
        workers = _default_workers(config)
    tasks = [(g, k) for g in range(len(config.snr_grid)) for k in range(config.reps)]
    workers = min(workers, len(tasks))
    if workers == 1:
        return [_run_single(config, g, k) for g, k in tasks]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_single, config, g, k) for g, k in tasks]
        return [f.result() for f in futures]


def classify_regime(snr_value: float, n: int) -> str:
    """Which of the four error regimes an SNR value falls in for size n."""
    if snr_value < n**-2:
        return REGIME_TRIVIAL
    if snr_value <= 1.0:
        return REGIME_POLYNOMIAL
    if snr_value <= math.log(n):
        return REGIME_EXPONENTIAL
    return REGIME_EXACT


@dataclass(frozen=True)
class GridPointSummary:
    snr: float
    beta: float
    regime: str
    reps: int
    mean_loss: dict
    median_loss: dict
    recovery_rate: float


@dataclass(frozen=True)
class RegimeFit:
    """Least-squares slope fit on the regime's natural axes."""

    regime: str
    q: float
    x_axis: str
    slope: float
    intercept: float
    stderr: float
    r2: float
    snr_values: tuple[float, ...]


@dataclass(frozen=True)
class RegimeReport:
    n: int
    points: tuple[GridPointSummary, ...]
    fits: tuple[RegimeFit, ...]
    recovery_curve: tuple[dict, ...]
    gaps: tuple[str, ...]

    def fit_for(self, regime: str, q: float) -> RegimeFit | None:
        for f in self.fits:
            if f.regime == regime and f.q == q:
                return f
        return None


def _ls_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    m = x.shape[0]
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - intercept - slope * x
    ssr = float(np.dot(resid, resid))
    sst = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    stderr = math.sqrt(ssr / (m - 2) / sxx) if m > 2 else float("nan")
    return slope, float(intercept), stderr, r2


def summarize_grid(rows: Sequence[ResultRow]) -> list[GridPointSummary]:
    """Per-grid-point mean/median losses and recovery rate, in grid order."""
    if not rows:
        raise InputError("no rows to summarize")
    by_grid: dict[int, list[ResultRow]] = {}
    for row in rows:
        by_grid.setdefault(row.grid_index, []).append(row)
    out = []
    for g in sorted(by_grid):
        group = by_grid[g]
        q_list = group[0].q_list
        n = group[0].n
        mean_loss = {}
        median_loss = {}
        for q in q_list:
            vals = np.array([r.loss_for(q) for r in group])
            mean_loss[q] = float(vals.mean())
            median_loss[q] = float(np.median(vals))
        rec = float(np.mean([r.exact_recovery for r in group]))
        out.append(
            GridPointSummary(
                snr=group[0].snr,
                beta=group[0].beta,
                regime=classify_regime(group[0].snr, n),
                reps=len(group),
                mean_loss=mean_loss,
                median_loss=median_loss,
                recovery_rate=rec,
            )
        )
    return out


def fit_regimes(rows: Sequence[ResultRow]) -> RegimeReport:
    """Slope fits on each regime's natural axes, plus the recovery curve.

    Exponential regime: log(mean l_2) against SNR.  Polynomial regime:
    log(mean l_q) against log(SNR) for q in {2, 1} when recorded.  Regimes
    without at least three usable grid points are reported as gaps instead
    of fits.
    """
    points = summarize_grid(rows)
    n = rows[0].n
    fits: list[RegimeFit] = []
    gaps: list[str] = []

    def add_fit(regime: str, q: float, x_of, x_axis: str):
        usable = [
            p
            for p in points
            if p.regime == regime and q in p.mean_loss and p.mean_loss[q] > 0
        ]
        if len(usable) < 3:
            gaps.append(
                f"{regime} regime: {len(usable)} usable grid points for q={q:g} "
                "(need >= 3 for a slope fit)"
            )
            return
        x = np.array([x_of(p) for p in usable])
        y = np.log(np.array([p.mean_loss[q] for p in usable]))
        slope, intercept, stderr, r2 = _ls_fit(x, y)
        fits.append(
            RegimeFit(
                regime=regime,
                q=q,
                x_axis=x_axis,
                slope=slope,
                intercept=intercept,
                stderr=stderr,
                r2=r2,
                snr_values=tuple(p.snr for p in usable),
            )
        )

    q_recorded = set(points[0].mean_loss)
    if 2.0 in q_recorded:
        add_fit(REGIME_EXPONENTIAL, 2.0, lambda p: p.snr, "snr")
        add_fit(REGIME_POLYNOMIAL, 2.0, lambda p: math.log(p.snr), "log_snr")
    else:
        gaps.append("q=2 losses were not recorded; no l2 fits")
    if 1.0 in q_recorded:
        add_fit(REGIME_POLYNOMIAL, 1.0, lambda p: math.log(p.snr), "log_snr")

    curve = tuple(
        {
            "snr": p.snr,
            "snr_over_log_n": p.snr / math.log(n),
            "recovery_rate": p.recovery_rate,
            "regime": p.regime,
        }
        for p in points
    )
    return RegimeReport(
        n=n, points=tuple(points), fits=tuple(fits), recovery_curve=curve, gaps=tuple(gaps)
    )
