"""Core domain objects for approximate ranking from pairwise interactions.

A rank vector assigns an integer latent position r(i) in {1..n} to each of n
objects; ties are allowed, so r need not be a permutation.  Ranks are
plain int64 arrays, checked by rank_entries at each boundary.  Observed
interactions X_ij (i != j) are noisy readings of a mean mu_{r(i)r(j)} that
depends only on the two latent positions.  This module holds the rank
space, the enumeration of a rank space behind every small-n exact
estimator, mean-matrix construction for the three supported mean
structures, the l_q loss family, the exact signal-gap identities used as
numerical oracles elsewhere in the package, and the SNR/beta conversion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, RankPhaseError

DIFFERENTIAL = "differential"
ADDITIVE = "additive"
POISSON_SQRT_LINEAR = "poisson_sqrt_linear"

MODEL_KINDS = (DIFFERENTIAL, ADDITIVE, POISSON_SQRT_LINEAR)

# Largest n whose rank space is enumerated (6^6 = 46,656 vectors), and the
# number of candidates evaluated per call of the caller's value function.
# At n = 6 a block of 1024 keeps a value function's (k, n*n) float64
# temporaries near 300 KB, which the allocator reuses from block to block;
# blocks of 8192 were page-faulted afresh each time, and two worker threads
# faulting at once doubled and scattered the time of a Poisson MLE call.
ENUMERATION_N_MAX = 6
ENUMERATION_CHUNK = 1024

# Elements (128 KB of float64) of one block of rows when an n x n array is
# generated, or an n x n distance table reduced, block by block, so that no
# n x n temporary exists beside the result.  At n <= 128 a matrix is one block.
_ROW_BLOCK = 16_384


def _row_blocks(n: int, rows: int | None = None) -> list[slice]:
    """Consecutive slices of range(rows), rows defaulting to n, each about
    _ROW_BLOCK elements of n-wide rows."""
    rows = n if rows is None else rows
    step = max(1, _ROW_BLOCK // n)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _zero_diagonal_checked(block: np.ndarray, start: int) -> None:
    """Zero the diagonal entries in rows start.. of an n x n array's row block, in place.

    This is where every interaction matrix gets its exact-zero diagonal, so
    that a sum over j != i is a plain sum over the row.  Raises InputError
    unless every entry of the block is then finite.  The diagonal is a
    strided view of the flattened block, not a fancy index.
    """
    block.reshape(-1)[start :: block.shape[1] + 1] = 0.0
    if not np.isfinite(block).all():
        raise InputError("off-diagonal interaction entries must be finite")


def identity_rank(n: int) -> np.ndarray:
    """The rank vector r(i) = i as an int64 array."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return np.arange(1, n + 1, dtype=np.int64)


def rank_entries(r, n: int | None = None) -> np.ndarray:
    """Coerce a rank vector (array or sequence) to int64 entries.

    Validates integrality and, when ``n`` is given, length and the range
    1 <= r(i) <= n.
    """
    arr = np.asarray(r)
    if arr.ndim != 1:
        raise InputError(f"rank vector must be 1-d, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.all(np.isfinite(arr)) or np.any(rounded != arr):
            raise InputError("rank entries must be integers")
        arr = rounded
    arr = arr.astype(np.int64)
    if n is not None:
        if arr.shape[0] != n:
            raise InputError(f"rank vector has length {arr.shape[0]}, expected {n}")
        if arr.size and (arr.min() < 1 or arr.max() > n):
            raise InputError("rank entries must lie in [1, n]")
    return arr


def default_sum_budget(n: int) -> int:
    """Default c_n = ceil(n^(1/4)), computed in exact integer arithmetic."""
    k = 1
    while k**4 < n:
        k += 1
    return k


def default_sumsq_budget(n: int) -> int:
    """Default c'_n = ceil(n^(3/2)), computed in exact integer arithmetic."""
    m = math.isqrt(n**3)
    if m * m < n**3:
        m += 1
    return m


@dataclass(frozen=True)
class RankSpace:
    """Feasible rank vectors: |sum r - sum i| <= c_n, optionally |sum r^2 - sum i^2| <= c_n_sq.

    The sum-of-squares budget is present exactly when the space is the
    restricted one used by the profile least-squares estimator.  The budget
    rule is written once, in deviations and admits.
    """

    n: int
    c_n: int
    c_n_sq: int | None = None

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"rank space needs n >= 2, got {self.n}")
        if self.c_n < 1:
            raise InputError(f"sum budget c_n must be >= 1, got {self.c_n}")
        if self.c_n_sq is not None:
            if self.c_n_sq < 0:
                raise InputError("sum-of-squares budget must be nonnegative")
            if self.c_n_sq >= self.n**3:
                raise InputError("sum-of-squares budget must be < n^3")

    @classmethod
    def default(cls, n: int) -> "RankSpace":
        return cls(n=n, c_n=default_sum_budget(n))

    @classmethod
    def default_restricted(cls, n: int) -> "RankSpace":
        return cls(n=n, c_n=default_sum_budget(n), c_n_sq=default_sumsq_budget(n))

    def identity_sum(self) -> int:
        return self.n * (self.n + 1) // 2

    def identity_sumsq(self) -> int:
        return self.n * (self.n + 1) * (2 * self.n + 1) // 6

    def deviations(self, r: np.ndarray):
        """(sum r - sum i, sum r^2 - sum i^2) along r's last axis; the latter 0 if unbudgeted."""
        dev1 = r.sum(axis=-1) - self.identity_sum()
        if self.c_n_sq is None:
            return dev1, 0
        return dev1, (r * r).sum(axis=-1) - self.identity_sumsq()

    def admits(self, dev1, dev2):
        """Whether deviations lie within the budgets; elementwise on arrays."""
        within = abs(dev1) <= self.c_n
        return within if self.c_n_sq is None else within & (abs(dev2) <= self.c_n_sq)


def space_contains(space: RankSpace, r) -> bool:
    """True iff r satisfies the sum (and, if present, sum-of-squares) budget."""
    return bool(space.admits(*space.deviations(rank_entries(r, space.n))))


def _admitted(space: RankSpace, cand: np.ndarray) -> np.ndarray:
    """The rows of cand that lie in the space, in order, as a read-only array."""
    cand = cand[space.admits(*space.deviations(cand))]
    cand.setflags(write=False)
    return cand


@functools.lru_cache(maxsize=8)
def _sum_only_members(n: int, c_n: int) -> np.ndarray:
    """The members of RankSpace(n, c_n), filtered from the n^n grid (about 3 ms at n = 6).

    Cached apart from _space_members, so that a run of one-off restricted
    spaces cannot evict the parent they are filtered from.
    """
    if n > ENUMERATION_N_MAX:
        raise InputError(f"enumeration refused for n={n} > {ENUMERATION_N_MAX}")
    grid = np.indices((n,) * n, dtype=np.int64).reshape(n, -1).T + 1
    return _admitted(RankSpace(n, c_n), grid)


@functools.lru_cache(maxsize=8)
def _space_members(space: RankSpace) -> np.ndarray:
    """Every rank vector of the space in lexicographic order, as a read-only (k, n) int64 array.

    Built once per space and shared by every call.  A restricted space
    filters the members of its sum-only parent RankSpace(n, c_n), so the
    n^n grid is built once per (n, c_n).  Refuses n > ENUMERATION_N_MAX.
    """
    parent = _sum_only_members(space.n, space.c_n)
    return parent if space.c_n_sq is None else _admitted(space, parent)


@functools.lru_cache(maxsize=8)
def _member_pairs(space: RankSpace) -> np.ndarray:
    """Flat (cell, position pair) index of every member, as a read-only (k, n*n) uint16 array.

    For the m-th member r of _space_members, column c = i*n + j holds
    c*(n*n + 1) + (r_i - 1)*n + (r_j - 1): the entry of cell (i, j) at
    positions (r_i, r_j) in a raveled (n*n, n*n + 1) table of per-cell
    terms, so one ``take`` gathers every member's terms.  Diagonal cells
    point at the table's last column, which holds each cell's term at a
    0.0 slot appended to the position table.  n <= ENUMERATION_N_MAX keeps
    every index below 2**16.
    """
    n = space.n
    block = (_space_members(space) - 1).astype(np.uint16)
    pairs = (block[:, :, None] * n + block[:, None, :]).reshape(-1, n * n)
    pairs[:, :: n + 1] = n * n
    pairs += np.arange(0, n * n * (n * n + 1), n * n + 1, dtype=np.uint16)
    pairs.setflags(write=False)
    return pairs


def space_argmin(
    space: RankSpace,
    value: Callable[[np.ndarray], np.ndarray],
    aligned: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Lexicographically first minimizer of ``value`` over the space, and its value.

    Enumerates every feasible rank vector in lexicographic order and passes
    them to ``value`` as (k, n) int64 blocks of at most ENUMERATION_CHUNK
    rows; ``value`` returns the k per-candidate values.  When ``aligned`` is
    given (an array whose rows match the members row for row, such as
    _member_pairs), ``value`` receives the same rows of ``aligned`` in place
    of the members.  Refuses n > ENUMERATION_N_MAX.  Raises RankPhaseError
    naming the space if a block's smallest value is NaN: np.argmin picks
    the NaN, and the block's real minimum would be lost.
    """
    cand = _space_members(space)
    rows = cand if aligned is None else aligned
    best_idx, best_val = 0, math.inf
    for start in range(0, cand.shape[0], ENUMERATION_CHUNK):
        vals = value(rows[start : start + ENUMERATION_CHUNK])
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_idx = start + j
        elif vals[j] != vals[j]:
            raise RankPhaseError(f"value function returned NaN over {space}")
    return cand[best_idx].copy(), best_val


@dataclass(frozen=True)
class ModelSpec:
    """Mean structure mu_{ab} over latent positions a, b in [n].

    kind = "differential":       mu_ab = theta_a - theta_b
    kind = "additive":           mu_ab = theta_a + theta_b
    kind = "poisson_sqrt_linear": sqrt(mu_ab) = 2*alpha + beta_tilde*(a + b)

    ``theta`` holds the per-position ability values; for the Poisson kind it
    stores the square-root-scale coefficients alpha + beta_tilde*k, so that
    sqrt(mu_ab) = theta_a + theta_b.  ``alpha``/``beta_tilde`` are set only
    for parametric (linear-in-position) instances.
    """

    kind: str
    theta: np.ndarray
    alpha: float | None = None
    beta_tilde: float | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InputError(f"unknown model kind {self.kind!r}")
        th = np.asarray(self.theta, dtype=np.float64)
        if th.ndim != 1 or th.shape[0] < 2:
            raise InputError("theta must be a 1-d vector of length >= 2")
        if not np.all(np.isfinite(th)):
            raise InputError("theta entries must be finite")
        if self.kind == POISSON_SQRT_LINEAR and np.any(th[:, None] + th[None, :] <= 0):
            raise InputError("Poisson sqrt-means 2*alpha + beta_tilde*(i+j) must be positive")
        th = th.copy()
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def is_parametric(self) -> bool:
        return self.beta_tilde is not None

    @classmethod
    def differential(cls, theta: Sequence[float]) -> "ModelSpec":
        return cls(kind=DIFFERENTIAL, theta=np.asarray(theta, dtype=np.float64))

    @classmethod
    def additive(cls, theta: Sequence[float]) -> "ModelSpec":
        return cls(kind=ADDITIVE, theta=np.asarray(theta, dtype=np.float64))

    @classmethod
    def parametric(cls, kind: str, n: int, alpha: float, beta_tilde: float) -> "ModelSpec":
        """Linear abilities theta_k = alpha + beta_tilde*k for k = 1..n."""
        if kind not in (DIFFERENTIAL, ADDITIVE):
            raise InputError(f"parametric() expects differential/additive, got {kind!r}")
        if not beta_tilde > 0:
            raise InputError("parametric models need beta_tilde > 0")
        theta = alpha + beta_tilde * np.arange(1, n + 1, dtype=np.float64)
        return cls(kind=kind, theta=theta, alpha=float(alpha), beta_tilde=float(beta_tilde))

    @classmethod
    def poisson_sqrt_linear(cls, n: int, alpha: float, beta_tilde: float) -> "ModelSpec":
        """Poisson means with sqrt(mu_ab) = 2*alpha + beta_tilde*(a+b)."""
        if beta_tilde < 0:
            raise InputError("poisson_sqrt_linear needs beta_tilde >= 0")
        theta = alpha + beta_tilde * np.arange(1, n + 1, dtype=np.float64)
        return cls(
            kind=POISSON_SQRT_LINEAR,
            theta=theta,
            alpha=float(alpha),
            beta_tilde=float(beta_tilde),
        )


@dataclass(frozen=True)
class InteractionMatrix:
    """Observed interactions X_ij for i != j; the diagonal holds exact zeros.

    The matrix owns ``values``: a read-only float64 array whose diagonal is
    overwritten with 0.0 whatever it held, so a sum over j != i is a plain
    row, column or grand sum of ``values``.  The public constructor copies
    its argument and never modifies the caller's array.  The Gaussian
    generator instead hands over the only copy of the matrix it filled
    (``_adopt``), so a replication holds one n x n array.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError(f"interaction matrix must be square, got shape {v.shape}")
        if v.shape[0] < 2:
            raise InputError("interaction matrix needs n >= 2")
        v = v.copy()
        for rows in _row_blocks(v.shape[0]):
            _zero_diagonal_checked(v[rows], rows.start)
        self._own(v)

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "InteractionMatrix":
        """Take ownership of a writable n x n float64 array without copying it.

        The caller gives up the array and must already have zeroed its
        diagonal and checked every entry finite (``_zero_diagonal_checked``).
        """
        matrix = object.__new__(cls)
        matrix._own(values)
        return matrix

    def _own(self, v: np.ndarray) -> None:
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _pair_means(kind: str, th: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """The mean structure ``kind`` over every pair (th_a, cols_b); ``cols`` defaults to ``th``."""
    if cols is None:
        cols = th
    if kind == DIFFERENTIAL:
        return th[:, None] - cols[None, :]
    if kind == ADDITIVE:
        return th[:, None] + cols[None, :]
    s = th[:, None] + cols[None, :]
    return s * s


def position_mean_table(model: ModelSpec) -> np.ndarray:
    """Means mu_{ab} for every pair of latent positions a, b in [n].

    Unlike build_mean_matrix this table keeps its diagonal: mu_{aa} is a
    legitimate mean when two distinct objects share the position a.
    """
    return _pair_means(model.kind, model.theta)


def build_mean_matrix(model: ModelSpec, r) -> np.ndarray:
    """The n x n mean matrix mu_{r(i)r(j)} for i != j, with an exact-zero diagonal."""
    arr = rank_entries(r, model.n)
    mu = _pair_means(model.kind, model.theta[arr - 1])
    np.fill_diagonal(mu, 0.0)
    return mu


def signal_gap(model: ModelSpec, r, r_tilde) -> float:
    """Sum over i != j of (mu~ - mu)^2, on the sqrt-mean scale for Poisson.

    This is the left side of the signal condition that lower-bounds the
    separation between two rank vectors.
    """
    mu_r = build_mean_matrix(model, r)
    mu_t = build_mean_matrix(model, r_tilde)
    if model.kind == POISSON_SQRT_LINEAR:
        mu_r = np.sqrt(mu_r)
        mu_t = np.sqrt(mu_t)
    d = mu_t - mu_r
    return float(np.sum(d * d))


def signal_gap_closed_form(model: ModelSpec, r, r_tilde) -> float:
    """Exact closed form of signal_gap for linear-ability models.

    differential (theta_k = alpha + beta_tilde*k):
        2*n*bt^2*||delta||^2 - 2*bt^2*(sum delta)^2
    poisson_sqrt_linear:
        bt^2*(2*(n-2)*||delta||^2 + 2*(sum delta)^2)
    with delta = r_tilde - r.
    """
    if model.kind == DIFFERENTIAL:
        if not model.is_parametric:
            raise InputError("closed form needs a parametric differential model")
    elif model.kind != POISSON_SQRT_LINEAR:
        raise InputError(f"no closed-form gap for model kind {model.kind!r}")
    a = rank_entries(r, model.n)
    b = rank_entries(r_tilde, model.n)
    delta = (b - a).astype(np.float64)
    nsq = float(np.dot(delta, delta))
    s = float(delta.sum())
    bt2 = float(model.beta_tilde) ** 2
    if model.kind == DIFFERENTIAL:
        return 2.0 * model.n * bt2 * nsq - 2.0 * bt2 * s * s
    return bt2 * (2.0 * (model.n - 2) * nsq + 2.0 * s * s)


def loss(q: float, r_hat, r) -> float:
    """The l_q loss between two rank vectors.

    q = 0 gives the normalized Hamming distance; q in (0, 2] gives the
    normalized mean of |r_hat(i) - r(i)|^q.
    """
    if not 0.0 <= q <= 2.0:
        raise InputError(f"loss exponent q must be in [0, 2], got {q}")
    a = rank_entries(r_hat)
    b = rank_entries(r)
    if a.shape[0] != b.shape[0]:
        raise InputError("rank vectors must have equal length")
    if q == 0.0:
        return float(np.mean(a != b))
    diff = np.abs(a - b).astype(np.float64)
    return float(np.mean(diff**q))


def snr(n: int, beta: float, sigma: float) -> float:
    """Signal-to-noise ratio n*beta^2 / (4*sigma^2)."""
    if n < 2:
        raise InputError(f"snr needs n >= 2, got {n}")
    if not sigma > 0:
        raise InputError("snr needs sigma > 0")
    return n * beta * beta / (4.0 * sigma * sigma)


def beta_for_snr(n: int, snr_value: float, sigma: float) -> float:
    """Invert snr(): the beta >= 0 with n*beta^2/(4*sigma^2) = snr_value."""
    if n < 2:
        raise InputError(f"beta_for_snr needs n >= 2, got {n}")
    if not sigma > 0:
        raise InputError("beta_for_snr needs sigma > 0")
    if snr_value < 0:
        raise InputError("snr must be nonnegative")
    return 2.0 * sigma * math.sqrt(snr_value / n)
