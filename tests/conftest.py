"""Shared test helpers: independent brute-force oracles.

These deliberately re-derive expected values by plain enumeration or
textbook formulas so they stay independent of the library code paths they
check.
"""

import itertools

import numpy as np
import pytest


def enumerate_space(n, c_n, c_n_sq=None):
    """All rank vectors in the budgeted space, in lexicographic order."""
    id_sum = n * (n + 1) // 2
    id_sumsq = n * (n + 1) * (2 * n + 1) // 6
    out = []
    for cand in itertools.product(range(1, n + 1), repeat=n):
        if abs(sum(cand) - id_sum) > c_n:
            continue
        if c_n_sq is not None and abs(sum(v * v for v in cand) - id_sumsq) > c_n_sq:
            continue
        out.append(np.array(cand, dtype=np.int64))
    return out


def record_values(monkeypatch, module):
    """Patch ``module.space_argmin`` to keep a copy of every block of values it evaluates.

    Returns the list the blocks are appended to, in enumeration order.
    """
    blocks = []
    original = module.space_argmin

    def recording(space, value, aligned=None):
        def keep(rows):
            vals = value(rows)
            blocks.append(vals.copy())
            return vals

        return original(space, keep, aligned)

    monkeypatch.setattr(module, "space_argmin", recording)
    return blocks


def brute_force_match(scores, theta, n, c_n, c_n_sq=None):
    """Exhaustive minimizer of sum (S_i - theta_{r(i)})^2 over the space."""
    scores = np.asarray(scores, dtype=float)
    theta = np.asarray(theta, dtype=float)
    best_r, best_obj = None, np.inf
    for r in enumerate_space(n, c_n, c_n_sq):
        resid = scores - theta[r - 1]
        obj = float(np.sum(resid * resid))
        if obj < best_obj:
            best_obj, best_r = obj, r
    return best_r, best_obj


def brute_force_pl_min(scores, n, c_n, c_n_sq):
    """Exhaustive minimum of the profile objective via numpy lstsq."""
    scores = np.asarray(scores, dtype=float)
    best = np.inf
    centered = scores - scores.mean()
    centered_ss = float(np.dot(centered, centered))
    for r in enumerate_space(n, c_n, c_n_sq):
        if np.all(r == r[0]):
            best = min(best, centered_ss)
            continue
        design = np.column_stack([np.ones(n), r.astype(float)])
        _, res, _, _ = np.linalg.lstsq(design, scores, rcond=None)
        if res.size:
            best = min(best, float(res[0]))
        else:
            fitted = design @ np.linalg.lstsq(design, scores, rcond=None)[0]
            best = min(best, float(np.sum((scores - fitted) ** 2)))
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
