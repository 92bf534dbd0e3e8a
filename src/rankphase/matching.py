"""Exact solvers for constrained feature matching.

The matching problem: given per-object scores S_i and per-position ability
values theta_k, find the rank vector r in the feasible space minimizing
sum_i (S_i - theta_{r(i)})^2.  The feasible space couples the coordinates
only through the sum budget |sum r - sum i| <= c_n and, for the restricted
space, the additional |sum r^2 - sum i^2| <= c'_n (RankSpace.admits).

Solver ladder, each step run only when the one before it leaves a budget
violated:

* The unconstrained per-coordinate nearest position (ties to the smallest
  index).  If that already satisfies the budgets it is optimal.
* For affine theta (theta_k linear in k), the sum budget alone.  The
  per-coordinate costs are convex in k, so a marginal-cost greedy projects
  the sum onto the nearest budget boundary exactly; this is the fast path
  used at experiment scale.  A solution that is optimal over the sum-only
  space and happens to satisfy the sum-of-squares budget is optimal over
  the restricted space too (the restricted space is a subset), which keeps
  this step exact in the common case.
* Otherwise, or when the sum-of-squares budget binds, the band match over
  the given space.

The band match, on the cost table it is given and overwrites, takes a
Lagrangian lower bound (the budgets relaxed, Hochbaum, Math. OR 19(2),
1994) and runs one dynamic program over (sum deviation, sum-of-squares
deviation) only over positions and partial assignments whose reduced cost
stays within a band tau.  tau widens until the best rank in the band is
within tau of the bound, which proves it optimal.  A band that outgrows
the budgets raises MatchBudgetError with a feasible rank and its certified
gap; no branch returns an uncertified answer.

The bound's search for the sum multiplier starts where the dual peaks when
every row's cost is convex in the position, as it is for affine theta:
midway between two consecutive order statistics of the adjacent cost
differences.  Where that start is not a peak, the search restarts from a
symmetric bracket.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import InputError, MatchBudgetError, RankPhaseError
from .model import RankSpace, _ROW_BLOCK, _row_blocks, rank_entries, space_argmin

# Budgets for the dynamic program: total number of states, and transitions
# (states times the positions each may move to).
DP_STATE_BUDGET = 5_000_000
DP_OP_BUDGET = 500_000_000

AFFINE_DETECT_RTOL = 1e-12


def _vector(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise InputError(f"{name} must be a length-{n} vector")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be finite")
    return arr


def match_objective(scores, theta, r) -> float:
    """sum_i (S_i - theta_{r(i)})^2, accumulated in coordinate order."""
    n = np.size(theta)
    S = _vector(scores, n, "scores")
    th = _vector(theta, n, "theta")
    resid = S - th[rank_entries(r, n) - 1]
    return float(np.sum(resid * resid))


def is_affine(theta) -> bool:
    """True when theta_k is (numerically) a linear function of k."""
    th = np.asarray(theta, dtype=np.float64)
    if th.shape[0] <= 2:
        return True
    d = np.diff(th)
    scale = max(1.0, float(np.max(np.abs(th))))
    return float(np.max(np.abs(d - d[0]))) <= AFFINE_DETECT_RTOL * scale


def _unconstrained(S: np.ndarray, theta: np.ndarray, affine: bool = False) -> np.ndarray:
    """Nearest position per coordinate: the first argmin over k of |S_i - theta_k|.

    With affine theta the candidate is k = rint((S_i - theta_1) / step)
    (Hochbaum, Math. OR 19(2), 1994).  A monotone theta makes
    |S_i - theta_k| nonincreasing and then nondecreasing in k, so a
    candidate whose neighbours are both strictly farther, on the same
    expression, is the unique minimum.  Rows at a tie or a plateau take
    the dense argmin, and so does every row when theta is not affine, not
    monotone, or flat.
    """
    n = theta.shape[0]
    if affine:
        step = (theta[-1] - theta[0]) / (n - 1)
        d = np.diff(theta)
        if 0.0 < abs(step) < np.inf and ((d >= 0.0).all() or (d <= 0.0).all()):
            k = np.clip(np.rint((S - theta[0]) / step), 0, n - 1).astype(np.int64)
            here = np.abs(S - theta[k])
            # a missing neighbour at either end counts as farther
            below = np.where(k > 0, np.abs(S - theta[np.maximum(k - 1, 0)]), np.inf)
            above = np.where(k < n - 1, np.abs(S - theta[np.minimum(k + 1, n - 1)]), np.inf)
            todo = np.flatnonzero(~((below > here) & (above > here)))
            if todo.shape[0]:
                k[todo] = _dense_nearest(S[todo], theta)
            return k + 1
    return _dense_nearest(S, theta) + 1


def _dense_nearest(S: np.ndarray, theta: np.ndarray) -> np.ndarray:
    # argmin over k of |S_i - theta_k|, a block of rows at a time so the
    # distance table never exists whole; first minimum = smallest position.
    k = np.empty(S.shape[0], dtype=np.int64)
    for rows in _row_blocks(theta.shape[0], S.shape[0]):
        k[rows] = np.argmin(np.abs(S[rows, None] - theta[None, :]), axis=1)
    return k


def _greedy_sum_repair(
    S: np.ndarray, theta: np.ndarray, u: np.ndarray, dev: int, c: int
) -> np.ndarray:
    """Project the unconstrained solution, dev off the identity's sum, onto the sum window.

    Exact for costs convex in the position index: the constrained optimum
    sits at the window boundary nearest the unconstrained sum, and the
    per-coordinate marginal costs are nondecreasing, so repeatedly applying
    the globally cheapest unit step is optimal.
    """
    n = u.shape[0]
    if abs(dev) <= c:
        return u
    r = u.copy()
    if dev > c:
        direction, need = -1, dev - c
    else:
        direction, need = 1, -c - dev

    def step_cost(i: int) -> float:
        k_new = r[i] + direction
        a = S[i] - theta[k_new - 1]
        b = S[i] - theta[r[i] - 1]
        return float(a * a - b * b)

    heap: list[tuple[float, int]] = []
    for i in range(n):
        if 1 <= r[i] + direction <= n:
            heapq.heappush(heap, (step_cost(i), i))
    for _ in range(need):
        if not heap:
            raise RankPhaseError("sum repair ran out of moves; budget infeasible")
        _, i = heapq.heappop(heap)
        r[i] += direction
        if 1 <= r[i] + direction <= n:
            heapq.heappush(heap, (step_cost(i), i))
    return r


def _window_bounds(step_lo: np.ndarray, step_hi: np.ndarray, c: int) -> tuple[list, list]:
    """Per-coordinate window of cumulative deviations worth keeping.

    step_lo[i] and step_hi[i] bound the deviation coordinate i can add.  A
    cumulative deviation after coordinate i is kept when it is reachable
    from zero and the remaining coordinates can still bring it into [-c, c].
    """
    reach_lo = np.cumsum(step_lo)
    reach_hi = np.cumsum(step_hi)
    fut_lo = step_lo.sum() - reach_lo
    fut_hi = step_hi.sum() - reach_hi
    lo = np.maximum(reach_lo, -c - fut_hi)
    hi = np.minimum(reach_hi, c - fut_lo)
    return lo.tolist(), hi.tolist()


def _keep_cheapest(parts: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """Merge DP transitions into one state per key, keeping the cheapest.

    Each part is (key, value, reduced, parent, position) with keys sorted and
    distinct, parts in increasing position order.  The stable sort keeps the
    earlier part, hence the smaller position, among equal values.
    """
    if len(parts) == 1:
        return parts[0]
    merged = tuple(np.concatenate(column) for column in zip(*parts))
    order = np.argsort(merged[0], kind="stable")
    key, value = merged[0][order], merged[1][order]
    head = np.ones(key.shape[0], dtype=bool)
    head[1:] = key[1:] != key[:-1]
    if not head.all():
        group = np.cumsum(head) - 1
        cheapest = np.minimum.reduceat(value, np.flatnonzero(head))
        hit = np.flatnonzero(value == cheapest[group])
        first = np.ones(hit.shape[0], dtype=bool)
        first[1:] = group[hit[1:]] != group[hit[:-1]]
        order = order[hit[first]]
    return tuple(column[order] for column in merged)


def _dp_match(
    cost: np.ndarray,
    space: RankSpace,
    reduced: np.ndarray | None = None,
    tau: float = np.inf,
) -> np.ndarray | None:
    """Exact DP over (sum deviation, sum-of-squares deviation) on a reduced-cost band.

    cost[i, k-1] is coordinate i's cost at position k, which moves the sum
    by k - i - 1 and the sum of squares by k^2 - (i + 1)^2; in a sum-only
    space the sum-of-squares deviation is pinned at 0.  Coordinate i may take
    position k only when reduced[i, k-1] <= tau, and a partial assignment is
    kept only while its accumulated reduced cost is at most tau.
    reduced=None allows every position and state: the full DP.  Only
    reachable states are stored, sorted by (sum, sum-of-squares) deviation.
    Returns the cheapest feasible rank in the band, with ties going to the
    smallest position at each state and then to the smallest final
    deviations, or None if the band holds no feasible rank.  Raises
    MatchBudgetError, without an incumbent, if the live states exceed
    DP_STATE_BUDGET or the transitions DP_OP_BUDGET.
    """
    n = space.n
    restricted = space.c_n_sq is not None
    if reduced is None:
        reduced = np.zeros_like(cost)
    allowed = reduced <= tau
    if not allowed.any(axis=1).all():
        return None

    def moves(i, k):
        return k - i, ((k + 1) ** 2 - (i + 1) ** 2) * restricted

    # both moves grow with k, so a row's extremes sit at its first and last
    # allowed position
    rows = np.arange(n)
    lo = moves(rows, allowed.argmax(axis=1))
    hi = moves(rows, n - 1 - allowed[:, ::-1].argmax(axis=1))
    lo1, hi1 = _window_bounds(lo[0], hi[0], space.c_n)
    lo2, hi2 = _window_bounds(lo[1], hi[1], space.c_n_sq or 0)

    # live states of the current layer, sorted by (dev1, dev2)
    dev1 = np.zeros(1, dtype=np.int64)
    dev2 = np.zeros(1, dtype=np.int64)
    val = np.zeros(1)
    red = np.zeros(1)
    parents: list[np.ndarray | None] = []
    picks: list = []
    live = ops = 0
    layer_share = max(1, DP_STATE_BUDGET // n)
    for i in range(n):
        ks = np.flatnonzero(allowed[i])
        if ks.shape[0] == 1:
            # one position: every state shifts alike and stays sorted and
            # distinct; the window and band checks wait for a later row
            k = int(ks[0])
            s1, s2 = moves(i, k)
            dev1 = dev1 + s1
            dev2 = dev2 + s2
            val = val + cost[i, k]
            red = red + reduced[i, k]
            parents.append(None)
            picks.append(k + 1)
            continue
        ops += dev1.shape[0] * ks.shape[0]
        if ops > DP_OP_BUDGET:
            raise MatchBudgetError(None, np.inf)
        width2 = hi2[i] - lo2[i] + 1
        parts: list[tuple[np.ndarray, ...]] = []
        merged = size = 0
        for k in ks.tolist():
            s1, s2 = moves(i, k)
            # dev1 is sorted, so the states landing in its window form a slice
            a = int(np.searchsorted(dev1, lo1[i] - s1, side="left"))
            b = int(np.searchsorted(dev1, hi1[i] - s1, side="right"))
            if a == b:
                continue
            d2 = dev2[a:b] + s2
            r = red[a:b] + reduced[i, k]
            sel = np.flatnonzero((d2 >= lo2[i]) & (d2 <= hi2[i]) & (r <= tau))
            key = (dev1[a:b][sel] + (s1 - lo1[i])) * width2 + (d2[sel] - lo2[i])
            parts.append(
                (key, val[a:b][sel] + cost[i, k], r[sel], sel + a, np.full(sel.shape[0], k + 1))
            )
            size += sel.shape[0]
            if size - merged >= max(layer_share, merged):
                # fold the transitions so far into distinct states: bounds
                # the layer's memory, and doubling keeps the sorting cheap
                parts = [_keep_cheapest(parts)]
                merged = size = parts[0][0].shape[0]
                if live + merged > DP_STATE_BUDGET:
                    raise MatchBudgetError(None, np.inf)
        if not parts:
            return None
        key, val, red, par, pick = _keep_cheapest(parts)
        if key.shape[0] == 0:
            return None
        dev1 = key // width2 + lo1[i]
        dev2 = key % width2 + lo2[i]
        live += key.shape[0]
        if live > DP_STATE_BUDGET:
            raise MatchBudgetError(None, np.inf)
        parents.append(par)
        picks.append(pick)

    final = np.flatnonzero(space.admits(dev1, dev2) & (red <= tau))
    if final.shape[0] == 0:
        return None
    j = int(final[np.argmin(val[final])])
    r = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        if parents[i] is None:
            r[i] = picks[i]
        else:
            r[i] = picks[i][j]
            j = int(parents[i][j])
    return r


def _maximize_concave(f, scale: float, seed: float | None = None):
    """Maximize a concave piecewise-linear function of one variable.

    f(x) returns (value, slope, aux), the slope being a supergradient.  A
    seed is tried first: a zero slope there proves it a maximum, and any
    other slope restarts the search as if there were no seed.  The bracket
    grows from [-scale, scale] until its end slopes point inward.  Each
    step then tries the breakpoint where the two end lines meet, or the
    midpoint on every fourth step, and the search stops at the breakpoint
    once f reaches those lines or its slope is zero, rather than at float
    precision.  Returns (best value, lower end, upper end): the final
    bracket's evaluations, which at a breakpoint are both optimal.
    """
    best = -np.inf
    if seed is not None:
        f_seed = f(seed)
        if f_seed[1] == 0:
            return f_seed[0], f_seed, f_seed
        best = f_seed[0]
    lo, hi = -scale, scale
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(128):
        if f_lo[1] >= 0:
            break
        hi, f_hi = lo, f_lo
        lo *= 4.0
        f_lo = f(lo)
    for _ in range(128):
        if f_hi[1] <= 0:
            break
        lo, f_lo = hi, f_hi
        hi *= 4.0
        f_hi = f(hi)
    best = max(best, f_lo[0], f_hi[0])
    if f_lo[1] <= 0:
        return best, f_lo, f_lo
    if f_hi[1] >= 0:
        return best, f_hi, f_hi
    for step in range(64):
        x = 0.5 * (lo + hi)
        if step % 4 != 3:
            meet = (f_hi[0] - f_lo[0] + f_lo[1] * lo - f_hi[1] * hi) / (f_lo[1] - f_hi[1])
            if lo < meet < hi:
                x = meet
        if not lo < x < hi:
            break
        fx = f(x)
        best = max(best, fx[0])
        if fx[1] == 0:
            return best, fx, fx
        line = f_lo[0] + f_lo[1] * (x - lo)
        if fx[0] >= line - 1e-12 * abs(line):
            break
        if fx[1] > 0:
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
    return best, f_lo, f_hi


def _budget_slope(x: float, dev: float, budget: int) -> float:
    """Supergradient in x of x * dev - |x| * budget."""
    if x > 0 or (x == 0 and dev > budget):
        return dev - budget
    if x < 0 or dev < -budget:
        return dev + budget
    return 0


def _mu_breakpoint(base: np.ndarray, space: RankSpace) -> float:
    """The sum multiplier maximizing the dual over mu, when every row of base is convex.

    Row i then takes position 1 + #{k : d_ik > mu}, for the adjacent
    differences d_ik = base[i, k-1] - base[i, k], so with M = n(n-1)/2 the
    mu slope is #{d > mu} - M - c_n for mu > 0 and #{d > mu} - M + c_n for
    mu < 0.  It is zero between the (M + c_n + 1)-th and (M + c_n)-th
    largest d, or between the (M - c_n + 1)-th and (M - c_n)-th, whichever
    lies on its own side of 0; otherwise at mu = 0.  Returns the middle of
    that flat stretch (Hochbaum, Math. OR 19(2), 1994).  One n x (n-1)
    table of differences is partitioned in place and freed on return.
    """
    half = space.n * (space.n - 1) // 2
    c = space.c_n
    if c >= half:
        # |sum r - sum i| <= M for every row-wise argmin: the budget never binds
        return 0.0
    d = np.subtract(base[:, :-1], base[:, 1:]).ravel()
    d.partition([half - c - 1, half - c, half + c - 1, half + c])
    if d[half - c - 1] > 0:
        return 0.5 * float(d[half - c - 1] + d[half - c])
    if d[half + c] <= 0:
        return 0.5 * float(d[half + c - 1] + d[half + c])
    return 0.0


def _lagrangian_bound(cost: np.ndarray, space: RankSpace):
    """Lower bound on the matching objective by Lagrangian relaxation.

    Relaxing the sum-of-squares budget with multiplier lam and the sum
    budget with mu separates the coordinates: row i takes the argmin over k
    of cost[i, k-1] + lam*k^2 + mu*k.  The dual value is concave and
    piecewise linear in (lam, mu), with the integer budget violations of
    that argmin as supergradients (Hochbaum, Math. OR 19(2), 1994).  mu is
    maximized for each lam; at the breakpoint the two bracketing argmins
    are both optimal, and the mix of them that zeroes the mu slope gives
    the lam slope for the outer search.  A sum-only space has no
    sum-of-squares budget to relax, so lam stays at 0.

    Each mu search is seeded with _mu_breakpoint, exact when every row of
    cost + lam*k^2 is convex in k (affine theta and lam >= -slope^2).  The
    seed usually has mu slope 0 and ends its search in one evaluation;
    non-convex rows or exact ties can give it another slope, and the search
    then restarts from its symmetric bracket.  The bound is the largest
    dual value evaluated, so it is a valid lower bound either way.

    Row minima must be exactly 0, as _band_match leaves them: the bound at
    lam = mu = 0 is then 0, and the largest cost is the largest row spread.

    Returns (lower bound, reduced costs at the best multipliers, slack,
    incumbent, its cost): reduced costs are the excess over each row's
    minimum, slack covers their rounding error, and the incumbent is the
    cheapest feasible row-wise argmin met (the identity rank if none was).
    """
    n = space.n
    c = space.c_n
    csq = space.c_n_sq or 0
    t1, t2 = space.identity_sum(), space.identity_sumsq()
    pos = np.arange(1, n + 1, dtype=np.float64)
    rows = np.arange(n)
    incumbent = np.arange(1, n + 1, dtype=np.int64)
    inc_cost = float(np.sum(cost[rows, rows]))
    best = (0.0, 0.0, 0.0)  # the bound at lam = mu = 0

    def over_mu(lam):
        base = cost + lam * pos * pos

        def dual(mu):
            nonlocal incumbent, inc_cost, best
            a = base + mu * pos
            k = np.argmin(a, axis=1)
            r = k + 1
            value = float(np.sum(a[rows, k])) - lam * t2 - mu * t1 - abs(lam) * csq - abs(mu) * c
            dev1, dev2 = map(int, space.deviations(r))
            if value > best[0]:
                best = (value, lam, mu)
            if space.admits(dev1, dev2):
                obj = float(np.sum(cost[rows, k]))
                if obj < inc_cost:
                    incumbent, inc_cost = r, obj
            return value, _budget_slope(mu, dev1, c), dev2

        value, left, right = _maximize_concave(
            dual, spread / n + abs(lam) * (n + 1), _mu_breakpoint(base, space)
        )
        if left[1] == right[1]:
            dev2 = left[2]
        else:
            w = right[1] / (right[1] - left[1])
            dev2 = w * left[2] + (1.0 - w) * right[2]
        return value, _budget_slope(lam, dev2, csq), None

    # multipliers act on the costs within a row, so they scale with its spread
    spread = float(cost.max()) or 1.0
    if space.c_n_sq is None:
        over_mu(0.0)
    else:
        _maximize_concave(over_mu, spread / (n * n))
    lb, lam, mu = best
    reduced = cost + lam * pos * pos + mu * pos
    low = reduced.min(axis=1, keepdims=True)
    slack = 1e-12 * float(np.maximum(reduced.max(axis=1), -low[:, 0]).sum())
    reduced -= low
    return lb, reduced, slack, incumbent, inc_cost


def _band_match(cost: np.ndarray, space: RankSpace) -> np.ndarray:
    """Exact matching by the DP on a widening band of Lagrangian reduced costs.

    Every feasible r satisfies cost(r) >= LB + (sum of its reduced costs),
    so no rank outside the band of reduced-cost sum tau beats LB + tau.
    The band DP starts at tau = (incumbent - LB) / 64, or at a typical
    row's cheapest move off its Lagrangian argmin if that is smaller, and
    widens fourfold, up to incumbent - LB, until the incumbent is within
    tau of LB, which proves it optimal.  Raises MatchBudgetError with the
    incumbent and its certified gap when a band outgrows the DP budgets.

    Takes ownership of cost and overwrites it with each row's excess over its
    minimum, which keeps bound, gaps and DP precise when the costs are large
    but nearly flat; no other n x n copy of the costs is made.
    """
    n = space.n
    rows = np.arange(n)
    cost -= cost.min(axis=1, keepdims=True)
    lb, reduced, slack, incumbent, inc_cost = _lagrangian_bound(cost, space)
    gap = inc_cost - lb
    tau = min(gap / 64.0, float(np.median(np.partition(reduced, 1, axis=1)[:, 1])))
    while gap > 0.0:
        try:
            banded = _dp_match(cost, space, reduced, tau + slack)
        except MatchBudgetError:
            raise MatchBudgetError(incumbent, gap) from None
        if banded is not None:
            banded_gap = float(np.sum(cost[rows, banded - 1])) - lb
            if banded_gap <= gap:
                incumbent, gap = banded, banded_gap
        if gap <= tau:
            break
        tau = min(max(4.0 * tau, gap / 64.0), gap)
    return incumbent


def feature_match(scores, theta, space: RankSpace) -> np.ndarray:
    """Minimize sum_i (S_i - theta_{r(i)})^2 over the rank space.

    Returns the optimal rank entries as an int64 array.  Ladder (module
    docstring): nearest position; the sum-only greedy for affine theta;
    the band match over the given space.  Raises MatchBudgetError,
    carrying a feasible rank and its certified optimality gap, when a band
    outgrows the DP budgets.
    """
    n = space.n
    S = _vector(scores, n, "scores")
    th = _vector(theta, n, "theta")

    # past one row block the closed form beats the dense argmin for affine
    # theta; below it, affinity matters only once the nearest position
    # breaks a budget
    affine = is_affine(th) if n * n > _ROW_BLOCK else None
    u = _unconstrained(S, th, bool(affine))
    dev1, dev2 = space.deviations(u)
    if space.admits(dev1, dev2):
        return u

    if affine is None:
        affine = is_affine(th)
    if affine:
        r1 = _greedy_sum_repair(S, th, u, dev1, space.c_n)
        if space.admits(*space.deviations(r1)):
            # optimal over the sum-only superset and feasible here, hence optimal
            return r1
    return _band_match((S[:, None] - th[None, :]) ** 2, space)


def exhaustive_feature_match(scores, theta, space: RankSpace) -> tuple[np.ndarray, float]:
    """Reference minimizer by full enumeration (lexicographic tie-break).

    Only for small n; used as the oracle that feature_match is checked
    against.
    """
    n = space.n
    S = _vector(scores, n, "scores")
    th = _vector(theta, n, "theta")

    def objective(cand: np.ndarray) -> np.ndarray:
        resid = S[None, :] - th[cand - 1]
        return np.sum(resid * resid, axis=1)

    return space_argmin(space, objective)
