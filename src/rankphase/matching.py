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
  per-coordinate costs are convex in k, so the cheapest unit steps toward
  the nearest budget boundary project the sum onto it exactly.  One
  partition selects them by each row's running maximum step cost, from a
  table its cut-short rows certify; this is the fast path at experiment
  scale.  An optimum over the sum-only space that meets the
  sum-of-squares budget is optimal over the restricted space too (a
  subset), which keeps this step exact in the common case.
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

In a band most rows allow one position.  The DP makes no array for such a
row: its moves join a pending integer shift, and its costs are added in
place to the states' cost array.  Each row with more positions makes all
its transitions in one positions x states broadcast and merges them with
one stable sort, so the DP's numpy calls follow those rows, not n.

The bound's search for the sum multiplier starts where the dual peaks when
every row's cost is convex in the position, as it is for affine theta:
midway between two consecutive order statistics of the adjacent cost
differences.  Where that start is not a peak, the search restarts from a
symmetric bracket.  The search for the sum-of-squares multiplier starts
its bracket no lower than where the rows stop being convex, so on convex
rows every sum-multiplier start it tries is a peak.
"""

from __future__ import annotations

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

    For convex costs the optimum takes the need cheapest unit steps toward
    the window, ties to the smallest row: the need smallest (key, row,
    step), a step's key being the running maximum of its row's costs
    a*a - b*b, which keeps that order where rounding makes the costs dip.
    One partition of each row's first w steps finds the need-th key t; w
    doubles until every row cut short has a last key above t.
    """
    if abs(dev) <= c:
        return u
    direction, need = (-1, dev - c) if dev > c else (1, -c - dev)
    room = u - 1 if dev > c else u.shape[0] - u
    if room.sum() < need:
        raise RankPhaseError("sum repair ran out of moves; budget infeasible")
    most = int(room.max())
    w = min(need // u.shape[0] + 3, most)
    while True:
        # column i walks row i's w steps, held at the end of its room; a step's
        # cost a*a - b*b is a difference of squares, keyed +inf past the room
        k = u + direction * np.minimum(np.arange(w + 1)[:, None], room)
        sq = S - theta[k - 1]
        sq *= sq
        key = np.maximum.accumulate(sq[1:] - sq[:-1], axis=0)
        pad = np.arange(w)[:, None] >= room
        key[pad] = np.inf
        t = np.partition(key.ravel(), need - 1)[need - 1]
        if w == most or not (key[-1, room > w] <= t).any():
            break
        w = min(2 * w, most)
    # take the steps keyed below t, then those keyed t in (row, step) order
    below, ties = (key < t).sum(axis=0), ((key == t) & ~pad).sum(axis=0)
    extra = need - below.sum() - (ties.cumsum() - ties)
    return u + direction * (below + np.clip(extra, 0, ties))


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


def _keep_cheapest(key, vr, par, pick):
    """Merge DP transitions into one state per key, keeping the cheapest.

    The columns hold transitions in the order they were made: position by
    position, states ascending within a position, after the states of any
    earlier fold.  vr holds their costs and reduced costs as its two rows.
    Among equal keys the lowest cost wins, and among equal costs the
    earliest transition, hence the smallest position.  The rule is
    associative, so folding a row's transitions in pieces keeps the same
    states.  Returns the kept columns, sorted by key.
    """
    order = key.argsort(kind="stable")
    key, value = key.take(order), vr[0].take(order)
    head = np.empty(key.shape[0], dtype=bool)
    head[:1] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    if not head.all():
        group = head.cumsum() - 1
        cheapest = np.minimum.reduceat(value, head.nonzero()[0])
        hit = (value == cheapest.take(group)).nonzero()[0]
        first = np.empty(hit.shape[0], dtype=bool)
        first[:1] = True
        group = group.take(hit)
        np.not_equal(group[1:], group[:-1], out=first[1:])
        hit = hit[first]
        order, key = order.take(hit), key.take(hit)
    return key, vr.take(order, axis=1), par.take(order), pick.take(order)


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

    A row with one allowed position moves every state alike and makes no
    array: its moves join a pending integer shift, which is exact and is
    applied at the next row with more than one position and at the end,
    and its cost and reduced cost are added in place, in row order, to the
    states' (2, m) cost array (to two floats while one state is live).  A
    branching row makes its transitions in one positions x states
    broadcast, masks them by the deviation windows and the band, and
    merges them with one stable sort; transitions past the layer's share
    of the state budget are made and folded in pieces, as they come.

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
    rows = np.arange(n)
    first = allowed.argmax(axis=1)
    if not allowed[rows, first].all():
        return None
    last = n - 1 - allowed[:, ::-1].argmax(axis=1)

    # both moves grow with k, so a row's extremes sit at its first and last
    # allowed position, and a one-position row makes its first position's
    sq = (rows + 1) ** 2 * restricted
    step1, step2 = first - rows, sq[first] - sq
    lo1, hi1 = _window_bounds(step1, last - rows, space.c_n)
    lo2, hi2 = _window_bounds(step2, sq[last] - sq, space.c_n_sq or 0)
    step1, step2 = step1.tolist(), step2.tolist()
    first_vr = np.stack((cost[rows, first], reduced[rows, first]), axis=1)
    first_val, first_red = first_vr.T.tolist()
    first_vr = first_vr[:, :, None]

    # live states, sorted by (dev1, dev2), which lag the true deviations by
    # the pending shift (sh1, sh2); vr holds their costs and reduced costs,
    # and is None while the one state's are the floats val and red
    dev1 = np.zeros(1, dtype=np.int64)
    dev2 = np.zeros(1, dtype=np.int64) if restricted else 0
    sh1 = sh2 = 0
    val = red = 0.0
    vr = None
    layers: list[tuple[int, np.ndarray, np.ndarray]] = []  # (row, parent, position)
    live = ops = done = 0
    layer_share = max(1, DP_STATE_BUDGET // n)
    for i in (first != last).nonzero()[0].tolist() + [n]:
        # the one-position rows before row i
        sh1 += sum(step1[done:i])
        sh2 += sum(step2[done:i])
        if vr is None:
            for j in range(done, i):
                val += first_val[j]
                red += first_red[j]
        else:
            for j in range(done, i):
                vr += first_vr[j]
        done = i + 1
        if i == n:
            break
        if vr is None:
            vr = np.array([[val], [red]])
        ks = allowed[i].nonzero()[0]
        w, m = ks.shape[0], dev1.shape[0]
        ops += m * w
        if ops > DP_OP_BUDGET:
            raise MatchBudgetError(None, np.inf)
        # each position's key offsets: its moves plus the pending shift,
        # from the row's window floors
        off1 = ks + (sh1 - lo1[i] - i)
        off2 = sq.take(ks) + (sh2 - lo2[i] - sq[i])
        span1, width2 = hi1[i] - lo1[i], hi2[i] - lo2[i] + 1
        step = np.empty((2, w, 1))
        step[0, :, 0] = cost[i].take(ks)
        step[1, :, 0] = reduced[i].take(ks)
        # a row past the layer's share of the state budget is broadcast in
        # pieces of about max(layer_share, states so far) transitions, each
        # folded into the row's states: that bounds the layer's memory, and
        # no fold sorts more than twice its piece.  The row's state count
        # only grows from fold to fold, so a raise after an early fold is
        # one the row's end would make too.
        states = None
        p = 0
        while p < w:
            merged = 0 if states is None else states[0].shape[0]
            q = min(w, p + max(1, max(layer_share, merged) // m))
            # positions p..q-1 by states: a key lies in its window when its
            # offset from the floor is at most the span, as an unsigned int
            key = dev1 + off1[p:q, None]
            keep = key.view(np.uint64) <= span1
            if restricted:
                key2 = dev2 + off2[p:q, None]
                keep &= key2.view(np.uint64) < width2
                key = key * width2 + key2
            moved = vr[:, None, :] + step[:, p:q]
            keep &= moved[1] <= tau
            at = keep.ravel().nonzero()[0]
            pos, par = np.divmod(at, m)
            cols = (key.ravel().take(at), moved.reshape(2, -1).take(at, axis=1), par,
                    ks[p:q].take(pos))
            if states is not None:
                cols = tuple(np.concatenate(c, axis=-1) for c in zip(states, cols))
            states = _keep_cheapest(*cols)
            if live + states[0].shape[0] > DP_STATE_BUDGET:
                raise MatchBudgetError(None, np.inf)
            p = q
        key, vr, par, pick = states
        if key.shape[0] == 0:
            return None
        live += key.shape[0]
        if restricted:
            dev1, dev2 = np.divmod(key, width2)
        else:
            dev1 = key
        sh1, sh2 = lo1[i], lo2[i]
        layers.append((i, par, pick))

    if vr is None:
        vr = np.array([[val], [red]])
    final = np.flatnonzero(space.admits(dev1 + sh1, dev2 + sh2) & (vr[1] <= tau))
    if final.shape[0] == 0:
        return None
    j = int(final[np.argmin(vr[0, final])])
    r = first + 1
    for i, par, pick in reversed(layers):
        r[i] = pick[j] + 1
        j = par[j]
    return r


def _maximize_concave(f, lo: float, hi: float, seed: float | None = None):
    """Maximize a concave piecewise-linear function of one variable.

    f(x) returns (value, slope, aux), the slope being a supergradient.  A
    seed is tried first: a zero slope there proves it a maximum, and any
    other slope restarts the search as if there were no seed.  The bracket
    grows from [lo, hi], lo < 0 < hi, until its end slopes point inward.  Each
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

    The lam search keeps those rows convex where it can.  When every row of
    cost is strictly convex in k, with d > 0 its smallest second
    difference, every row of cost + lam*k^2 stays convex down to
    lam = -d/2, and the search starts its bracket there if that lies
    inside [-spread/n^2, spread/n^2].  For affine theta, a + b*k, d = 2b^2
    and the start is -b^2, where every row is linear in k and takes its
    argmin at an end.  With the sum held near n(n+1)/2 by mu, about half
    the rows sit at n, which puts the sum of squares about n^3/6 above the
    identity's, so the lam slope there (that deviation plus c'_n) is
    positive and the maximizer lies above the start, not cut off; were the
    slope negative, the bracket would grow downward as before.

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

        scale = spread / n + abs(lam) * (n + 1)
        value, left, right = _maximize_concave(dual, -scale, scale, _mu_breakpoint(base, space))
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
        scale = spread / (n * n)
        floor = -scale
        if n > 2:
            # the smallest second difference along any row
            curve = cost[:, 2:] - cost[:, 1:-1]
            curve -= cost[:, 1:-1]
            curve += cost[:, :-2]
            least = float(curve.min())
            del curve
            if least > 0.0:
                floor = max(floor, -0.5 * least)
        _maximize_concave(over_mu, floor, scale)
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
    docstring): nearest position; the sum repair for affine theta;
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
