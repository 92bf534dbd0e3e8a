import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankphase import InputError, RankSpace, matching, space_contains
from rankphase.errors import MatchBudgetError, RankPhaseError
from rankphase.matching import (
    _band_match,
    _dp_match,
    _lagrangian_bound,
    _mu_breakpoint,
    exhaustive_feature_match,
    feature_match,
    is_affine,
    match_objective,
)

from conftest import brute_force_match


def _cost(scores, theta):
    return (scores[:, None] - theta[None, :]) ** 2


def _random_instance(rng, n, affine):
    if affine:
        theta = float(rng.uniform(-2, 2)) + float(rng.uniform(0.3, 2.0)) * np.arange(1, n + 1)
    else:
        theta = rng.normal(0.0, 2.0, n)
    scores = rng.normal(0.0, 2.0, n)
    return scores, theta


def test_spec_example_returned_as_is():
    space = RankSpace(4, 1)
    r = feature_match([1.1, 1.2, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], space)
    assert list(r) == [1, 1, 3, 4]


def test_perfect_scores_recovered():
    theta = np.array([0.5, 1.5, 3.0, 4.5, 6.0])
    r_true = np.array([2, 1, 3, 5, 4])
    space = RankSpace(5, 2)
    r = feature_match(theta[r_true - 1], theta, space)
    assert list(r) == list(r_true)
    assert match_objective(theta[r_true - 1], theta, r) == 0.0


def test_is_affine():
    assert is_affine(np.array([1.0, 2.0, 3.0, 4.0]))
    assert is_affine(np.full(5, 2.0))
    assert not is_affine(np.array([1.0, 2.0, 4.0, 8.0]))


@pytest.mark.parametrize("restricted", [False, True])
def test_matches_enumeration(rng, restricted):
    for trial in range(120):
        n = int(rng.integers(3, 7))
        c = int(rng.integers(1, 4))
        csq = int(rng.integers(n, 2 * n * n)) if restricted else None
        space = RankSpace(n, c, csq)
        scores, theta = _random_instance(rng, n, affine=bool(trial % 2))
        r = feature_match(scores, theta, space)
        assert space_contains(space, r)
        obj = match_objective(scores, theta, r)
        _, best = brute_force_match(scores, theta, n, c, csq)
        assert obj == best


def test_exhaustive_reference_agrees_with_test_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(3, 6))
        space = RankSpace(n, int(rng.integers(1, 3)))
        scores, theta = _random_instance(rng, n, affine=False)
        r_lib, obj_lib = exhaustive_feature_match(scores, theta, space)
        r_ora, obj_ora = brute_force_match(scores, theta, n, space.c_n)
        assert obj_lib == obj_ora
        assert list(r_lib) == list(r_ora)


@pytest.mark.parametrize("r", [[0, 2, 3], [1, 2, 4], [1, 2]])
def test_match_objective_rejects_ranks_outside_positions(r):
    # a 0 entry used to read theta[-1], and an entry above n to raise IndexError
    with pytest.raises(InputError):
        match_objective([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], r)


def test_exhaustive_refuses_large_n():
    with pytest.raises(InputError):
        exhaustive_feature_match(np.zeros(7), np.zeros(7), RankSpace(7, 1))


def test_greedy_agrees_with_dp_on_affine(rng):
    # the sum-repair greedy and the DP are both exact for affine theta
    for _ in range(200):
        n = int(rng.integers(4, 13))
        c = int(rng.integers(1, 3))
        theta = float(rng.uniform(-1, 1)) + float(rng.uniform(0.3, 1.5)) * np.arange(1, n + 1)
        scores = rng.normal(0.0, float(rng.uniform(0.5, 4.0)), n)
        space = RankSpace(n, c)
        r_fast = feature_match(scores, theta, space)
        r_dp = _dp_match(_cost(scores, theta), space)
        assert space_contains(space, r_fast)
        assert match_objective(scores, theta, r_fast) == match_objective(scores, theta, r_dp)


def _heap_sum_repair(S, theta, u, dev, c):
    # the marginal-cost greedy as a heap loop, the sum repair's reference:
    # pop the cheapest unit step, ties to the smallest row, push its next one
    import heapq

    n = u.shape[0]
    if abs(dev) <= c:
        return u
    r = u.copy()
    direction, need = (-1, dev - c) if dev > c else (1, -c - dev)

    def step_cost(i):
        a = S[i] - theta[r[i] + direction - 1]
        b = S[i] - theta[r[i] - 1]
        return float(a * a - b * b)

    heap = [(step_cost(i), i) for i in range(n) if 1 <= r[i] + direction <= n]
    heapq.heapify(heap)
    for _ in range(need):
        if not heap:
            raise RankPhaseError("sum repair ran out of moves; budget infeasible")
        _, i = heapq.heappop(heap)
        r[i] += direction
        if 1 <= r[i] + direction <= n:
            heapq.heappush(heap, (step_cost(i), i))
    return r


def _repair_instance(rng, n, theta_kind, score_kind, nearest, direction, fill):
    # theta affine of either sign, integer-valued, with a slope near 1e-6, or
    # flat (every step costs 0, so each row's steps all tie); u the nearest
    # position or any rank vector; need a fraction fill of the room left in
    # the repair direction (fill = 1: all of it)
    k = np.arange(1, n + 1)
    if theta_kind == "flat":
        theta = np.full(n, float(rng.integers(-3, 4)))
    elif theta_kind == "integer":
        theta = float(rng.integers(-3, 4)) + float(rng.choice([-2, -1, 1, 2])) * k
    elif theta_kind == "tiny":
        theta = float(rng.uniform(-1e-3, 1e-3)) + 1e-6 * float(rng.uniform(0.5, 2.0)) * k
    else:
        theta = float(rng.uniform(-2, 2)) + float(rng.uniform(-2, 2)) * k
    spread = float(np.abs(theta[-1] - theta[0])) + 1e-9
    if score_kind == "integer":
        scores = rng.integers(-n, n + 1, n).astype(float)
    else:
        scores = float(theta.mean()) + rng.normal(0.0, spread, n)
    u = matching._unconstrained(scores, theta) if nearest else rng.integers(1, n + 1, n)
    room = int((u - 1).sum() if direction < 0 else (n - u).sum())
    need = max(1, round(fill * room))
    c = int(rng.integers(0, n))
    return scores, theta, u, -direction * (c + need), c


@pytest.mark.parametrize("direction", [-1, 1])
def test_sum_repair_equals_heap_loop(rng, direction):
    kinds = [(t, s) for t in ("affine", "integer", "tiny", "flat") for s in ("normal", "integer")]
    for trial in range(240):
        theta_kind, score_kind = kinds[trial % len(kinds)]
        n = int(rng.integers(2, 60))
        fill = [1.0, float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, 1.0))][trial % 3]
        args = _repair_instance(rng, n, theta_kind, score_kind, bool(trial % 2), direction, fill)
        if (args[2] == (1 if direction < 0 else n)).all():
            continue  # no room at all: the out-of-moves case below
        np.testing.assert_array_equal(matching._greedy_sum_repair(*args), _heap_sum_repair(*args))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 300),
    st.sampled_from(["affine", "integer", "tiny", "flat"]),
    st.sampled_from(["normal", "integer"]),
    st.booleans(),
    st.sampled_from([-1, 1]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_sum_repair_equals_heap_loop_on_drawn(n, theta, score, nearest, direction, fill, seed):
    rng = np.random.default_rng(seed)
    args = _repair_instance(rng, n, theta, score, nearest, direction, fill)
    if (args[2] == (1 if direction < 0 else n)).all():
        return  # no room at all
    np.testing.assert_array_equal(matching._greedy_sum_repair(*args), _heap_sum_repair(*args))


def test_sum_repair_keys_dipping_rows_by_running_maximum():
    # |S| = 1e8 against a 1e-6 slope: a*a - b*b rounds to noise of about 2
    # around 2e2, so the float step costs of every third row dip as it moves
    # down; the other rows' steps are far cheaper and all go first
    n = 60
    theta = 1e-6 * np.arange(1, n + 1)
    far = np.arange(n) % 3 == 0
    scores = np.where(far, 1e8, np.linspace(0.0, 6e-5, n))
    u = np.where(far, n, matching._unconstrained(scores, theta))
    a = scores[0] - theta[n - 2 :: -1]
    b = scores[0] - theta[n - 1 : 0 : -1]
    assert (np.diff(a * a - b * b) < 0).any()
    dev = int(u.sum()) - n * (n + 1) // 2
    near_room = int((u[~far] - 1).sum())
    for need in (near_room + 1, near_room + 97, int((u - 1).sum()) - 3):
        args = scores, theta, u, dev, dev - need
        np.testing.assert_array_equal(matching._greedy_sum_repair(*args), _heap_sum_repair(*args))


def test_sum_repair_steps_costing_inf_stay_in_room():
    # a step up to 2e154 costs inf, the need-th key is inf, and the first
    # row, with no room, must not take the table's inf padding as ties
    args = np.zeros(3), np.array([0.0, 1e154, 2e154]), np.array([3, 1, 1]), -4, 0
    for repair in (matching._greedy_sum_repair, _heap_sum_repair):
        with np.errstate(over="ignore", invalid="ignore"):
            r = repair(*args)
        np.testing.assert_array_equal(r, [3, 3, 3])


@pytest.mark.parametrize("u, dev", [([1, 1, 1], -10), ([3, 3, 3], 10), ([1, 2, 3], -4)])
def test_sum_repair_out_of_moves(u, dev):
    for repair in (matching._greedy_sum_repair, _heap_sum_repair):
        with pytest.raises(RankPhaseError, match="ran out of moves"):
            repair(np.zeros(3), np.arange(1.0, 4.0), np.array(u), dev, 0)


def test_restricted_dp_agrees_with_enumeration(rng):
    for _ in range(60):
        n = int(rng.integers(3, 7))
        c = int(rng.integers(1, 3))
        csq = int(rng.integers(2, n * n))
        space = RankSpace(n, c, csq)
        scores, theta = _random_instance(rng, n, affine=False)
        r = _dp_match(_cost(scores, theta), space)
        assert r is not None
        assert space_contains(space, r)
        _, best = brute_force_match(scores, theta, n, c, csq)
        assert match_objective(scores, theta, r) == best


def test_membership_always_holds_at_larger_n(rng):
    for trial in range(40):
        n = int(rng.integers(8, 40))
        c = int(rng.integers(1, 4))
        restricted = bool(trial % 2)
        csq = int(rng.integers(n, n * n)) if restricted else None
        space = RankSpace(n, c, csq)
        scores, theta = _random_instance(rng, n, affine=bool(trial % 3))
        r = feature_match(scores, theta, space)
        assert space_contains(space, r)


def test_saturated_instance_membership():
    # tiny slope, wide scores: most coordinates clip to 1 or n and the sum
    # budget forces a long repair
    rng = np.random.default_rng(5)
    n = 100
    theta = 1e-6 * np.arange(1, n + 1)
    scores = rng.normal(0.0, 1.0, n)
    space = RankSpace.default(n)
    r = feature_match(scores, theta, space)
    assert space_contains(space, r)
    # no feasible candidate built from simple heuristics should beat it
    ident = np.arange(1, n + 1)
    assert match_objective(scores, theta, r) <= match_objective(scores, theta, ident)


def test_shift_equivariance(rng):
    for trial in range(40):
        n = int(rng.integers(3, 7))
        space = RankSpace(n, int(rng.integers(1, 3)))
        scores, theta = _random_instance(rng, n, affine=bool(trial % 2))
        shift = float(rng.uniform(-5, 5))
        r1 = feature_match(scores, theta, space)
        r2 = feature_match(scores + shift, theta + shift, space)
        assert list(r1) == list(r2)


def test_constant_theta_is_handled():
    # all positions cost the same; result must simply be feasible
    space = RankSpace(6, 1)
    r = feature_match(np.array([3.0, -1.0, 2.0, 0.0, 1.0, 5.0]), np.full(6, 2.0), space)
    assert space_contains(space, r)


def test_tie_heavy_instances_stay_exact(rng):
    # duplicate abilities, integer-valued data, and scores equal to ability
    # values produce exact cost ties; the solver must still hit the optimum
    import itertools

    grids = {
        n: np.array(list(itertools.product(range(1, n + 1), repeat=n)), dtype=np.int64)
        for n in (3, 4, 5)
    }
    for t in range(300):
        n = int(rng.integers(3, 6))
        style = t % 3
        if style == 0:
            base = rng.normal(0, 1, max(2, n // 2))
            theta = base[rng.integers(0, len(base), n)]
            scores = rng.normal(0, 1, n)
        elif style == 1:
            theta = rng.integers(-2, 3, n).astype(float)
            scores = rng.integers(-2, 3, n).astype(float)
        else:
            theta = np.round(rng.normal(0, 2, n), 1)
            scores = theta[rng.integers(0, n, n)].astype(float)
        c = int(rng.integers(1, 5))
        csq = int(rng.integers(1, 2 * n * n)) if t % 2 else None
        space = RankSpace(n, c, csq)
        r = feature_match(scores, theta, space)
        assert space_contains(space, r)
        grid = grids[n]
        keep = np.abs(grid.sum(axis=1) - space.identity_sum()) <= c
        if csq is not None:
            keep &= np.abs((grid**2).sum(axis=1) - space.identity_sumsq()) <= csq
        cand = grid[keep]
        resid = scores[None, :] - theta[cand - 1]
        best = float(np.min(np.sum(resid * resid, axis=1)))
        assert match_objective(scores, theta, r) == best


@st.composite
def _restricted_instances(draw):
    # a small sum-of-squares budget, so the restricted constraint binds;
    # values on a 1/8 grid keep every objective exact, ties included
    n = draw(st.integers(3, 6))
    space = RankSpace(n, draw(st.integers(1, 3)), draw(st.integers(0, 2 * n)))
    unit = st.integers(-24, 24).map(lambda v: v / 8.0)
    scores = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    if draw(st.booleans()):
        slope = draw(st.integers(1, 16)) / 8.0
        theta = draw(unit) + slope * np.arange(1, n + 1)
    else:
        theta = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    return scores, theta, space


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_restricted_instances())
def test_band_match_agrees_with_enumeration(instance):
    scores, theta, space = instance
    r = _band_match(_cost(scores, theta), space)
    assert space_contains(space, r)
    _, best = exhaustive_feature_match(scores, theta, space)
    assert match_objective(scores, theta, r) == best


@st.composite
def _convex_rows(draw):
    # affine theta and lam >= -slope^2 keep every row of cost + lam k^2
    # convex in k; c_n runs past n(n-1)/2, where the sum budget never binds
    n = draw(st.integers(3, 10))
    space = RankSpace(n, draw(st.integers(1, n * (n - 1) // 2 + 2)))
    unit = st.floats(-4.0, 4.0)
    scores = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    slope = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    theta = draw(unit) + slope * np.arange(1, n + 1)
    pos = np.arange(1, n + 1, dtype=np.float64)
    lam = -slope * slope + draw(st.floats(0.0, 2.0))
    return _cost(scores, theta) + lam * pos * pos, space


def _mu_dual(base, space, mu):
    pos = np.arange(1, space.n + 1, dtype=np.float64)
    rowmin = np.min(base + mu * pos, axis=1)
    return float(np.sum(rowmin)) - mu * space.identity_sum() - abs(mu) * space.c_n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_convex_rows())
def test_mu_breakpoint_maximizes_dual_on_convex_rows(instance):
    # the dual is concave and piecewise linear in mu with its kinks at the
    # adjacent differences, so its maximum is at 0 or one of them
    base, space = instance
    kinks = (base[:, :-1] - base[:, 1:]).ravel().tolist()
    best = max(_mu_dual(base, space, mu) for mu in [0.0, *kinks])
    got = _mu_dual(base, space, _mu_breakpoint(base, space))
    assert got == pytest.approx(best, rel=1e-12, abs=1e-12 * float(np.abs(base).max()))


@st.composite
def _bound_instances(draw):
    # convex (affine theta) and non-convex rows, in both space kinds
    scores, theta, space = draw(_restricted_instances())
    if draw(st.booleans()):
        space = RankSpace(space.n, space.c_n)
    cost = _cost(scores, theta)
    return cost - cost.min(axis=1, keepdims=True), space


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_bound_instances())
def test_lagrangian_bound_stays_below_full_dp(instance):
    cost, space = instance
    lb = _lagrangian_bound(cost, space)[0]
    r = _dp_match(cost, space)
    opt = float(np.sum(cost[np.arange(space.n), r - 1]))
    assert lb <= opt + 1e-12 * space.n * float(cost.max())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_band_match_equals_full_dp_at_n21(monkeypatch, seed):
    # the full DP over n = 21 needs more than the default budget
    space = RankSpace.default_restricted(21)
    theta = 0.01 + 0.003 * np.arange(1, 22)
    scores = np.random.default_rng(seed).normal(0.0, 0.05, 21)
    r = feature_match(scores, theta, space)
    monkeypatch.setattr(matching, "DP_STATE_BUDGET", 50_000_000)
    monkeypatch.setattr(matching, "DP_OP_BUDGET", 5_000_000_000)
    assert list(r) == list(_dp_match(_cost(scores, theta), space))


def test_band_match_on_nearly_flat_costs():
    # a slope at profile LS's 1e-12 floor leaves costs of order 1 that vary
    # by ~1e-10 along a row; the band must still prune and stay exact
    rng = np.random.default_rng(4)
    for n in (8, 12):
        space = RankSpace(n, 2, n)
        theta = 0.3 + 1e-12 * np.arange(1, n + 1)
        scores = rng.normal(0.0, 1.0, n)
        r = _band_match(_cost(scores, theta), space)
        full = _dp_match(_cost(scores, theta), space)
        assert match_objective(scores, theta, r) == match_objective(scores, theta, full)
    space = RankSpace.default_restricted(100)
    theta = 0.3 + 1e-12 * np.arange(1, 101)
    r = feature_match(rng.normal(0.0, 1.0, 100), theta, space)
    assert space_contains(space, r)


def test_budget_error_carries_certified_incumbent(monkeypatch):
    rng = np.random.default_rng(3)
    n = 30
    space = RankSpace.default_restricted(n)
    theta = 0.01 + 0.003 * np.arange(1, n + 1)
    scores = rng.normal(0.0, 0.05, n)
    best = match_objective(scores, theta, feature_match(scores, theta, space))
    monkeypatch.setattr(matching, "DP_STATE_BUDGET", 50)
    with pytest.raises(MatchBudgetError) as info:
        feature_match(scores, theta, space)
    incumbent, gap = info.value.incumbent, info.value.gap
    assert space_contains(space, incumbent)
    assert gap >= 0.0
    obj = match_objective(scores, theta, incumbent)
    assert best <= obj <= best + gap + 1e-12


def test_band_match_equals_full_dp_where_sumsq_binds():
    # binding sum-of-squares budgets up to the sizes the full DP solves in
    # about a second: the band must reach the full DP's optimum
    rng = np.random.default_rng(20260812)
    for n in range(7, 21):
        while True:
            space = RankSpace(n, int(rng.integers(1, 4)), int(rng.integers(0, 2 * n)))
            scores, theta = _random_instance(rng, n, affine=bool(n % 2))
            cost = _cost(scores, theta)
            r_sum = _dp_match(cost, RankSpace(n, space.c_n))
            if abs(int(r_sum @ r_sum) - space.identity_sumsq()) > space.c_n_sq:
                break
        r = feature_match(scores, theta, space)
        assert space_contains(space, r)
        full = _dp_match(cost, space)
        assert match_objective(scores, theta, r) == match_objective(scores, theta, full)


@pytest.mark.parametrize("n", [128, 129, 255, 256, 300])
def test_unconstrained_equals_dense_argmin_on_ties(n):
    # integer, duplicated theta and scores on integers and exact midpoints,
    # in rows on both sides of a row-block edge
    rng = np.random.default_rng(n)
    for theta in (rng.integers(0, n // 4, n).astype(float), np.arange(n) // 2 * 1.0):
        scores = rng.integers(-2, n // 2, n) * 0.5
        want = np.argmin(np.abs(scores[:, None] - theta[None, :]), axis=1) + 1
        np.testing.assert_array_equal(matching._unconstrained(scores, theta), want)


@st.composite
def _affine_nearest_instances(draw):
    # n on both sides of feature_match's one-row-block cut (n^2 > 16384
    # from n = 129); slopes of either sign down to 1e-13, and offsets large
    # enough that theta, hence |S - theta_k|, has plateaus
    n = draw(st.sampled_from([3, 50, 128, 129, 200, 301]))
    slope = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-13.0, 3.0))
    offset = draw(st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e6, -1e9, 1e15])))
    theta = offset + slope * np.arange(1, n + 1)
    # each score is a midpoint (theta_k + theta_k+1) / 2, exactly some
    # theta_k, outside [theta_1, theta_n], or anywhere in between
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.integers(0, 4, n)
    k = rng.integers(0, n - 1, n)
    lo, hi = min(theta[0], theta[-1]), max(theta[0], theta[-1])
    span = max(hi - lo, abs(slope))
    outside = np.where(rng.random(n) < 0.5, lo, hi) + rng.normal(0.0, 1.0, n) * span
    scores = np.select(
        [kind == 0, kind == 1, kind == 2],
        [(theta[k] + theta[k + 1]) / 2, theta[k], outside],
        lo + rng.random(n) * (hi - lo),
    )
    return scores, theta


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_affine_nearest_instances())
def test_closed_form_nearest_equals_dense_argmin(instance):
    scores, theta = instance
    assert is_affine(theta)
    want = np.argmin(np.abs(scores[:, None] - theta[None, :]), axis=1) + 1
    np.testing.assert_array_equal(matching._unconstrained(scores, theta, True), want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nearest_position_on_non_monotone_affine_theta(seed):
    # within is_affine's tolerance but zig-zagging: a strict local minimum of
    # |S - theta_k| need not be the global one, so the closed form must not run
    rng = np.random.default_rng(seed)
    n = 300
    theta = 1e-13 * np.arange(1, n + 1) + rng.uniform(-2e-13, 2e-13, n)
    assert is_affine(theta) and (np.diff(theta) < 0).any()
    scores = rng.uniform(theta.min(), theta.max(), n)
    want = np.argmin(np.abs(scores[:, None] - theta[None, :]), axis=1) + 1
    np.testing.assert_array_equal(feature_match(scores, theta, RankSpace(n, n * n)), want)


@pytest.mark.parametrize("n, dense_rows", [(128, 128), (129, 0), (2000, 0)])
def test_closed_form_nearest_skips_dense_table(monkeypatch, n, dense_rows):
    # generic scores settle in closed form past one row block, not below it
    calls = []
    dense = matching._dense_nearest
    monkeypatch.setattr(
        matching, "_dense_nearest", lambda S, th: calls.append(S.shape[0]) or dense(S, th)
    )
    rng = np.random.default_rng(n)
    theta = 0.3 + 0.01 * np.arange(1, n + 1)
    scores = rng.normal(theta.mean(), 0.5 * np.ptp(theta), n)
    want = np.argmin(np.abs(scores[:, None] - theta[None, :]), axis=1) + 1
    np.testing.assert_array_equal(feature_match(scores, theta, RankSpace(n, n * n)), want)
    assert sum(calls) == dense_rows


@pytest.mark.parametrize("n", [40, 100])
def test_sum_only_band_equals_full_dp(monkeypatch, n):
    # non-affine theta over a sum-only space takes the band, not the greedy
    rng = np.random.default_rng(n)
    space = RankSpace.default(n)
    scores, theta = _random_instance(rng, n, affine=False)
    assert not space_contains(space, matching._unconstrained(scores, theta))
    r = feature_match(scores, theta, space)
    assert space_contains(space, r)
    monkeypatch.setattr(matching, "DP_STATE_BUDGET", 50_000_000)
    monkeypatch.setattr(matching, "DP_OP_BUDGET", 5_000_000_000)
    full = _dp_match(_cost(scores, theta), space)
    assert match_objective(scores, theta, r) == match_objective(scores, theta, full)


@pytest.mark.parametrize("restricted", [False, True])
def test_budget_error_on_non_affine_theta(monkeypatch, restricted):
    # over budget, a non-affine instance still yields a certified incumbent,
    # from the band over the given space, feasible in it
    rng = np.random.default_rng(13)
    n = 50
    space = RankSpace(n, 2, n) if restricted else RankSpace(n, 2)
    theta = np.sort(rng.normal(0.0, 2.0, n))
    scores = rng.normal(0.0, 2.0, n)
    best = match_objective(scores, theta, feature_match(scores, theta, space))
    monkeypatch.setattr(matching, "DP_STATE_BUDGET", 100)
    with pytest.raises(MatchBudgetError) as info:
        feature_match(scores, theta, space)
    incumbent, gap = info.value.incumbent, info.value.gap
    assert space_contains(space, incumbent)
    assert gap >= 0.0
    obj = match_objective(scores, theta, incumbent)
    assert best <= obj <= best + gap + 1e-12


def _dp_corpus_outcome(rng, monkeypatch):
    # one seeded instance: integer costs (exact ties) or uniform ones, both
    # space kinds, the full DP or a band at tau in {0, 1/2, 1, 2, inf}, and
    # every fourth instance under a state budget small enough to fold
    # mid-row and sometimes raise
    n = int(rng.integers(3, 11))
    integer = bool(rng.integers(2))
    draw = (lambda: rng.integers(0, 4, (n, n)).astype(float)) if integer else (
        lambda: rng.uniform(0.0, 3.0, (n, n)))
    cost = draw()
    c = int(rng.integers(1, 5))
    space = RankSpace(n, c, int(rng.integers(0, 2 * n))) if rng.integers(2) else RankSpace(n, c)
    reduced = draw() if rng.integers(3) else None
    tau = float(rng.choice([0.0, 0.5, 1.0, 2.0, np.inf]))
    budget = int(rng.integers(n, 40 * n)) if rng.integers(4) == 0 else matching.DP_STATE_BUDGET
    monkeypatch.setattr(matching, "DP_STATE_BUDGET", budget)
    try:
        r = _dp_match(cost, space, reduced, tau)
    except MatchBudgetError as err:
        assert err.incumbent is None
        return b"budget"
    finally:
        monkeypatch.undo()
    return b"none" if r is None else r.tobytes()


def test_dp_outcomes_on_seeded_corpus(monkeypatch):
    # pins which rank the DP returns, tied ones included, and where it
    # returns None or raises; the digest was recorded before the DP's
    # one-position rows became pending shifts and each branching row one
    # broadcast
    import hashlib

    rng = np.random.default_rng(20261020)
    digest = hashlib.sha256()
    for _ in range(1000):
        digest.update(_dp_corpus_outcome(rng, monkeypatch) + b";")
    assert digest.hexdigest() == "e6530d6875c73af38c398948e1fe905f39fba903fea1591915ba7edcd1d3387e"
