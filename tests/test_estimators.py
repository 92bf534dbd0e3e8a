import math

import numpy as np
import pytest

from rankphase import (
    DegenerateFitError,
    InputError,
    InteractionMatrix,
    ModelSpec,
    RankSpace,
    beta_for_snr,
    build_mean_matrix,
    hat_matrix,
    lse_brute_force,
    match_objective,
    ols_fit,
    profile_ls_estimate,
    profile_ls_objective,
    score_adaptive,
    score_collaboration,
    score_comparison,
    space_contains,
)
from rankphase import estimators, matching
from rankphase.matching import feature_match
from rankphase.simulate import generate_gaussian, random_feasible_rank

from conftest import brute_force_pl_min, enumerate_space


class TestScores:
    def test_comparison_zero_matrix(self):
        X = InteractionMatrix(np.zeros((3, 3)))
        np.testing.assert_allclose(score_comparison(X, [1.0, 2.0, 3.0]), [2, 2, 2])

    def test_collaboration_constant_matrix(self):
        X = InteractionMatrix(np.ones((4, 4)))
        np.testing.assert_allclose(score_collaboration(X), 0.5)
        X0 = InteractionMatrix(np.zeros((5, 5)))
        np.testing.assert_allclose(score_collaboration(X0), 0.0)

    def test_comparison_noiseless_identity(self, rng):
        n = 5
        theta = rng.normal(0, 2, n)
        r = np.array([2, 1, 3, 3, 5])
        X = InteractionMatrix(build_mean_matrix(ModelSpec.differential(theta), r))
        s = score_comparison(X, theta)
        delta = theta[r - 1].sum() - theta.sum()
        expected = theta[r - 1] - delta / n
        assert np.max(np.abs(s - expected) / (1 + np.abs(expected))) < 1e-12

    def test_comparison_noiseless_identity_rank(self, rng):
        theta = rng.normal(0, 2, 6)
        X = InteractionMatrix(build_mean_matrix(ModelSpec.differential(theta), np.arange(1, 7)))
        np.testing.assert_allclose(score_comparison(X, theta), theta, rtol=1e-12, atol=1e-12)

    def test_collaboration_noiseless_identity(self, rng):
        n = 5
        theta = rng.normal(0, 2, n)
        r = np.array([1, 2, 2, 4, 5])
        X = InteractionMatrix(build_mean_matrix(ModelSpec.additive(theta), r))
        s = score_collaboration(X)
        np.testing.assert_allclose(s, theta[r - 1], rtol=1e-12, atol=1e-12)

    def test_adaptive_comparison_is_shifted_known_theta_score(self, rng):
        n = 6
        theta = rng.normal(0, 1, n)
        X = InteractionMatrix(rng.normal(0, 1, (n, n)))
        s_known = score_comparison(X, theta)
        s_adap = score_adaptive(X, "comparison")
        np.testing.assert_allclose(s_known - theta.mean(), s_adap, rtol=1e-12, atol=1e-14)

    def test_adaptive_linear_in_position(self):
        n = 5
        m = ModelSpec.parametric("differential", n, alpha=3.0, beta_tilde=2.0)
        X = InteractionMatrix(build_mean_matrix(m, np.arange(1, n + 1)))
        s = score_adaptive(X, "comparison")
        expected = 2.0 * np.arange(1, n + 1) - 2.0 * (n + 1) / 2.0
        np.testing.assert_allclose(s, expected, rtol=1e-12, atol=1e-12)

    def test_adaptive_zero_matrix(self):
        X = InteractionMatrix(np.zeros((4, 4)))
        assert np.all(score_adaptive(X, "comparison") == 0)
        assert np.all(score_adaptive(X, "collaboration") == 0)

    def test_small_n_rejected(self):
        X = InteractionMatrix(np.zeros((2, 2)))
        with pytest.raises(InputError):
            score_collaboration(X)
        with pytest.raises(InputError):
            score_comparison(X, [1.0, 2.0])
        with pytest.raises(InputError):
            score_adaptive(X, "comparison")

    @pytest.mark.parametrize("n", [3, 127, 128, 129, 2001])
    def test_row_block_sums_equal_zero_diagonal_sums(self, n):
        # 3..128 are one row block, 129 and 2001 end in a short one; spread
        # magnitudes make any change in summation order show in the bits
        rng = np.random.default_rng(n)
        X = InteractionMatrix(rng.normal(0, 1, (n, n)) * 10.0 ** rng.uniform(-6, 6, (n, n)))
        v = X.zero_diagonal()
        row, col = estimators._row_col_sums(X)
        assert row.tobytes() == v.sum(axis=1).tobytes()
        assert col.tobytes() == v.sum(axis=0).tobytes()

    def test_unknown_kind(self):
        X = InteractionMatrix(np.zeros((3, 3)))
        with pytest.raises(InputError):
            score_adaptive(X, "product")

    def test_infinite_theta_rejected(self):
        X = InteractionMatrix(np.zeros((4, 4)))
        with pytest.raises(InputError, match="scores must be finite"):
            score_comparison(X, [1.0, 2.0, np.inf, 3.0])

    @pytest.mark.parametrize(
        "score",
        [
            lambda X: score_comparison(X, np.arange(1.0, X.n + 1)),
            score_collaboration,
            lambda X: score_adaptive(X, "comparison"),
            lambda X: score_adaptive(X, "collaboration"),
        ],
        ids=["comparison", "collaboration", "adaptive-comparison", "adaptive-collaboration"],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_rejected(self, score):
        # every entry is finite, but each row sum overflows to inf
        X = InteractionMatrix(np.full((4, 4), 1e308))
        with pytest.raises(InputError, match="scores must be finite"):
            score(X)


class TestOls:
    def test_exact_linear(self):
        r = np.array([1, 2, 3, 4])
        fit = ols_fit(2.0 + 3.0 * r, r)
        assert fit.a_hat == pytest.approx(2.0)
        assert fit.b_hat == pytest.approx(3.0)

    def test_constant_scores(self):
        fit = ols_fit(np.full(4, 7.0), [1, 2, 3, 4])
        assert fit.b_hat == pytest.approx(0.0)
        assert fit.a_hat == pytest.approx(7.0)

    def test_hand_example(self):
        fit = ols_fit([1.0, 2.0, 2.0, 3.0], [1, 2, 3, 4])
        assert fit.b_hat == pytest.approx(0.6)
        assert fit.a_hat == pytest.approx(0.5)

    def test_degenerate(self):
        with pytest.raises(DegenerateFitError):
            ols_fit([1.0, 2.0, 3.0], [2, 2, 2])


class TestHatMatrix:
    def test_algebra(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 30))
            r = rng.integers(1, n + 1, n)
            if np.all(r == r[0]):
                continue
            h = hat_matrix(r)
            ones = np.ones(n)
            assert np.max(np.abs(h - h.T)) <= 1e-10
            assert np.max(np.abs(h @ h - h)) <= 1e-10
            assert np.max(np.abs(h @ ones - ones)) <= 1e-10
            assert np.max(np.abs(h @ r - r)) <= 1e-10 * n
            assert abs(np.trace(h) - 2.0) <= 1e-10

    def test_constant_rank_rejected(self):
        with pytest.raises(DegenerateFitError):
            hat_matrix([3, 3, 3])


class TestProfileObjective:
    def test_exact_linear_is_zero(self):
        r = np.array([1, 2, 3, 4, 5])
        assert profile_ls_objective(1.0 - 0.5 * r, r) == pytest.approx(0.0, abs=1e-25)

    def test_hand_example(self):
        assert profile_ls_objective([1.0, 2.0, 2.0, 3.0], [1, 2, 3, 4]) == pytest.approx(0.2)

    def test_matches_hat_matrix(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 25))
            r = rng.integers(1, n + 1, n)
            if np.all(r == r[0]):
                continue
            s = rng.normal(0, 1, n)
            pl = profile_ls_objective(s, r)
            resid = s - hat_matrix(r) @ s
            assert abs(pl - float(resid @ resid)) <= 1e-9 * (1 + pl)

    def test_shift_invariance(self, rng):
        r = np.array([2, 1, 4, 3, 5])
        s = rng.normal(0, 1, 5)
        assert profile_ls_objective(s + 11.5, r) == pytest.approx(
            profile_ls_objective(s, r), rel=1e-9, abs=1e-12
        )


class TestProfileEstimate:
    def test_requires_restricted_space(self):
        with pytest.raises(InputError):
            profile_ls_estimate(np.arange(4.0), RankSpace(4, 1))

    def test_exact_linear_fixed_point(self):
        n = 6
        space = RankSpace.default_restricted(n)
        r_true = np.array([2, 1, 3, 4, 6, 5])
        scores = 0.7 + 1.3 * r_true
        rank, trace = profile_ls_estimate(scores, space)
        assert list(rank) == list(r_true)
        assert trace.iterations <= 2
        assert trace.converged
        assert trace.objective_path[-1] == pytest.approx(0.0, abs=1e-20)

    def test_path_nonincreasing(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 12))
            space = RankSpace.default_restricted(n)
            scores = rng.normal(0, 1, n)
            _, trace = profile_ls_estimate(scores, space)
            path = trace.objective_path
            assert all(path[i + 1] <= path[i] for i in range(len(path) - 1))

    def test_init_truth_at_high_snr_returns_truth(self, rng):
        n = 50
        target = 3 * math.log(n)
        beta = beta_for_snr(n, target, 1.0)
        model = ModelSpec.parametric("differential", n, alpha=0.0, beta_tilde=beta)
        space = RankSpace.default_restricted(n)
        recovered = 0
        reps = 100
        for rep in range(reps):
            X = generate_gaussian(model, np.arange(1, n + 1), 1.0, 300 + rep)
            s = score_adaptive(X, "comparison")
            rank, _ = profile_ls_estimate(s, space, init=np.arange(1, n + 1))
            recovered += int(np.array_equal(rank, np.arange(1, n + 1)))
        assert recovered >= 0.9 * reps

    def test_infeasible_init_rejected(self):
        space = RankSpace.default_restricted(5)
        with pytest.raises(InputError):
            profile_ls_estimate(np.arange(5.0), space, init=[1, 1, 1, 1, 1])

    def test_matches_global_min_on_separated_instances(self, rng):
        # iterative PL equals the enumerated global optimum on >= 90% of
        # well-separated instances (the iteration itself carries no global
        # guarantee, so 90% is the contract, not 100%)
        n = 5
        space = RankSpace.default_restricted(n)
        hits = 0
        trials = 200
        for t in range(trials):
            target = float(rng.uniform(4.0, 9.0))
            beta = 2.0 * math.sqrt(target / n)
            theta = float(rng.uniform(-2, 2)) + beta * np.arange(1, n + 1)
            r_true = rng.permutation(n) + 1
            scores = theta[r_true - 1] + rng.normal(0, 1.0 / math.sqrt(2 * n), n)
            _, trace = profile_ls_estimate(scores, space)
            pl_iter = trace.objective_path[-1]
            pl_best = brute_force_pl_min(scores, n, space.c_n, space.c_n_sq)
            assert pl_iter >= pl_best - 1e-9 * (1 + pl_best)
            if pl_iter <= pl_best + 1e-9 * (1 + pl_best):
                hits += 1
        assert hits >= 0.9 * trials

    def test_shift_equivariance_of_argmin(self, rng):
        # adding a constant to every score is absorbed by the intercept
        n = 8
        space = RankSpace.default_restricted(n)
        for trial in range(20):
            scores = rng.normal(0, 1, n) + 1.2 * rng.permutation(n)
            r1, _ = profile_ls_estimate(scores, space)
            r2, _ = profile_ls_estimate(scores + 37.5, space)
            assert list(r1) == list(r2)

    def test_negative_slope_is_flagged_and_survives(self):
        n = 6
        space = RankSpace.default_restricted(n)
        scores = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        rank, trace = profile_ls_estimate(scores, space, init=np.arange(1, n + 1))
        assert trace.negative_slope_iters
        assert len(rank) == n

    def test_budget_bounded_step_stalls_at_incumbent(self, monkeypatch):
        # from a profile-LS optimum, a step whose matching outgrows the DP
        # budget falls back to a worse certified incumbent: the run stalls
        n = 30
        space = RankSpace.default_restricted(n)
        scores = np.random.default_rng(0).normal(0.0, 1.0, n)
        start, _ = profile_ls_estimate(scores, space)
        monkeypatch.setattr(matching, "DP_STATE_BUDGET", 50)
        rank, trace = profile_ls_estimate(scores, space, init=start)
        assert trace.stalled and not trace.converged
        assert trace.match_gap > 0.0
        assert space_contains(space, rank)
        path = trace.objective_path
        assert all(path[i + 1] <= path[i] for i in range(len(path) - 1))
        assert list(rank) == list(start)


class TestLseBruteForce:
    def test_noiseless_recovery(self):
        model = ModelSpec.parametric("differential", 5, alpha=0.0, beta_tilde=1.0)
        space = RankSpace.default(5)
        r_true = [2, 1, 3, 4, 5]
        X = generate_gaussian(model, r_true, 0.0, 0)
        assert list(lse_brute_force(X, model, space)) == r_true

    def test_refuses_large_n(self):
        model = ModelSpec.parametric("differential", 7, alpha=0.0, beta_tilde=1.0)
        X = generate_gaussian(model, np.arange(1, 8), 0.0, 0)
        with pytest.raises(InputError):
            lse_brute_force(X, model, RankSpace.default(7))

    def test_feasible_set_size_example(self):
        assert len(enumerate_space(3, 1)) == 19

    def test_total_tie_returns_lexicographic_smallest(self):
        theta = np.zeros(3)
        model = ModelSpec.differential(theta)
        X = InteractionMatrix(np.zeros((3, 3)))
        space = RankSpace(3, 1)
        expected = enumerate_space(3, 1)[0]
        assert list(lse_brute_force(X, model, space)) == list(expected)

    def test_pipelines_match_their_exhaustive_objectives(self, rng):
        # each pipeline's returned objective equals its own enumeration
        # optimum, and both recover the truth on noiseless data
        n = 5
        space = RankSpace.default(n)
        beta = beta_for_snr(n, 6.0, 1.0)
        model = ModelSpec.parametric("differential", n, alpha=0.0, beta_tilde=beta)
        candidates = enumerate_space(n, space.c_n)
        off = ~np.eye(n, dtype=bool)
        for t in range(50):
            r_true = random_feasible_rank(space, 900 + t)
            X = generate_gaussian(model, r_true, 1.0, 1900 + t)
            r_lse = lse_brute_force(X, model, space)

            def lse_objective(r):
                mu = build_mean_matrix(model, r)
                return float(np.sum((X.values[off] - mu[off]) ** 2))

            best = min(lse_objective(r) for r in candidates)
            assert lse_objective(r_lse) == pytest.approx(best, rel=1e-12)

            s = score_comparison(X, model.theta)
            r_fm = feature_match(s, model.theta, space)
            fm_best = min(float(np.sum((s - model.theta[r - 1]) ** 2)) for r in candidates)
            assert match_objective(s, model.theta, r_fm) == pytest.approx(fm_best, rel=1e-12)

        Xn = generate_gaussian(model, [1, 3, 2, 4, 5], 0.0, 1)
        r_lse = lse_brute_force(Xn, model, space)
        s = score_comparison(Xn, model.theta)
        r_fm = feature_match(s, model.theta, space)
        assert list(r_lse) == [1, 3, 2, 4, 5] == list(r_fm)
