import math

import numpy as np
import pytest

from rankphase import (
    InputError,
    ModelSpec,
    PoissonCounts,
    RankSpace,
    bhattacharyya_affinity,
    bhattacharyya_affinity_series,
    build_mean_matrix,
    cell_affinity_series,
    poisson_log_likelihood,
    poisson_mle_brute_force,
    position_mean_table,
    signal_gap,
)
from rankphase import poisson as poisson_module
from rankphase.model import _space_members
from rankphase.simulate import generate_poisson, random_feasible_rank

from conftest import enumerate_space, record_values


class TestPoissonCounts:
    def test_validation(self):
        PoissonCounts(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(InputError):
            PoissonCounts(np.array([[0, -1], [0, 0]]))
        with pytest.raises(InputError):
            PoissonCounts(np.array([[0.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(InputError):
            PoissonCounts(np.zeros((2, 3), dtype=np.int64))

    def test_float_integers_accepted(self):
        x = PoissonCounts(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert x.values.dtype == np.int64


class TestLogLikelihood:
    def test_zero_counts(self):
        X = PoissonCounts(np.zeros((3, 3), dtype=np.int64))
        mu = np.full((3, 3), 2.0)
        assert poisson_log_likelihood(X, mu) == pytest.approx(-12.0)

    def test_single_cell(self):
        X = PoissonCounts(np.array([[0, 2], [0, 0]]))
        mu = np.ones((2, 2))
        assert poisson_log_likelihood(X, mu) == pytest.approx(-2.0 - math.log(2.0))

    def test_ratio_cancels_factorials(self, rng):
        n = 6
        X = PoissonCounts(rng.integers(0, 40, (n, n)))
        mu1 = rng.uniform(1.0, 30.0, (n, n))
        mu2 = rng.uniform(1.0, 30.0, (n, n))
        ll_diff = poisson_log_likelihood(X, mu2) - poisson_log_likelihood(X, mu1)
        off = ~np.eye(n, dtype=bool)
        x = X.values[off].astype(float)
        direct = float(np.sum(x * np.log(mu2[off] / mu1[off])) - np.sum(mu2[off] - mu1[off]))
        assert abs(ll_diff - direct) <= 1e-9 * (1.0 + abs(direct))

    def test_nonpositive_mean_rejected(self):
        X = PoissonCounts(np.zeros((2, 2), dtype=np.int64))
        mu = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(InputError):
            poisson_log_likelihood(X, mu)


class TestMleBruteForce:
    def test_high_signal_recovery(self):
        n = 5
        beta = math.sqrt(3 * math.log(n) / n)
        model = ModelSpec.poisson_sqrt_linear(n, alpha=beta * n * n, beta_tilde=beta)
        space = RankSpace.default(n)
        recovered = 0
        reps = 30
        for rep in range(reps):
            counts = generate_poisson(model, np.arange(1, n + 1), 4000 + rep)
            r_hat = poisson_mle_brute_force(counts, model, space)
            recovered += int(np.array_equal(r_hat, np.arange(1, n + 1)))
        assert recovered >= 0.8 * reps

    def test_total_tie_lexicographic(self):
        model = ModelSpec.poisson_sqrt_linear(3, alpha=5.0, beta_tilde=0.0)
        counts = generate_poisson(model, [1, 2, 3], 7)
        space = RankSpace(3, 1)
        expected = enumerate_space(3, 1)[0]
        assert list(poisson_mle_brute_force(counts, model, space)) == list(expected)

    def test_refuses_large_n(self):
        model = ModelSpec.poisson_sqrt_linear(7, alpha=50.0, beta_tilde=1.0)
        counts = generate_poisson(model, np.arange(1, 8), 1)
        with pytest.raises(InputError):
            poisson_mle_brute_force(counts, model, RankSpace.default(7))


    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_pair_index_values_keep_their_bits(self, monkeypatch, n, restricted):
        # oracle: the (k, n, n) gather of the position tables at every
        # candidate's pairs, with the diagonal masked out afterwards
        space = RankSpace.default_restricted(n) if restricted else RankSpace.default(n)
        blocks = record_values(monkeypatch, poisson_module)
        block = _space_members(space) - 1
        off = ~np.eye(n, dtype=bool)
        rng = np.random.default_rng(400 + n)
        for seed in range(3):
            model = ModelSpec.poisson_sqrt_linear(
                n, alpha=float(rng.uniform(0.05, 0.5)), beta_tilde=float(rng.uniform(0.0, 0.4))
            )
            drawn = generate_poisson(model, random_feasible_rank(space, seed), seed).values
            zero = rng.random((n, n)) < 0.3
            zero[0, 1] = True
            counts = PoissonCounts(np.where(zero, 0, drawn))
            assert np.any(counts.values[off] == 0) and np.any(counts.values[off] > 0)
            blocks.clear()
            poisson_mle_brute_force(counts, model, space)
            pos_mu = position_mean_table(model)
            log_pos = np.log(pos_mu)
            x = counts.values.astype(np.float64)
            mu = pos_mu[block[:, :, None], block[:, None, :]]
            lmu = log_pos[block[:, :, None], block[:, None, :]]
            expected = -np.sum((x[None, :, :] * lmu - mu) * off[None, :, :], axis=(1, 2))
            assert np.concatenate(blocks).tobytes() == expected.tobytes()


class TestBhattacharyya:
    def test_equal_means_give_one(self):
        mu = np.full((3, 3), 4.0)
        assert bhattacharyya_affinity(mu, mu) == pytest.approx(1.0)

    def test_single_cell_example(self):
        assert cell_affinity_series(1.0, 4.0) == pytest.approx(math.exp(-0.5), abs=1e-10)

    def test_symmetry(self, rng):
        a = rng.uniform(0.5, 20.0, (3, 3))
        b = rng.uniform(0.5, 20.0, (3, 3))
        assert bhattacharyya_affinity(a, b) == pytest.approx(
            bhattacharyya_affinity(b, a), rel=1e-14
        )

    def test_range_and_strictness(self, rng):
        a = rng.uniform(1.0, 10.0, (3, 3))
        b = a * 1.2
        val = bhattacharyya_affinity(a, b)
        assert 0.0 < val < 1.0

    def test_series_matches_closed_form(self, rng):
        for _ in range(60):
            mu1 = float(np.exp(rng.uniform(math.log(0.1), math.log(1e4))))
            mu2 = mu1 * float(np.exp(rng.uniform(-0.5, 0.5)))
            mu2 = min(max(mu2, 0.1), 1e4)
            closed = math.exp(-0.5 * (math.sqrt(mu1) - math.sqrt(mu2)) ** 2)
            assert abs(cell_affinity_series(mu1, mu2) - closed) <= 1e-8

    def test_matrix_series_path(self, rng):
        a = rng.uniform(2.0, 30.0, (4, 4))
        b = a * rng.uniform(0.85, 1.2, (4, 4))
        closed = bhattacharyya_affinity(a, b)
        series = bhattacharyya_affinity_series(a, b)
        assert abs(closed - series) <= 1e-8

    def test_positive_means_required(self):
        good = np.ones((2, 2))
        bad = np.array([[1.0, -1.0], [1.0, 1.0]])
        with pytest.raises(InputError):
            bhattacharyya_affinity(good, bad)
        with pytest.raises(InputError):
            cell_affinity_series(0.0, 1.0)


def test_chernoff_bound_monte_carlo(rng):
    # frequency of the likelihood flip {LL(r~) >= LL(r)} stays below the
    # Bhattacharyya bound plus three binomial standard errors
    n = 5
    beta = math.sqrt(3 * math.log(n) / n)
    model = ModelSpec.poisson_sqrt_linear(n, alpha=beta * n * n, beta_tilde=beta)
    space = RankSpace.default(n)
    draws = 200
    for pair_idx in range(10):
        r = random_feasible_rank(space, 7000 + pair_idx)
        r_tilde = random_feasible_rank(space, 8000 + pair_idx)
        if np.array_equal(r, r_tilde):
            continue
        mu_r = build_mean_matrix(model, r)
        mu_t = build_mean_matrix(model, r_tilde)
        bound = math.exp(-0.5 * signal_gap(model, r, r_tilde))
        flips = 0
        for d in range(draws):
            counts = generate_poisson(model, r, 9000 + 100 * pair_idx + d)
            ll_r = poisson_log_likelihood(counts, mu_r)
            ll_t = poisson_log_likelihood(counts, mu_t)
            flips += int(ll_t >= ll_r)
        se = math.sqrt(max(bound * (1 - bound), 1.0 / draws) / draws)
        assert flips / draws <= bound + 3.0 * se
