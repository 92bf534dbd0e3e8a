import hashlib
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rankphase import (
    ConfigError,
    ExperimentConfig,
    InputError,
    ModelSpec,
    RankSpace,
    ResultRow,
    beta_for_snr,
    build_mean_matrix,
    classify_regime,
    derive_seed,
    fit_regimes,
    generate_gaussian,
    generate_poisson,
    random_feasible_rank,
    resolve_workers,
    run_experiment,
    snr,
    space_contains,
    summarize_grid,
)
import rankphase.simulate as simulate_module
from rankphase import matching
from rankphase.cli import rows_to_csv
from rankphase.matching import feature_match
from rankphase.model import _row_blocks
from rankphase.simulate import THREADS_ENV_VAR


class TestSeeds:
    def test_derive_seed_is_stable(self):
        # pinned values freeze the hash; a change here breaks every archived
        # result file
        assert derive_seed(0) == derive_seed(0)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(-5, 0) == derive_seed(-5, 0)

    def test_distinct_indices_distinct_seeds(self):
        seeds = {derive_seed(7, g, r, t) for g in range(4) for r in range(8) for t in range(2)}
        assert len(seeds) == 4 * 8 * 2


class TestGenerators:
    def test_sigma_zero_shortcut(self):
        m = ModelSpec.parametric("differential", 5, alpha=0.0, beta_tilde=1.0)
        X = generate_gaussian(m, [1, 2, 3, 4, 5], 0.0, 123)
        off = ~np.eye(5, dtype=bool)
        mu = m.theta[:, None] - m.theta[None, :]
        np.testing.assert_array_equal(X.values[off], mu[off])

    def test_fixed_seed_bit_identical(self):
        m = ModelSpec.parametric("differential", 8, alpha=0.0, beta_tilde=1.0)
        a = generate_gaussian(m, np.arange(1, 9), 1.0, 99)
        b = generate_gaussian(m, np.arange(1, 9), 1.0, 99)
        off = ~np.eye(8, dtype=bool)
        np.testing.assert_array_equal(a.values[off], b.values[off])

    # n = 50 and 128 are one row block, 129 and 300 end in a short block,
    # 256 and 512 are exact multiples of the block height
    @pytest.mark.parametrize(
        "n, blocks", [(50, 1), (128, 1), (129, 2), (256, 4), (300, 6), (512, 16)]
    )
    @pytest.mark.parametrize("kind", ["differential", "additive"])
    def test_row_blocks_equal_one_dense_draw(self, n, blocks, kind):
        assert len(_row_blocks(n)) == blocks
        rng = np.random.default_rng(n)
        model = ModelSpec(kind=kind, theta=rng.normal(0.0, 2.0, n))
        for r in (np.arange(1, n + 1), rng.permutation(n) + 1):
            for sigma, seed in ((1.0, 7), (0.37, 11), (2.5, 13)):
                got = generate_gaussian(model, r, sigma, seed).values.copy()
                noise = np.random.default_rng(seed).normal(0.0, sigma, (n, n))
                want = build_mean_matrix(model, r) + noise
                assert np.isnan(np.diag(got)).all() and np.isnan(np.diag(want)).all()
                np.fill_diagonal(got, 0.0)
                np.fill_diagonal(want, 0.0)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [50, 300])
    @pytest.mark.parametrize("sigma", [0.0, 1.3])
    def test_generated_matrix_read_only_with_nan_diagonal(self, n, sigma):
        model = ModelSpec.parametric("additive", n, alpha=0.5, beta_tilde=0.2)
        X = generate_gaussian(model, np.arange(1, n + 1), sigma, 3)
        assert not X.values.flags.writeable
        assert np.isnan(np.diag(X.values)).all()
        assert np.isfinite(X.values[~np.eye(n, dtype=bool)]).all()

    @pytest.mark.parametrize("n", [20, 300])
    def test_non_finite_entry_rejected(self, n):
        model = ModelSpec.parametric("differential", n, alpha=0.0, beta_tilde=1.0)
        with np.errstate(over="ignore"), pytest.raises(InputError, match="off-diagonal"):
            generate_gaussian(model, np.arange(1, n + 1), 1e308, 5)
        huge = ModelSpec.additive(np.full(n, 1e308))
        with np.errstate(over="ignore"), pytest.raises(InputError, match="off-diagonal"):
            generate_gaussian(huge, np.arange(1, n + 1), 0.0, 5)

    def test_noise_variance(self):
        n = 200
        m = ModelSpec.parametric("differential", n, alpha=0.0, beta_tilde=0.5)
        sigma = 1.7
        X = generate_gaussian(m, np.arange(1, n + 1), sigma, 4)
        off = ~np.eye(n, dtype=bool)
        mu = m.theta[:, None] - m.theta[None, :]
        z = X.values[off] - mu[off]
        assert abs(np.var(z) - sigma**2) <= 0.05 * sigma**2

    def test_small_sigma_matches_zero_sigma_rank(self):
        n = 20
        m = ModelSpec.parametric("differential", n, alpha=0.0, beta_tilde=1.0)
        space = RankSpace.default(n)
        from rankphase import score_comparison

        X0 = generate_gaussian(m, np.arange(1, n + 1), 0.0, 5)
        Xe = generate_gaussian(m, np.arange(1, n + 1), 1e-8, 5)
        r0 = feature_match(score_comparison(X0, m.theta), m.theta, space)
        re = feature_match(score_comparison(Xe, m.theta), m.theta, space)
        assert list(r0) == list(re)

    def test_poisson_cell_mean(self):
        m = ModelSpec.poisson_sqrt_linear(4, alpha=3.0, beta_tilde=0.5)
        mu01 = (2 * 3.0 + 0.5 * (1 + 2)) ** 2
        draws = np.array(
            [generate_poisson(m, [1, 2, 3, 4], s).values[0, 1] for s in range(400)]
        )
        se = math.sqrt(mu01 / draws.size)
        assert abs(draws.mean() - mu01) <= 3 * se

    def test_poisson_determinism(self):
        m = ModelSpec.poisson_sqrt_linear(4, alpha=3.0, beta_tilde=0.5)
        a = generate_poisson(m, [1, 2, 3, 4], 11).values
        b = generate_poisson(m, [1, 2, 3, 4], 11).values
        np.testing.assert_array_equal(a, b)

    def test_poisson_flat_signal_means_equal(self):
        m = ModelSpec.poisson_sqrt_linear(4, alpha=3.0, beta_tilde=0.0)
        from rankphase import position_mean_table

        table = position_mean_table(m)
        assert np.allclose(table, table[0, 0])


class TestRandomFeasibleRank:
    def test_always_in_space(self):
        for seed in range(100):
            space = RankSpace.default_restricted(11)
            assert space_contains(space, random_feasible_rank(space, seed))
            base = RankSpace.default(11)
            assert space_contains(base, random_feasible_rank(base, seed))

    def test_matches_move_at_a_time_draws(self):
        # reference: each move draws its coordinate, then its direction
        def reference(space, seed):
            n = space.n
            rng = np.random.default_rng(seed)
            r = (rng.permutation(n) + 1).astype(np.int64)
            dev1 = dev2 = 0
            for _ in range(2 * n):
                i = int(rng.integers(0, n))
                d = 1 if int(rng.integers(0, 2)) else -1
                cand = r[i] + d
                ndev1 = dev1 + d
                ndev2 = dev2 + 2 * int(r[i]) * d + 1
                if not 1 <= cand <= n or abs(ndev1) > space.c_n:
                    continue
                if space.c_n_sq is not None and abs(ndev2) > space.c_n_sq:
                    continue
                r[i] = cand
                dev1, dev2 = ndev1, ndev2
            return r

        for n in (2, 3, 7, 11, 30):
            spaces = (RankSpace.default(n), RankSpace.default_restricted(n), RankSpace(n, 1, 0))
            for space in spaces:
                for seed in range(40):
                    expected = reference(space, seed)
                    assert list(random_feasible_rank(space, seed)) == list(expected)

    def test_tie_fraction(self):
        space = RankSpace.default(10)
        ties = 0
        for seed in range(1000):
            r = random_feasible_rank(space, seed)
            ties += int(len(set(r.tolist())) < 10)
        assert ties >= 100


class TestConfigValidation:
    def base(self, **kw):
        args = dict(
            model="differential",
            n=20,
            snr_grid=(1.0,),
            reps=1,
            master_seed=0,
            estimator="feature_match_oracle_theta",
        )
        args.update(kw)
        return ExperimentConfig(**args)

    def test_ok(self):
        self.base()

    def test_bad_estimator_model_combo(self):
        with pytest.raises(ConfigError):
            self.base(model="poisson_sqrt_linear", n=5, estimator="feature_match_oracle_theta")

    def test_brute_force_needs_small_n(self):
        with pytest.raises(ConfigError):
            self.base(estimator="brute_force", n=7)

    def test_snr_positive(self):
        with pytest.raises(ConfigError):
            self.base(snr_grid=(0.0,))

    def test_sigma_zero_needs_beta_grid(self):
        with pytest.raises(ConfigError):
            self.base(sigma=0.0)
        self.base(sigma=0.0, snr_grid=(math.inf,), beta_grid=(1.0,))

    def test_q_range(self):
        with pytest.raises(ConfigError):
            self.base(q_list=(0.0, 3.0))

    def test_grid_values_distinct(self):
        # results.csv keys a grid point by (snr, beta); a repeated value
        # would merge two points when the results are read back
        with pytest.raises(ConfigError, match="field 'snr_grid'"):
            self.base(snr_grid=(1.0, 1.0, 4.0))
        with pytest.raises(ConfigError, match="field 'beta_grid'"):
            self.base(sigma=0.0, snr_grid=(math.inf,) * 2, beta_grid=(0.5, 0.5))
        self.base(sigma=0.0, snr_grid=(math.inf,) * 2, beta_grid=(0.5, 1.0))

    def test_from_dict_unknown_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict(
                dict(model="differential", n=5, snr_grid=[1.0], reps=1, master_seed=0,
                     estimator="brute_force", bogus=1)
            )

    def test_from_dict_both_grids(self):
        with pytest.raises(ConfigError, match="beta_grid"):
            ExperimentConfig.from_dict(
                dict(model="differential", n=5, snr_grid=[1.0], beta_grid=[1.0], reps=1,
                     master_seed=0, estimator="brute_force")
            )

    def test_from_dict_beta_grid(self):
        cfg = ExperimentConfig.from_dict(
            dict(model="differential", n=10, beta_grid=[0.5], reps=1, master_seed=0,
                 estimator="feature_match_oracle_theta", sigma=1.0)
        )
        assert cfg.snr_grid[0] == pytest.approx(10 * 0.25 / 4.0)

    def test_from_dict_beta_grid_edges(self):
        base = dict(model="differential", beta_grid=[0.5], reps=1, master_seed=0,
                    estimator="feature_match_oracle_theta")
        cfg = ExperimentConfig.from_dict(dict(base, n=10, sigma=0.0))
        assert cfg.snr_grid == (math.inf,)
        for n in (2, 1, 0):
            with pytest.raises(ConfigError, match="field 'n'"):
                ExperimentConfig.from_dict(dict(base, n=n))
        with pytest.raises(ConfigError, match="field 'sigma'"):
            ExperimentConfig.from_dict(dict(base, n=10, sigma=-1.0))

    @pytest.mark.parametrize("model, sd", [("differential", 1.3), ("additive", 1.3), ("poisson", 0.5)])
    def test_snr_conversion_is_the_model_functions(self, model, sd):
        # Poisson SNR n*beta^2 is the model's n*beta^2/(4 sigma^2) at sigma = 1/2
        n, snrs, betas = 6, (1e-4, 0.37, 2.0, 13.82), (0.01, 0.4, 2.5)
        base = dict(model=model, n=n, sigma=1.3, reps=1, master_seed=0, estimator="brute_force")
        cfg = ExperimentConfig.from_dict(dict(base, snr_grid=list(snrs)))
        for g, s in enumerate(snrs):
            assert cfg.beta_at(g) == beta_for_snr(n, s, sd)
            if model == "poisson":
                assert cfg.beta_at(g) == math.sqrt(s / n)
        cfg = ExperimentConfig.from_dict(dict(base, beta_grid=list(betas)))
        assert cfg.snr_grid == tuple(snr(n, b, sd) for b in betas)
        if model == "poisson":
            assert cfg.snr_grid == tuple(n * b * b for b in betas)


class TestRunExperiment:
    def test_noiseless_rows_all_zero(self):
        cfg = ExperimentConfig(
            model="differential",
            n=12,
            snr_grid=(math.inf,),
            beta_grid=(1.0,),
            sigma=0.0,
            reps=1,
            master_seed=3,
            estimator="feature_match_oracle_theta",
        )
        rows = run_experiment(cfg, workers=1)
        assert len(rows) == 1
        assert all(v == 0.0 for v in rows[0].losses)
        assert rows[0].exact_recovery

    def test_deterministic_across_workers(self):
        cfg = ExperimentConfig(
            model="additive",
            n=15,
            snr_grid=(0.5, 2.0),
            reps=4,
            master_seed=42,
            estimator="feature_match_oracle_theta",
        )
        rows1 = run_experiment(cfg, workers=1)
        rows8 = run_experiment(cfg, workers=8)
        for a, b in zip(rows1, rows8):
            assert a.losses == b.losses
            assert a.seed == b.seed
            assert a.rep == b.rep and a.grid_index == b.grid_index

    def test_row_invariants(self):
        cfg = ExperimentConfig(
            model="differential",
            n=15,
            snr_grid=(0.2, 4.0),
            reps=5,
            master_seed=9,
            estimator="profile_ls_adaptive",
            true_rank="random_feasible",
        )
        rows = run_experiment(cfg, workers=2)
        assert len(rows) == 10
        for row in rows:
            l0 = row.loss_for(0.0)
            assert 0.0 <= l0 <= 1.0
            assert row.loss_for(2.0) <= (row.n - 1) ** 2
            assert row.exact_recovery == (l0 == 0.0)

    def test_one_matrix_per_replication(self):
        # generation hands its array over and the comparison score sums it by
        # row blocks, so the traced peak is one n x n float64 array plus
        # blocks; it was about twice that when both copied the matrix
        n = 1000
        cfg = ExperimentConfig(
            model="differential",
            n=n,
            snr_grid=(1e-3,),
            reps=1,
            master_seed=8,
            estimator="feature_match_oracle_theta",
        )
        simulate_module._run_single(cfg, 0, 0)
        tracemalloc.start()
        try:
            simulate_module._run_single(cfg, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * n * n * 8

    @pytest.mark.parametrize("model", ["differential", "additive"])
    def test_profile_band_peak_memory(self, monkeypatch, model):
        # at SNR 1e-2 the restricted band match runs: it overwrites the cost
        # table and computes its DP moves, so the traced peak is about four
        # n x n float64 arrays (X, the costs, the bound's two tables); it was
        # about eight when each stage kept its own tables
        n = 400
        cfg = ExperimentConfig(
            model=model,
            n=n,
            snr_grid=(1e-2,),
            reps=1,
            master_seed=20260810,
            estimator="profile_ls_adaptive",
        )
        simulate_module._run_single(cfg, 0, 0)
        calls = []
        band_match = matching._band_match

        def counted(*args):
            calls.append(1)
            return band_match(*args)

        monkeypatch.setattr(matching, "_band_match", counted)
        tracemalloc.start()
        try:
            simulate_module._run_single(cfg, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls
        assert peak < 5 * n * n * 8

    def test_poisson_brute_force_grid(self):
        cfg = ExperimentConfig(
            model="poisson_sqrt_linear",
            n=5,
            snr_grid=(3 * math.log(5),),
            reps=5,
            master_seed=1,
            estimator="brute_force",
        )
        rows = run_experiment(cfg, workers=2)
        assert np.mean([r.exact_recovery for r in rows]) >= 0.8


class TestRegimes:
    def test_classification_thresholds(self):
        n = 100
        assert classify_regime(0.5 * n**-2, n) == "trivial"
        assert classify_regime(n**-2, n) == "polynomial"
        assert classify_regime(1.0, n) == "polynomial"
        assert classify_regime(1.01, n) == "exponential"
        assert classify_regime(math.log(n), n) == "exponential"
        assert classify_regime(math.log(n) + 0.01, n) == "exact"

    def _fabricated(self, snr_to_mean, n=100, reps=3):
        rows = []
        for g, (snr, mean) in enumerate(snr_to_mean):
            for rep in range(reps):
                rows.append(
                    ResultRow(
                        model="differential",
                        n=n,
                        snr=snr,
                        beta=0.1,
                        sigma=1.0,
                        estimator="feature_match_oracle_theta",
                        rep=rep,
                        seed=g * 10 + rep,
                        q_list=(1.0, 2.0),
                        losses=(math.sqrt(mean), mean),
                        exact_recovery=mean == 0.0,
                        iterations=0,
                        wall_time_ms=0.0,
                        grid_index=g,
                    )
                )
        return rows

    def test_exponential_slope_on_fabricated_rows(self):
        snrs = (1.5, 2.5, 3.5, 4.5)
        rows = self._fabricated([(s, math.exp(-s)) for s in snrs])
        report = fit_regimes(rows)
        fit = report.fit_for("exponential", 2.0)
        assert fit is not None
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0)

    def test_polynomial_slope_on_fabricated_rows(self):
        snrs = (0.01, 0.05, 0.2, 0.9)
        rows = self._fabricated([(s, 1.0 / s) for s in snrs])
        report = fit_regimes(rows)
        fit = report.fit_for("polynomial", 2.0)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_insufficient_points_reported_as_gap(self):
        rows = self._fabricated([(2.0, 0.1), (3.0, 0.01)])
        report = fit_regimes(rows)
        assert report.fit_for("exponential", 2.0) is None
        assert any("exponential" in g for g in report.gaps)

    def test_summarize_means_and_recovery(self):
        rows = self._fabricated([(20.0, 0.0)])
        summary = summarize_grid(rows)
        assert summary[0].recovery_rate == 1.0
        assert summary[0].regime == "exact"
        assert summary[0].mean_loss[2.0] == 0.0


class TestWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert resolve_workers() == 3

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "zero")
        with pytest.raises(ConfigError):
            resolve_workers()
        monkeypatch.setenv(THREADS_ENV_VAR, "0")
        with pytest.raises(ConfigError):
            resolve_workers()

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert resolve_workers() >= 1

    def test_default_counts_cpus_in_affinity_mask(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert resolve_workers() == 1

    def test_default_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_workers() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers() == 1

    @pytest.fixture
    def pools(self, monkeypatch):
        """max_workers of each pool run_experiment builds, with 4 usable CPUs."""
        built = []
        futures = simulate_module.concurrent.futures

        class Recording(futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                built.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        return built

    @staticmethod
    def _config(estimator, n, model="differential", snr_grid=(4.0,)):
        return ExperimentConfig(
            model=model, n=n, snr_grid=snr_grid, reps=2, master_seed=11, estimator=estimator
        )

    @pytest.mark.parametrize("n", [100, 128])
    @pytest.mark.parametrize("estimator", ["feature_match_oracle_theta", "profile_ls_adaptive"])
    def test_default_one_worker_within_one_row_block(self, pools, estimator, n):
        assert len(run_experiment(self._config(estimator, n))) == 2
        assert pools == []

    def test_default_pool_past_one_row_block(self, pools):
        run_experiment(self._config("feature_match_oracle_theta", 129))
        assert pools == [2]  # 4 CPUs, capped at the 2 tasks

    @pytest.mark.parametrize("model", ["differential", "poisson_sqrt_linear"])
    def test_default_pool_when_enumerating(self, pools, model):
        run_experiment(self._config("brute_force", 6, model=model))
        assert pools == [2]

    def test_env_var_wins_within_one_row_block(self, pools, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        run_experiment(self._config("feature_match_oracle_theta", 100))
        assert pools == [2]

    @pytest.mark.parametrize("raw", ["0", "zero"])
    def test_env_var_validated_within_one_row_block(self, pools, monkeypatch, raw):
        monkeypatch.setenv(THREADS_ENV_VAR, raw)
        with pytest.raises(ConfigError):
            run_experiment(self._config("feature_match_oracle_theta", 100))

    def test_explicit_workers_capped_at_task_count(self, pools):
        run_experiment(self._config("feature_match_oracle_theta", 20), workers=8)
        assert pools == [2]

    def test_csv_identical_at_any_worker_count(self, pools):
        cfg = self._config("profile_ls_adaptive", 100, snr_grid=(0.5, 4.0))
        default = rows_to_csv(run_experiment(cfg))
        assert rows_to_csv(run_experiment(cfg, workers=1)) == default
        assert rows_to_csv(run_experiment(cfg, workers=4)) == default
        assert pools == [4]


class TestPinnedDigests:
    # sha256 of each results CSV as written before the closed-form nearest
    # position and the row-block sums: additive oracle theta at n = 300
    # (collaboration score, closed form, sum repair) and differential profile
    # LS at n = 200 (adaptive score, closed form, band)
    PINS = {
        "pin_additive_n300.json": "6215fc38cd50367ca5d736e7730970f58517c97aaf4b26831525307fe9ad8d99",
        "pin_profile_n200.json": "96b1e393c57eec4647c6d51617a986dd852209e02d3e4cddac1c5010f8f41808",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(PINS))
    def test_results_csv_at_pinned_digest(self, name, workers):
        path = Path(__file__).resolve().parent.parent / "configs" / name
        cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
        csv = rows_to_csv(run_experiment(cfg, workers=workers))
        assert hashlib.sha256(csv.encode()).hexdigest() == self.PINS[name]
