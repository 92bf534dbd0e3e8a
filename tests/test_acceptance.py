"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live) and asserts the criterion at its stated tolerance, including the
runtime budget.
"""

import itertools
import math
import os
import time

import numpy as np

from rankphase import (
    ExperimentConfig,
    ModelSpec,
    RankSpace,
    build_mean_matrix,
    generate_poisson,
    match_objective,
    poisson_log_likelihood,
    run_experiment,
    run_identity_suite,
    signal_gap,
    space_contains,
)
from rankphase.cli import main as cli_main
from rankphase.matching import feature_match
from rankphase.simulate import derive_seed, random_feasible_rank


def _report(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} {status}: {detail} ({elapsed:.1f} s)")


def _slope(x, y):
    return float(np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)[0])


def _mean_losses(rows, q):
    by_grid = {}
    for r in rows:
        by_grid.setdefault(r.grid_index, []).append(r.loss_for(q))
    return {g: np.array(v) for g, v in by_grid.items()}


def _monotone_up_to_noise(means, k):
    # mean loss nonincreasing along the SNR grid up to 3x the Monte Carlo
    # relative standard error
    for g in range(k - 1):
        a, b = means[g], means[g + 1]
        rel_se = max(a.std(ddof=1) / math.sqrt(a.size) / a.mean(),
                     b.std(ddof=1) / math.sqrt(b.size) / b.mean())
        if b.mean() > a.mean() * (1.0 + 3.0 * rel_se):
            return False
    return True


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    results = run_identity_suite()
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    ok = not failed and elapsed < 30.0
    _report(1, ok, f"{len(results) - len(failed)}/{len(results)} identities, "
                   f"runtime {elapsed:.1f}s < 30s", elapsed)
    assert failed == []
    assert elapsed < 30.0


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    total = match = 0
    for n in (4, 5, 6):
        grid = np.array(list(itertools.product(range(1, n + 1), repeat=n)), dtype=np.int64)
        sums = grid.sum(axis=1)
        sqsums = (grid**2).sum(axis=1)
        id_sum = n * (n + 1) // 2
        id_sq = n * (n + 1) * (2 * n + 1) // 6
        for restricted in (False, True):
            for idx in range(200):
                rng = np.random.default_rng(derive_seed(2026, n, int(restricted), idx))
                c = int(rng.integers(1, 4))
                csq = int(rng.integers(n, 2 * n * n)) if restricted else None
                space = RankSpace(n, c, csq)
                if idx % 2:
                    theta = float(rng.uniform(-2, 2)) + float(rng.uniform(0.3, 2.0)) * np.arange(1, n + 1)
                else:
                    theta = rng.normal(0, 2, n)
                scores = rng.normal(0, 2, n)
                r_hat = feature_match(scores, theta, space)
                assert space_contains(space, r_hat)
                keep = np.abs(sums - id_sum) <= c
                if csq is not None:
                    keep &= np.abs(sqsums - id_sq) <= csq
                cand = grid[keep]
                resid = scores[None, :] - theta[cand - 1]
                best = float(np.min(np.sum(resid * resid, axis=1)))
                total += 1
                match += int(match_objective(scores, theta, r_hat) == best)
    elapsed = time.perf_counter() - t0
    ok = match == total and elapsed < 60.0
    _report(2, ok, f"feature_match exact on {match}/{total} instances "
                   f"(n in 4..6, both spaces), runtime {elapsed:.1f}s < 60s", elapsed)
    assert match == total
    assert elapsed < 60.0


def test_criterion_3_exponential_regime():
    t0 = time.perf_counter()
    snrs = (2.0, 3.0, 4.0, 5.0, 6.0)
    cfg = ExperimentConfig(
        model="differential", n=100, sigma=1.0, snr_grid=snrs, reps=300,
        master_seed=33001, estimator="feature_match_oracle_theta",
    )
    rows = run_experiment(cfg)
    means = _mean_losses(rows, 2.0)
    mean_vals = [means[g].mean() for g in range(len(snrs))]
    assert all(m > 0 for m in mean_vals), "a zero mean leaves the log fit undefined"
    slope = _slope(snrs, np.log(mean_vals))
    monotone = _monotone_up_to_noise(means, len(snrs))
    elapsed = time.perf_counter() - t0
    ok = -1.6 <= slope <= -0.6 and monotone and elapsed < 600.0
    _report(3, ok, f"log(mean l2) vs SNR slope {slope:.3f} in [-1.6, -0.6], "
                   f"monotone={monotone}", elapsed)
    assert -1.6 <= slope <= -0.6
    assert monotone
    assert elapsed < 600.0


def test_criterion_4_polynomial_regime():
    t0 = time.perf_counter()
    snrs = (0.02, 0.05, 0.1, 0.2, 0.5)
    cfg = ExperimentConfig(
        model="differential", n=200, sigma=1.0, snr_grid=snrs, reps=200,
        master_seed=44001, estimator="feature_match_oracle_theta",
    )
    rows = run_experiment(cfg)
    means2 = _mean_losses(rows, 2.0)
    means1 = _mean_losses(rows, 1.0)
    m2 = [means2[g].mean() for g in range(len(snrs))]
    m1 = [means1[g].mean() for g in range(len(snrs))]
    slope2 = _slope(np.log(snrs), np.log(m2))
    slope1 = _slope(np.log(snrs), np.log(m1))
    monotone = _monotone_up_to_noise(means2, len(snrs))
    elapsed = time.perf_counter() - t0
    ok = -1.4 <= slope2 <= -0.6 and -0.8 <= slope1 <= -0.25 and monotone and elapsed < 600.0
    _report(4, ok, f"log-log slopes l2 {slope2:.3f} in [-1.4, -0.6], "
                   f"l1 {slope1:.3f} in [-0.8, -0.25], monotone={monotone}", elapsed)
    assert -1.4 <= slope2 <= -0.6
    assert -0.8 <= slope1 <= -0.25
    assert monotone
    assert elapsed < 600.0


def test_criterion_5_exact_recovery_transition():
    t0 = time.perf_counter()
    n = 100
    hi, lo = 3 * math.log(n), 0.5 * math.log(n)
    rates = {}
    for estimator in ("feature_match_oracle_theta", "profile_ls_adaptive"):
        cfg = ExperimentConfig(
            model="differential", n=n, sigma=1.0, snr_grid=(hi, lo), reps=100,
            master_seed=55001, estimator=estimator,
        )
        rows = run_experiment(cfg)
        rec = {g: np.mean([r.exact_recovery for r in rows if r.grid_index == g]) for g in (0, 1)}
        rates[estimator] = (float(rec[0]), float(rec[1]))
    elapsed = time.perf_counter() - t0
    ok = all(hi_rate >= 0.9 and lo_rate <= 0.5 for hi_rate, lo_rate in rates.values())
    detail = ", ".join(
        f"{est}: {r[0]:.2f} at 3log(n) (>=0.9), {r[1]:.2f} at 0.5log(n) (<=0.5)"
        for est, r in rates.items()
    )
    _report(5, ok and elapsed < 300.0, detail, elapsed)
    for hi_rate, lo_rate in rates.values():
        assert hi_rate >= 0.9
        assert lo_rate <= 0.5
    assert elapsed < 300.0


def test_criterion_6_trivial_regime():
    t0 = time.perf_counter()
    n = 100
    cfg = ExperimentConfig(
        model="differential", n=n, sigma=1.0, snr_grid=(0.1 * n**-2,), reps=100,
        master_seed=66001, estimator="feature_match_oracle_theta",
    )
    rows = run_experiment(cfg)
    mean_l2 = float(np.mean([r.loss_for(2.0) for r in rows]))
    elapsed = time.perf_counter() - t0
    ok = mean_l2 >= 0.01 * n * n and elapsed < 120.0
    _report(6, ok, f"mean l2 {mean_l2:.1f} >= {0.01 * n * n:.0f} at SNR 0.1/n^2", elapsed)
    assert mean_l2 >= 0.01 * n * n
    assert elapsed < 120.0


def test_criterion_7_poisson_mle():
    t0 = time.perf_counter()
    n = 5
    target = 3 * math.log(n)
    cfg = ExperimentConfig(
        model="poisson_sqrt_linear", n=n, snr_grid=(target,), reps=100,
        master_seed=77001, estimator="brute_force",
    )
    rows = run_experiment(cfg)
    recovery = float(np.mean([r.exact_recovery for r in rows]))

    # one-sided Chernoff bound check on 20 random rank pairs
    beta = math.sqrt(target / n)
    model = ModelSpec.poisson_sqrt_linear(n, alpha=beta * n * n, beta_tilde=beta)
    space = RankSpace.default(n)
    draws = 200
    bound_ok = True
    checked = 0
    pair_idx = 0
    while checked < 20:
        r = random_feasible_rank(space, derive_seed(77002, pair_idx, 0))
        r_tilde = random_feasible_rank(space, derive_seed(77002, pair_idx, 1))
        pair_idx += 1
        if np.array_equal(r, r_tilde):
            continue
        checked += 1
        mu_r = build_mean_matrix(model, r)
        mu_t = build_mean_matrix(model, r_tilde)
        bound = math.exp(-0.5 * signal_gap(model, r, r_tilde))
        flips = 0
        for d in range(draws):
            counts = generate_poisson(model, r, derive_seed(77003, pair_idx, d))
            flips += int(
                poisson_log_likelihood(counts, mu_t) >= poisson_log_likelihood(counts, mu_r)
            )
        se = math.sqrt(max(bound * (1.0 - bound), 1.0 / draws) / draws)
        bound_ok &= flips / draws <= bound + 3.0 * se

    elapsed = time.perf_counter() - t0
    ok = recovery >= 0.8 and bound_ok and elapsed < 120.0
    _report(7, ok, f"MLE recovery {recovery:.2f} >= 0.8 at n*beta^2 = 3 log n; "
                   f"Chernoff bound held on 20 pairs: {bound_ok}", elapsed)
    assert recovery >= 0.8
    assert bound_ok
    assert elapsed < 120.0


def test_criterion_8_determinism(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        '{"model": "differential", "n": 40, "sigma": 1.0, "snr_grid": [0.5, 4.0],'
        ' "q_list": [0, 1, 2], "reps": 5, "master_seed": 88001,'
        ' "estimator": "profile_ls_adaptive", "true_rank": "random_feasible"}'
    )
    outputs = {}
    # at least 8 pool threads even on small boxes, so scheduling really races
    max_workers = str(max(os.cpu_count() or 1, 8))
    for label, workers in (("one_a", "1"), ("one_b", "1"), ("max_a", max_workers), ("max_b", max_workers)):
        monkeypatch.setenv("RANK_PHASE_THREADS", workers)
        out = tmp_path / f"{label}.csv"
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs[label] = out.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = len(set(outputs.values())) == 1
    _report(8, ok, f"4 runs (workers 1 and {max_workers}) produced "
                   f"{len(set(outputs.values()))} distinct byte stream(s); need 1", elapsed)
    assert outputs["one_a"] == outputs["one_b"]
    assert outputs["max_a"] == outputs["max_b"]
    assert outputs["one_a"] == outputs["max_a"]
