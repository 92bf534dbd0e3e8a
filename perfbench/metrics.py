"""Metric names, units and bounds, and the statistics the benchmark reports.

BENCHMARK.json mirrors END_TO_END and PER_LAYER; selftest.py checks that
the two agree and that every run emits exactly these names with these units.
"""

from __future__ import annotations

import math

# (name, unit, better, bound).  The bound is the share of the parent's
# median by which the metric may worsen before a change counts as a
# regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("reps_per_s", "1/s", "higher", 0.25),
    ("rep_ms_p50", "ms", "lower", 0.25),
    ("rep_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("ok_frac", "frac", "higher", 0.01),
    ("outputs_ok", "flag", "higher", 0.01),
]

MODULES = ("model", "matching", "estimators", "poisson", "simulate", "verify", "cli")

IDENTITIES = (
    "differential-gap",
    "poisson-gap",
    "score-comparison",
    "score-collaboration",
    "score-adaptive-linear",
    "hat-matrix",
    "profile-ls-hat",
    "bhattacharyya-series",
    "loss-properties",
    "signal-window",
    "snr-roundtrip",
    "space-nesting",
)

# Spans whose self time and call count are reported, in addition to the
# per-module totals.
SPAN_METRICS = (
    "simulate.generate",
    "model.build_mean_matrix",
    "estimators.score",
    "matching.feature_match",
    "estimators.profile_ls",
    "model.loss",
    "simulate.random_feasible_rank",
    "model.signal_gap",
    "matching.exhaustive",
    "poisson.mle_brute_force",
)

# (name, unit, better).  Per-layer metrics have no bound.
PER_LAYER = (
    [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [(f"{m}.calls", "count", "lower") for m in MODULES]
    + [(f"{s}.self_s", "s", "lower") for s in SPAN_METRICS]
    + [(f"{s}.calls", "count", "lower") for s in SPAN_METRICS]
    + [
        ("simulate.generate.mb_computed", "MB", "lower"),
        ("matching.feature_match.ms_p50", "ms", "lower"),
        ("matching.feature_match.ms_tail", "ms", "lower"),
        ("matching.repair_frac", "frac", "lower"),
        ("matching.restricted_bind_frac", "frac", "lower"),
        ("estimators.profile_ls.iters_mean", "count", "lower"),
        ("estimators.profile_ls.objective_mean", "1", "lower"),
        ("estimators.profile_ls.optimum_rate", "frac", "higher"),
        ("simulate.fit_regimes.self_s", "s", "lower"),
        ("cli.rows_to_csv.self_s", "s", "lower"),
        ("cli.bytes_written", "bytes", "lower"),
        ("simulate.run_experiment.s_w1", "s", "lower"),
        ("simulate.pool_speedup", "ratio", "higher"),
        ("poisson.affinity.self_s", "s", "lower"),
        ("verify.failed", "count", "lower"),
        ("poisson.import_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.coverage", "frac", "higher"),
    ]
    + [(f"verify.check.{name}.s", "s", "lower") for name in IDENTITIES]
)

# p99 is left out on purpose: in phase-default 0.5-1.5% of reps wait a whole
# 5 ms interpreter switch interval, so p99 of its 1200-rep passes jumped
# between 3.6 and 5.8 ms from run to run, while p98 stays below that cliff.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.9)


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten of ``count`` samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if count * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    xs = sorted(values)
    if not xs:
        return 0.0
    k = max(0, math.ceil(p / 100.0 * len(xs)) - 1)
    return float(xs[k])


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        return 0.0
    mid = len(xs) // 2
    if len(xs) % 2:
        return float(xs[mid])
    return 0.5 * (xs[mid - 1] + xs[mid])
