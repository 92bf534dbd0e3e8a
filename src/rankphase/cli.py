"""Command-line interface: simulate, phase-diagram, estimate, oracle-check, verify.

Exit codes: 0 success, 1 runtime or verification failure, 2 usage/config/input
error.  All file outputs end with a trailing newline; CSV inputs tolerate CRLF.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateFitError, InputError, RankPhaseError
from .estimators import ols_fit, profile_ls_estimate, score_adaptive
from .matching import exhaustive_feature_match, feature_match, match_objective
from .model import (
    ENUMERATION_N_MAX,
    InteractionMatrix,
    RankSpace,
    _space_members,
    beta_for_snr,
    default_sum_budget,
    default_sumsq_budget,
    space_argmin,
)
from .simulate import (
    ExperimentConfig,
    ResultRow,
    derive_seed,
    fit_regimes,
    random_feasible_rank,
    run_experiment,
    summarize_grid,
)
from .verify import CHECKS, run_identity_suite

CSV_HEADER = "model,n,snr,beta,sigma,estimator,q,rep,seed,loss,exact_recovery,iters,wall_time_ms"
# Each column of CSV_HEADER with the parser it is read back with.
_CSV_COLUMNS = tuple(
    zip(
        CSV_HEADER.split(","),
        (str, int, float, float, float, str, float, int, int, float, str, int, float),
    )
)
# Columns one experiment writes the same in every row.
_SHARED_COLUMNS = ("model", "n", "sigma", "estimator")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Serialize result rows, one line per (replication, q).

    wall_time_ms is serialized as 0 so that reruns of the same config are
    byte-identical; measured timings are reported on stdout instead.
    """
    lines = [CSV_HEADER]
    for row in rows:
        for q, lv in zip(row.q_list, row.losses):
            lines.append(
                ",".join(
                    [
                        row.model,
                        str(row.n),
                        _fmt(row.snr),
                        _fmt(row.beta),
                        _fmt(row.sigma),
                        row.estimator,
                        _fmt(q),
                        str(row.rep),
                        str(row.seed),
                        _fmt(lv),
                        "1" if row.exact_recovery else "0",
                        str(row.iterations),
                        "0",
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def read_rows_csv(path: Path) -> list[ResultRow]:
    """Parse a result CSV back into rows (used by phase-diagram --from-results)."""
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise InputError(f"results file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"results file {path} is not text: {exc}") from exc
    lines = [
        (lineno, ln.rstrip("\r"))
        for lineno, ln in enumerate(text.split("\n"), start=1)
        if ln.strip("\r")
    ]
    if not lines or lines[0][1] != CSV_HEADER:
        raise InputError(f"{path}: missing or unexpected result CSV header")
    # a grid point is an (snr, beta) pair, numbered in order of appearance:
    # with sigma = 0 every point has snr inf, and only beta tells them apart
    grid: dict[tuple, int] = {}
    grouped: dict[tuple, dict] = {}
    shared: dict[str, object] = {}
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(_CSV_COLUMNS):
            raise InputError(f"{path}: line {lineno}: malformed result row: {ln!r}")
        values = []
        for (column, kind), cell in zip(_CSV_COLUMNS, parts):
            where = f"{path}: line {lineno}, column {column}"
            try:
                value = kind(cell)
            except ValueError as exc:
                raise InputError(f"{where}: unparseable value {cell!r}") from exc
            # inf is written for a noiseless grid point (sigma = 0); NaN is
            # never written, and rows holding it could not be grouped
            if kind is float and math.isnan(value):
                raise InputError(f"{where}: NaN value {cell!r}")
            if (column == "exact_recovery" and value not in ("0", "1")) or (
                column == "iters" and value < 0
            ):
                raise InputError(f"{where}: invalid value {cell!r}")
            # the regime thresholds need n >= 3, as ExperimentConfig does
            if column == "n" and value < 3:
                raise InputError(f"{where}: must be >= 3, got {cell!r}")
            # the fit reads model and n from the first row for the whole file
            if column in _SHARED_COLUMNS and shared.setdefault(column, value) != value:
                raise InputError(
                    f"{where}: {cell!r} differs from the first row's {shared[column]!r}"
                )
            values.append(value)
        model, n, snr, beta, sigma, est, q, rep, seed, lv, exact, iters, wall = values
        point = grid.setdefault((snr, beta), len(grid))
        rec = grouped.setdefault((point, rep), {"first": values, "losses": {}})
        if q in rec["losses"]:
            raise InputError(
                f"{path}: line {lineno}: repeated (snr, beta, rep, q) = ({snr}, {beta}, {rep}, {q})"
            )
        rec["losses"][q] = lv
    # q lines may come in any order, but every replication carries the first
    # one's q values, and its losses are stored in that order
    q_list: tuple = ()
    rows = []
    for (point, rep), rec in grouped.items():
        model, n, snr, beta, sigma, est, _, _, seed, _, exact, iters, wall = rec["first"]
        q_list = q_list or tuple(rec["losses"])
        if rec["losses"].keys() != set(q_list):
            raise InputError(
                f"{path}: (snr, beta, rep) = ({snr}, {beta}, {rep}) has q values "
                f"{sorted(rec['losses'])}, not the first replication's {sorted(q_list)}"
            )
        rows.append(
            ResultRow(
                model=model,
                n=n,
                snr=snr,
                beta=beta,
                sigma=sigma,
                estimator=est,
                rep=rep,
                seed=seed,
                q_list=q_list,
                losses=tuple(rec["losses"][q] for q in q_list),
                exact_recovery=exact == "1",
                iterations=iters,
                wall_time_ms=wall,
                grid_index=point,
            )
        )
    rows.sort(key=lambda r: (r.grid_index, r.rep))
    return rows


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _load_config(path: str, overrides: argparse.Namespace) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if getattr(overrides, "seed", None) is not None:
        raw["master_seed"] = overrides.seed
    if getattr(overrides, "reps", None) is not None:
        raw["reps"] = overrides.reps
    if getattr(overrides, "n", None) is not None:
        raw["n"] = overrides.n
    if getattr(overrides, "snr", None) is not None:
        try:
            raw["snr_grid"] = [float(s) for s in overrides.snr.split(",") if s]
        except ValueError as exc:
            raise ConfigError(f"--snr: {exc}") from exc
        raw.pop("beta_grid", None)
    if getattr(overrides, "c_n", None) is not None:
        raw["c_n"] = overrides.c_n
    if getattr(overrides, "c_n_sq", None) is not None:
        raw["c_n_sq"] = overrides.c_n_sq
    return ExperimentConfig.from_dict(raw)


def _print_summary(rows: list[ResultRow]) -> None:
    wall = sum(r.wall_time_ms for r in rows)
    print(f"{len(rows)} replications, total estimator time {wall / 1000.0:.2f} s")
    for p in summarize_grid(rows):
        losses = "  ".join(
            f"l{q:g}: mean={p.mean_loss[q]:.6g} median={p.median_loss[q]:.6g}"
            for q in sorted(p.mean_loss)
        )
        print(
            f"snr={p.snr:.6g} [{p.regime}] reps={p.reps}  {losses}  "
            f"recovery={p.recovery_rate:.3f}"
        )


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args)
    rows = run_experiment(config)
    out = Path(args.out)
    _write_text(out, rows_to_csv(rows))
    print(f"wrote {out}")
    _print_summary(rows)
    return 0


def cmd_phase_diagram(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    if args.from_results is not None:
        # the file is fitted as it is: a config or an override has nothing to act on
        for flag in ["--config"] + [o[0] for o in _OVERRIDES]:
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise ConfigError(f"{flag} cannot be combined with --from-results")
        rows = read_rows_csv(Path(args.from_results))
    else:
        if args.config is None:
            raise ConfigError("phase-diagram needs --config (or --from-results)")
        config = _load_config(args.config, args)
        rows = run_experiment(config)
        _write_text(out_dir / "results.csv", rows_to_csv(rows))
    report = fit_regimes(rows)
    _write_text(out_dir / "regimes.json", json.dumps(dataclasses.asdict(report), indent=2) + "\n")

    q_all = sorted(report.points[0].mean_loss)
    header = ["snr", "beta", "regime", "reps"]
    header += [f"mean_l{q:g}" for q in q_all] + [f"median_l{q:g}" for q in q_all]
    header += ["recovery_rate"]
    lines = [",".join(header)]
    for p in report.points:
        cells = [_fmt(p.snr), _fmt(p.beta), p.regime, str(p.reps)]
        cells += [_fmt(p.mean_loss[q]) for q in q_all]
        cells += [_fmt(p.median_loss[q]) for q in q_all]
        cells.append(_fmt(p.recovery_rate))
        lines.append(",".join(cells))
    _write_text(out_dir / "curve.csv", "\n".join(lines) + "\n")

    print(f"wrote {out_dir / 'regimes.json'} and {out_dir / 'curve.csv'}")
    for fit in report.fits:
        print(
            f"{fit.regime} regime (q={fit.q:g}, x={fit.x_axis}): "
            f"slope={fit.slope:.4f} +- {fit.stderr:.4f}, R^2={fit.r2:.4f}, "
            f"points={len(fit.snr_values)}"
        )
    for gap in report.gaps:
        print(f"gap: {gap}")
    for pt in report.recovery_curve:
        print(
            f"recovery snr={pt['snr']:.6g} (snr/log n={pt['snr_over_log_n']:.3f}, "
            f"{pt['regime']}): {pt['recovery_rate']:.3f}"
        )
    return 0


def read_matrix_csv(path: Path) -> InteractionMatrix:
    """Read an n x n interaction CSV with a blank or NA diagonal."""
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise InputError(f"input file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"input file {path} is not text: {exc}") from exc
    lines = [ln.rstrip("\r") for ln in text.split("\n")]
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise InputError(f"{path}: empty input")
    rows = [ln.split(",") for ln in lines]
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InputError(
                f"{path}: not square: row {i + 1} has {len(row)} columns, expected {n}"
            )
    if n < 3:
        raise InputError(f"{path}: need n >= 3, got n={n}")
    values = np.zeros((n, n))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            cell = cell.strip()
            if i == j:
                if cell not in ("", "NA"):
                    raise InputError(
                        f"{path}: diagonal entry at row {i + 1}, column {j + 1} must be "
                        f"blank or NA, got {cell!r}"
                    )
                continue
            try:
                v = float(cell)
            except ValueError as exc:
                raise InputError(
                    f"{path}: unparseable value at row {i + 1}, column {j + 1}: {cell!r}"
                ) from exc
            if not math.isfinite(v):
                raise InputError(
                    f"{path}: non-finite value at row {i + 1}, column {j + 1}"
                )
            values[i, j] = v
    return InteractionMatrix(values)


def _require_positive(value: int, flag: str) -> None:
    if value < 1:
        raise InputError(f"{flag} must be >= 1")


def cmd_estimate(args: argparse.Namespace) -> int:
    _require_positive(args.max_iters, "--max-iters")
    X = read_matrix_csv(Path(args.input))
    n = X.n
    scores = score_adaptive(X, args.kind)
    spread = float(np.max(np.abs(scores - scores.mean())))
    if spread <= 1e-12 * (1.0 + abs(float(scores.mean()))):
        print(
            "degenerate fit: adaptive scores are constant "
            f"(kind={args.kind}); no rank signal in the input",
            file=sys.stderr,
        )
        return 1
    c = args.c_n if args.c_n is not None else default_sum_budget(n)
    csq = args.c_n_sq if args.c_n_sq is not None else default_sumsq_budget(n)
    space = RankSpace(n=n, c_n=c, c_n_sq=csq)
    rank, trace = profile_ls_estimate(scores, space, max_iters=args.max_iters)
    fit = ols_fit(scores, rank)
    pl = trace.objective_path[-1]
    out = Path(args.out)
    lines = [
        f"# a_hat={_fmt(fit.a_hat)}",
        f"# b_hat={_fmt(fit.b_hat)}",
        f"# pl={_fmt(pl)}",
        f"# iterations={trace.iterations}",
        f"# converged={'true' if trace.converged else 'false'}",
        f"# stalled={'true' if trace.stalled else 'false'}",
        f"# match_gap={_fmt(trace.match_gap)}",
        "index,rank",
    ]
    lines += [f"{i + 1},{rank[i]}" for i in range(n)]
    _write_text(out, "\n".join(lines) + "\n")
    print(
        f"wrote {out}: a_hat={fit.a_hat:.6g} b_hat={fit.b_hat:.6g} "
        f"pl={pl:.6g} iterations={trace.iterations}"
    )
    return 0


def _oracle_instance(n: int, idx: int, seed: int):
    rng = np.random.default_rng(derive_seed(seed, 100, idx))
    c = int(rng.integers(1, 4))
    if idx % 2 == 1:
        csq = int(rng.integers(n, 2 * n * n))
        space = RankSpace(n=n, c_n=c, c_n_sq=csq)
    else:
        space = RankSpace(n=n, c_n=c)
    if idx % 4 < 2:
        beta = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(-2.0, 2.0))
        theta = alpha + beta * np.arange(1, n + 1, dtype=np.float64)
        r_true = random_feasible_rank(space, derive_seed(seed, 101, idx))
        scores = theta[r_true - 1] + rng.normal(0.0, float(rng.uniform(0.1, 1.0)), n)
    else:
        theta = rng.normal(0.0, 2.0, n)
        scores = rng.normal(0.0, 2.0, n)
    return scores, theta, space


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if not 3 <= args.n <= ENUMERATION_N_MAX:
        raise InputError(f"oracle-check needs 3 <= n <= {ENUMERATION_N_MAX}, got n={args.n}")
    _require_positive(args.instances, "--instances")
    n, count, seed = args.n, args.instances, args.seed
    fm_matches = 0
    fm_worst = 0.0
    for idx in range(count):
        scores, theta, space = _oracle_instance(n, idx, seed)
        r_hat = feature_match(scores, theta, space)
        obj_hat = match_objective(scores, theta, r_hat)
        _, obj_best = exhaustive_feature_match(scores, theta, space)
        gap = obj_hat - obj_best
        fm_worst = max(fm_worst, gap)
        if obj_hat == obj_best:
            fm_matches += 1
    fm_rate = fm_matches / count

    pl_matches = 0
    pl_worst = 0.0
    space = RankSpace.default_restricted(n)
    centred = _centred_members(space)
    for idx in range(count):
        # well-separated: permutation truth, SNR in [4, 10] at sigma = 1
        rng = np.random.default_rng(derive_seed(seed, 102, idx))
        target_snr = float(rng.uniform(4.0, 10.0))
        beta = beta_for_snr(n, target_snr, 1.0)
        theta = float(rng.uniform(-2.0, 2.0)) + beta * np.arange(1, n + 1, dtype=np.float64)
        r_true = rng.permutation(n).astype(np.int64) + 1
        scores = theta[r_true - 1] + rng.normal(0.0, 1.0 / math.sqrt(2 * n), n)
        _, trace = profile_ls_estimate(scores, space)
        pl_iter = trace.objective_path[-1]
        pl_best = _exhaustive_pl_min(scores, space, centred)
        gap = pl_iter - pl_best
        pl_worst = max(pl_worst, gap)
        if abs(gap) <= 1e-9 * (1.0 + pl_best):
            pl_matches += 1
    pl_rate = pl_matches / count

    print(f"feature_match vs enumeration: match rate {fm_rate:.3f} ({fm_matches}/{count}), worst objective gap {fm_worst:.3e}")
    print(f"profile_ls vs enumeration:    match rate {pl_rate:.3f} ({pl_matches}/{count}), worst objective gap {pl_worst:.3e}")
    return 0 if fm_rate == 1.0 else 1


def _centred_members(space: RankSpace) -> np.ndarray:
    """The space's members centred, as floats, each with its sum of squares as a last column."""
    c = _space_members(space).astype(np.float64)
    c -= c.mean(axis=1, keepdims=True)
    return np.column_stack((c, np.sum(c * c, axis=1)))


def _exhaustive_pl_min(scores: np.ndarray, space: RankSpace, centred: np.ndarray) -> float:
    # PL(r) = ||S_c||^2 - (c_r . S)^2/||c_r||^2 with c_r the centered rank
    # vector, read with ||c_r||^2 from _centred_members(space); constant
    # candidates leave only the intercept projection.
    s_centered = scores - scores.mean()
    sst = float(np.dot(s_centered, s_centered))

    def pl_values(rows: np.ndarray) -> np.ndarray:
        denom = rows[:, -1]
        proj = np.zeros(rows.shape[0])
        nz = denom > 0
        dots = rows[nz, :-1] @ s_centered
        proj[nz] = dots * dots / denom[nz]
        return sst - proj

    return space_argmin(space, pl_values, centred)[1]


def cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    results = run_identity_suite(inject=args.fail_inject)
    elapsed = time.perf_counter() - t0
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(
            f"{status} {r.name}: max deviation {r.max_deviation:.3e} "
            f"(tolerance {r.tolerance:.1e}, seed {r.seed}){detail}"
        )
    print(f"{len(results) - len(failed)}/{len(results)} identities passed in {elapsed:.1f} s")
    if failed:
        names = ", ".join(r.name for r in failed)
        print(f"FAILED identities: {names}", file=sys.stderr)
        return 1
    return 0


# The config-field overrides shared by simulate and phase-diagram (see _load_config).
_OVERRIDES = (
    ("--seed", int, "override master_seed"),
    ("--reps", int, "override reps"),
    ("--n", int, "override n"),
    ("--snr", str, "override SNR grid, comma-separated"),
    ("--c-n", int, "override sum budget"),
    ("--c-n-sq", int, "override sum-of-squares budget"),
)


def _add_override_args(parser: argparse.ArgumentParser) -> None:
    for flag, kind, text in _OVERRIDES:
        parser.add_argument(flag, type=kind, default=None, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankphase",
        description="Approximate-ranking estimators, exact identities, and the SNR phase diagram.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a replicated Monte Carlo grid")
    p_sim.add_argument("--config", required=True, help="JSON experiment config")
    p_sim.add_argument("--out", default="results.csv", help="output CSV path")
    _add_override_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_pd = sub.add_parser("phase-diagram", help="run a grid and fit the error regimes")
    p_pd.add_argument("--config", default=None, help="JSON experiment config")
    p_pd.add_argument("--out", required=True, help="output directory")
    p_pd.add_argument(
        "--from-results", default=None, help="fit regimes from an existing result CSV"
    )
    _add_override_args(p_pd)
    p_pd.set_defaults(func=cmd_phase_diagram)

    p_est = sub.add_parser("estimate", help="estimate ranks from an interaction CSV")
    p_est.add_argument("--input", required=True, help="n x n CSV, blank or NA diagonal")
    p_est.add_argument(
        "--kind", required=True, choices=("comparison", "collaboration"), help="score kind"
    )
    p_est.add_argument("--out", required=True, help="output file for the rank estimate")
    p_est.add_argument("--c-n", dest="c_n", type=int, default=None)
    p_est.add_argument("--c-n-sq", dest="c_n_sq", type=int, default=None)
    p_est.add_argument("--max-iters", dest="max_iters", type=int, default=100)
    p_est.set_defaults(func=cmd_estimate)

    p_oc = sub.add_parser("oracle-check", help="compare solvers against enumeration")
    p_oc.add_argument("--n", type=int, required=True, help="instance size (3..6)")
    p_oc.add_argument("--instances", type=int, default=200)
    p_oc.add_argument("--seed", type=int, default=0)
    p_oc.set_defaults(func=cmd_oracle_check)

    p_v = sub.add_parser("verify", help="run the exact-identity suite")
    p_v.add_argument(
        "--fail-inject",
        default=None,
        metavar="IDENTITY",
        help=f"deliberately corrupt one identity ({', '.join(sorted(CHECKS))})",
    )
    p_v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RankPhaseError, DegenerateFitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
