import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rankphase import ModelSpec, RankSpace, ResultRow, build_mean_matrix
from rankphase import model as model_module
from rankphase.cli import CSV_HEADER, _oracle_instance, main, read_rows_csv, rows_to_csv


def write_config(tmp_path, **overrides):
    cfg = dict(
        model="differential",
        n=20,
        sigma=1.0,
        snr_grid=[4.0],
        q_list=[0, 1, 2],
        reps=2,
        master_seed=20260810,
        estimator="feature_match_oracle_theta",
        true_rank="identity",
    )
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def write_matrix(tmp_path, values, name="matrix.csv", diag="NA", eol="\n"):
    n = values.shape[0]
    lines = []
    for i in range(n):
        cells = [diag if i == j else f"{float(values[i, j]):.17g}" for j in range(n)]
        lines.append(",".join(cells))
    path = tmp_path / name
    path.write_text(eol.join(lines) + eol)
    return path


class TestSimulateCommand:
    def test_row_count_and_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 3  # reps * |q_list|

    def test_minimal_config_row_count(self, tmp_path):
        cfg = write_config(tmp_path, q_list=[2])
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2  # header + one row per rep

    def test_repeated_q_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, q_list=[1, 1])
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "field 'q_list': values must be distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, reps=3, snr_grid=[0.5, 4.0])
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_seeds_not_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "7"])
        a, b = out1.read_text().splitlines(), out2.read_text().splitlines()
        assert a[0] == b[0] and len(a) == len(b)
        seed_col = CSV_HEADER.split(",").index("seed")
        assert a[1].split(",")[seed_col] != b[1].split(",")[seed_col]

    def test_float_round_trip_17_digits(self, tmp_path):
        cfg = write_config(tmp_path, snr_grid=[1.0 / 3.0])
        out = tmp_path / "rows.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        snr_col = CSV_HEADER.split(",").index("snr")
        val = out.read_text().splitlines()[1].split(",")[snr_col]
        assert float(val) == 1.0 / 3.0

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(model="differential", n=20)))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "reps" in err or "missing" in err

    def test_unknown_model_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model="btl")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "model" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma", "abc"),
            ("snr_grid", ["x"]),
            ("q_list", ["q"]),
            ("q_list", 5),
            ("model", ["differential"]),
            ("sigma", math.nan),
            ("sigma", math.inf),
            ("snr_grid", [math.inf]),
            ("alpha", "a"),
            ("alpha", math.nan),
        ],
    )
    def test_malformed_field_named_exit_2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, **{field: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"error: field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # a negative sqrt-mean used to surface only inside a replication
            ("alpha", -100, "must be positive"),
            # a Poisson mean past numpy's limit used to end in a traceback
            ("snr_grid", [1e30], "largest Poisson mean"),
        ],
    )
    def test_poisson_means_out_of_range_named_exit_2(self, tmp_path, capsys, field, value, message):
        fields = dict(model="poisson", n=4, snr_grid=[1.0], estimator="brute_force")
        cfg = write_config(tmp_path, **{**fields, field: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert f"error: field '{field}'" in err and message in err
        assert not (tmp_path / "x.csv").exists()

    def test_malformed_snr_override_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        argv = ["simulate", "--config", str(cfg), "--snr", "abc", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert "--snr" in capsys.readouterr().err


class TestPhaseDiagramCommand:
    # sha256 of the outputs for configs/phase_diagram_default.json:
    # results.csv pins the rows, regimes.json the JSON layout of RegimeReport,
    # curve.csv the table; --from-results writes only the last two
    RESULTS_PIN = "2e0f4c2f568e82dea1097b6fc56119d13b7a5b9308e4c4173ecb7d256ecf4813"
    DEFAULT_PINS = {
        "regimes.json": "e30892dee179acf713e93dfc3a7daa97f475e7b3725b63ba91afadc9ff2f8d73",
        "curve.csv": "9af05da0d131a562e1e3a97a97916c4b49cef4bd2a7ec7fec7fa7faaf76194b6",
    }

    def test_default_config_reports_at_pinned_digests(self, tmp_path):
        cfg = Path(__file__).resolve().parent.parent / "configs" / "phase_diagram_default.json"
        out, again = tmp_path / "pd", tmp_path / "again"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "results.csv").read_bytes()).hexdigest() == self.RESULTS_PIN
        argv = ["phase-diagram", "--from-results", str(out / "results.csv"), "--out", str(again)]
        assert main(argv) == 0
        # the q lines of every replication after the first, reversed: losses
        # are read by q, not by their place in the file
        mixed, refit = tmp_path / "mixed.csv", tmp_path / "refit"
        lines = (out / "results.csv").read_text().splitlines()
        reps = [lines[i : i + 3] for i in range(1, len(lines), 3)]
        mixed.write_text("\n".join([lines[0], *reps[0]] + [l for r in reps[1:] for l in r[::-1]]) + "\n")
        assert main(["phase-diagram", "--from-results", str(mixed), "--out", str(refit)]) == 0
        for directory in (out, again, refit):
            for name, digest in self.DEFAULT_PINS.items():
                assert hashlib.sha256((directory / name).read_bytes()).hexdigest() == digest

    def test_runs_and_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path, snr_grid=[0.05, 0.2, 0.8, 2.0], reps=10, n=30)
        out = tmp_path / "pd"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        report = json.loads((out / "regimes.json").read_text())
        assert report["n"] == 30
        assert {p["regime"] for p in report["points"]} >= {"polynomial", "exponential"}
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0].startswith("snr,beta,regime")
        assert len(curve) == 1 + 4

    def test_from_results_reproduces_fabricated_fit(self, tmp_path):
        rows = []
        for g, snr in enumerate((1.5, 2.5, 3.5)):
            for rep in range(3):
                rows.append(
                    ResultRow(
                        model="differential", n=100, snr=snr, beta=0.1, sigma=1.0,
                        estimator="feature_match_oracle_theta", rep=rep, seed=rep,
                        q_list=(2.0,), losses=(math.exp(-snr),), exact_recovery=False,
                        iterations=0, wall_time_ms=0.0, grid_index=g,
                    )
                )
        src = tmp_path / "rows.csv"
        src.write_text(rows_to_csv(rows))
        out = tmp_path / "pd"
        assert main(["phase-diagram", "--from-results", str(src), "--out", str(out)]) == 0
        report = json.loads((out / "regimes.json").read_text())
        exp = [f for f in report["fits"] if f["regime"] == "exponential" and f["q"] == 2.0]
        assert exp and abs(exp[0]["slope"] + 1.0) < 1e-9

    def test_needs_config_or_results(self, tmp_path):
        assert main(["phase-diagram", "--out", str(tmp_path / "pd")]) == 2

    @pytest.mark.parametrize("cell", ["abc", "nan"])
    def test_from_results_bad_cell_exit_2(self, tmp_path, capsys, cell):
        row = f"differential,20,{cell},0.1,1,feature_match_oracle_theta,2,0,0,0.5,0,0,0"
        src = tmp_path / "rows.csv"
        src.write_text(f"{CSV_HEADER}\n{row}\n")
        argv = ["phase-diagram", "--from-results", str(src), "--out", str(tmp_path / "pd")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(src) in err and "line 2" in err and "column snr" in err

    def test_from_results_bad_exact_recovery_exit_2(self, tmp_path, capsys):
        # any cell but 0/1 used to load as "not recovered"
        row = "differential,20,0.5,0.1,1,feature_match_oracle_theta,2,0,0,0.5,yes,0,0"
        src = tmp_path / "rows.csv"
        src.write_text(f"{CSV_HEADER}\n{row}\n")
        argv = ["phase-diagram", "--from-results", str(src), "--out", str(tmp_path / "pd")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(src) in err and "line 2" in err and "column exact_recovery" in err

    def test_from_results_negative_iters_exit_2(self, tmp_path, capsys):
        row = "differential,20,0.5,0.1,1,feature_match_oracle_theta,2,0,0,0.5,1,-5,0"
        src = tmp_path / "rows.csv"
        src.write_text(f"{CSV_HEADER}\n{row}\n")
        argv = ["phase-diagram", "--from-results", str(src), "--out", str(tmp_path / "pd")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(src) in err and "line 2" in err and "column iters" in err

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_from_results_n_below_3_exit_2(self, tmp_path, capsys, n):
        # classify_regime and fit_regimes divided by zero on these
        row = f"differential,{n},0.5,0.1,1,feature_match_oracle_theta,2,0,0,0.5,1,0,0"
        src = tmp_path / "rows.csv"
        src.write_text(f"{CSV_HEADER}\n{row}\n")
        argv = ["phase-diagram", "--from-results", str(src), "--out", str(tmp_path / "pd")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(src) in err and "line 2" in err and "column n" in err and ">= 3" in err

    def test_from_results_reads_noiseless_results(self, tmp_path):
        # sigma = 0 with a beta_grid puts snr = inf in results.csv
        cfg = tmp_path / "noiseless.json"
        cfg.write_text(json.dumps(dict(
            model="differential", n=6, sigma=0.0, beta_grid=[0.5], q_list=[0, 2], reps=2,
            master_seed=20260810, estimator="feature_match_oracle_theta",
        )))
        out, again = tmp_path / "pd", tmp_path / "pd2"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        assert "inf" in (out / "results.csv").read_text()
        argv = ["phase-diagram", "--from-results", str(out / "results.csv"), "--out", str(again)]
        assert main(argv) == 0
        assert (again / "regimes.json").read_text() == (out / "regimes.json").read_text()

    def test_from_results_keeps_noiseless_points_apart(self, tmp_path):
        # with sigma = 0 both grid points have snr inf; only beta separates them
        cfg = tmp_path / "noiseless.json"
        cfg.write_text(json.dumps(dict(
            model="differential", n=20, sigma=0.0, beta_grid=[0.5, 1.0], reps=2,
            master_seed=7, estimator="feature_match_oracle_theta",
        )))
        out, again = tmp_path / "pd", tmp_path / "pd2"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        argv = ["phase-diagram", "--from-results", str(out / "results.csv"), "--out", str(again)]
        assert main(argv) == 0
        for name in ("regimes.json", "curve.csv"):
            assert (again / name).read_bytes() == (out / name).read_bytes()
        assert len((again / "curve.csv").read_text().splitlines()) == 1 + 2

    def test_repeated_snr_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, snr_grid=[1.0, 1.0, 4.0])
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(tmp_path / "pd")]) == 2
        assert "snr_grid" in capsys.readouterr().err

    def test_from_results_repeated_line_exit_2(self, tmp_path, capsys):
        row = "differential,20,0.5,0.1,1,feature_match_oracle_theta,2,0,0,0.5,1,0,0"
        src = tmp_path / "rows.csv"
        src.write_text(f"{CSV_HEADER}\n{row}\n{row}\n")
        argv = ["phase-diagram", "--from-results", str(src), "--out", str(tmp_path / "pd")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(src) in err and "line 3" in err and "repeated" in err

    def test_from_results_mixed_models_exit_2(self, tmp_path, capsys):
        # a differential n = 20 results file followed by an additive n = 200
        # one must not be fitted as one grid at n = 20
        parts = []
        runs = (("differential", 20, [0.5, 1.0, 2.0]), ("additive", 200, [4.0, 6.0, 9.0]))
        for model, n, snrs in runs:
            cfg = write_config(tmp_path, model=model, n=n, snr_grid=snrs)
            out = tmp_path / f"{model}.csv"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            parts.append(out.read_text().splitlines())
        src = tmp_path / "mixed.csv"
        src.write_text("\n".join(parts[0] + parts[1][1:]) + "\n")
        argv = ["phase-diagram", "--from-results", str(src), "--out", str(tmp_path / "pd")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{src}: line {len(parts[0]) + 1}, column model:" in err
        assert "'additive' differs from the first row's 'differential'" in err
        assert not (tmp_path / "pd").exists()

    @pytest.mark.parametrize(
        "column, cell",
        [("n", "21"), ("sigma", "2"), ("estimator", "profile_ls_adaptive")],
    )
    def test_from_results_row_differing_from_first_exit_2(self, tmp_path, capsys, column, cell):
        first = "differential,20,0.5,0.1,1,feature_match_oracle_theta,2,0,0,0.5,1,0,0"
        # the second row is rep 1, so only the edited column sets it apart
        cells = first.replace(",2,0,0,", ",2,1,0,").split(",")
        cells[CSV_HEADER.split(",").index(column)] = cell
        src = tmp_path / "rows.csv"
        src.write_text(f"{CSV_HEADER}\n{first}\n{','.join(cells)}\n")
        argv = ["phase-diagram", "--from-results", str(src), "--out", str(tmp_path / "pd")]
        assert main(argv) == 2
        assert f"{src}: line 3, column {column}: {cell!r} differs" in capsys.readouterr().err

    def test_from_results_replication_missing_a_q_exit_2(self, tmp_path, capsys):
        # summarize_grid used to read losses by the first row's q positions
        # and raise an IndexError here
        cfg = write_config(tmp_path, snr_grid=[0.5, 1.0, 2.0])
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        src = tmp_path / "short.csv"
        src.write_text("\n".join(lines[:-1]) + "\n")
        argv = ["phase-diagram", "--from-results", str(src), "--out", str(tmp_path / "pd")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {src}: (snr, beta, rep) = (2.0, " in err
        assert "has q values [0.0, 1.0], not the first replication's [0.0, 1.0, 2.0]" in err
        assert not (tmp_path / "pd").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--config", None), ("--reps", "5"), ("--n", "7"), ("--c-n-sq", "9")]
    )
    def test_from_results_with_config_or_override_exit_2(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, reps=1)
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        argv = ["phase-diagram", "--from-results", str(out), "--out", str(tmp_path / "pd")]
        argv += [flag, str(cfg) if value is None else value]
        assert main(argv) == 2
        assert f"error: {flag} cannot be combined with --from-results" in capsys.readouterr().err
        assert not (tmp_path / "pd").exists()

    def test_from_results_missing_file_exit_2(self, tmp_path, capsys):
        src = tmp_path / "absent.csv"
        argv = ["phase-diagram", "--from-results", str(src), "--out", str(tmp_path / "pd")]
        assert main(argv) == 2
        assert f"results file not found: {src}" in capsys.readouterr().err

    def test_from_results_non_utf8_exit_2(self, tmp_path, capsys):
        src = tmp_path / "rows.csv"
        src.write_bytes(b"\xff\xfe\x00")
        argv = ["phase-diagram", "--from-results", str(src), "--out", str(tmp_path / "pd")]
        assert main(argv) == 2
        assert str(src) in capsys.readouterr().err


class TestRowsCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rows = [
            ResultRow(
                model="additive", n=12, snr=0.7, beta=0.3, sigma=2.0,
                estimator="profile_ls_adaptive", rep=r, seed=100 + r,
                q_list=(0.0, 2.0), losses=(0.25, 1.75), exact_recovery=False,
                iterations=3, wall_time_ms=1.5, grid_index=0,
            )
            for r in range(2)
        ]
        path = tmp_path / "rows.csv"
        path.write_text(rows_to_csv(rows))
        back = read_rows_csv(path)
        assert len(back) == 2
        assert back[0].q_list == (0.0, 2.0)
        assert back[0].losses == (0.25, 1.75)
        assert back[0].seed == 100


class TestEstimateCommand:
    def test_noiseless_identity(self, tmp_path):
        m = ModelSpec.parametric("differential", 6, alpha=1.0, beta_tilde=2.0)
        mu = build_mean_matrix(m, np.arange(1, 7))
        path = write_matrix(tmp_path, mu, eol="\r\n")  # CRLF tolerated
        out = tmp_path / "est.txt"
        assert main(["estimate", "--input", str(path), "--kind", "comparison", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.endswith("\n")
        ranks = [int(l.split(",")[1]) for l in text.splitlines() if l and l[0].isdigit()]
        assert ranks == [1, 2, 3, 4, 5, 6]

    def test_exact_recovery_at_high_snr(self, tmp_path):
        import rankphase as rp

        n = 50
        beta = rp.beta_for_snr(n, 3 * math.log(n), 1.0)
        m = ModelSpec.parametric("differential", n, alpha=0.0, beta_tilde=beta)
        X = rp.generate_gaussian(m, np.arange(1, n + 1), 1.0, 424242)
        path = write_matrix(tmp_path, X.values)
        out = tmp_path / "est50.txt"
        code = main(["estimate", "--input", str(path), "--kind", "comparison", "--out", str(out)])
        assert code == 0
        ranks = [int(l.split(",")[1]) for l in out.read_text().splitlines() if l and l[0].isdigit()]
        assert ranks == list(range(1, n + 1))

    def test_collaboration_kind_recovers(self, tmp_path):
        import rankphase as rp

        n = 40
        beta = rp.beta_for_snr(n, 3 * math.log(n), 1.0)
        m = ModelSpec.parametric("additive", n, alpha=0.0, beta_tilde=beta)
        X = rp.generate_gaussian(m, np.arange(1, n + 1), 1.0, 777)
        path = write_matrix(tmp_path, X.values)
        out = tmp_path / "est.txt"
        code = main(["estimate", "--input", str(path), "--kind", "collaboration",
                     "--out", str(out), "--c-n", "3"])
        assert code == 0
        ranks = [int(l.split(",")[1]) for l in out.read_text().splitlines() if l and l[0].isdigit()]
        assert ranks == list(range(1, n + 1))

    def test_reports_stalled_and_match_gap(self, tmp_path, monkeypatch):
        from rankphase import matching

        def header(out):
            lines = out.read_text().splitlines()
            return dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))

        n = 30
        values = np.random.default_rng(0).normal(0.0, 1.0, (n, n))
        path = write_matrix(tmp_path, values)
        out = tmp_path / "est.txt"
        argv = ["estimate", "--input", str(path), "--kind", "comparison", "--out", str(out)]
        assert main(argv) == 0
        exact = header(out)
        assert (exact["stalled"], exact["match_gap"]) == ("false", "0")
        # a matching step over the DP budget leaves a certified gap
        monkeypatch.setattr(matching, "DP_STATE_BUDGET", 50)
        assert main(argv) == 0
        bounded = header(out)
        assert bounded["stalled"] in ("true", "false")
        assert float(bounded["match_gap"]) > 0.0

    # sha256 of the --out file as written while each profile step fitted
    # its line twice; 5 and 7 profile steps, so the fit carried from one
    # step to the next is exercised
    @pytest.mark.parametrize(
        "kind, model, digest",
        [
            ("comparison", "differential",
             "667f66e07da0eefb3a357f133c5aa696a8a44144aaccb7ba5c17c436b59763db"),
            ("collaboration", "additive",
             "edfcf64b82875722da23ef20d4426a86be8325dea23fdb11c97622f6cc43b1c7"),
        ],
    )
    def test_output_at_pinned_digest(self, tmp_path, kind, model, digest):
        import rankphase as rp

        m = ModelSpec.parametric(model, 40, alpha=0.0, beta_tilde=0.05)
        X = rp.generate_gaussian(m, np.arange(1, 41), 1.0, 7)
        path = write_matrix(tmp_path, X.values)
        out = tmp_path / "est.txt"
        assert main(["estimate", "--input", str(path), "--kind", kind, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_max_iters_exit_2(self, tmp_path, capsys, value):
        m = ModelSpec.parametric("differential", 6, alpha=1.0, beta_tilde=2.0)
        path = write_matrix(tmp_path, build_mean_matrix(m, np.arange(1, 7)))
        out = tmp_path / "est.txt"
        argv = ["estimate", "--input", str(path), "--kind", "comparison", "--out", str(out)]
        assert main(argv + ["--max-iters", value]) == 2
        assert "error: --max-iters must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_symmetric_input_degenerate_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        raw = rng.normal(0, 1, (5, 5))
        sym = raw + raw.T
        path = write_matrix(tmp_path, sym)
        code = main(["estimate", "--input", str(path), "--kind", "comparison",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 1
        assert "degenerate" in capsys.readouterr().err

    def test_diagonal_value_rejected(self, tmp_path, capsys):
        vals = np.ones((4, 4))
        path = write_matrix(tmp_path, vals, diag="9.0")
        code = main(["estimate", "--input", str(path), "--kind", "comparison",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 1" in err and "column 1" in err

    def test_non_square_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("NA,1.0\n2.0,NA\n3.0,4.0\n")
        assert main(["estimate", "--input", str(path), "--kind", "comparison",
                     "--out", str(tmp_path / "x.txt")]) == 2

    def test_bad_offdiag_rejected_with_location(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("NA,1.0,2.0\n2.0,NA,oops\n3.0,4.0,NA\n")
        assert main(["estimate", "--input", str(path), "--kind", "comparison",
                     "--out", str(tmp_path / "x.txt")]) == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "column 3" in err

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["estimate", "--input", str(path), "--kind", "comparison",
                     "--out", str(tmp_path / "x.txt")]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["comparison", "collaboration"])
    def test_overflowing_input_rejected_without_numpy_warnings(self, tmp_path, capsys, kind):
        # every entry is finite, but the row sums overflow to inf
        path = write_matrix(tmp_path, np.full((4, 4), 1e308))
        code = main(["estimate", "--input", str(path), "--kind", kind,
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert capsys.readouterr().err == "error: scores must be finite\n"

    def test_too_small_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("NA,1.0\n2.0,NA\n")
        assert main(["estimate", "--input", str(path), "--kind", "comparison",
                     "--out", str(tmp_path / "x.txt")]) == 2


class TestOracleCheckCommand:
    def test_small_run_passes(self, capsys):
        assert main(["oracle-check", "--n", "4", "--instances", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "match rate 1.000" in out

    def test_large_n_refused(self):
        assert main(["oracle-check", "--n", "7", "--instances", "5"]) == 2

    def test_n6_builds_each_grid_once(self, monkeypatch, capsys):
        # the odd instances draw a fresh sum-of-squares budget each; their
        # spaces are filtered from the sum-only parent, whose 6^6 grid is
        # built at most once per c_n
        builds = []
        indices = np.indices

        def counting(dimensions, *args, **kwargs):
            builds.append(dimensions)
            return indices(dimensions, *args, **kwargs)

        model_module._space_members.cache_clear()
        model_module._sum_only_members.cache_clear()
        monkeypatch.setattr(model_module.np, "indices", counting)
        assert main(["oracle-check", "--n", "6", "--instances", "200"]) == 0
        budgets = {_oracle_instance(6, idx, 0)[2].c_n for idx in range(200)}
        budgets.add(RankSpace.default_restricted(6).c_n)
        assert builds and len(builds) <= len(budgets)
        assert "match rate 1.000" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_instances_exit_2(self, capsys, value):
        assert main(["oracle-check", "--n", "4", "--instances", value]) == 2
        captured = capsys.readouterr()
        assert "error: --instances must be >= 1" in captured.err
        assert captured.out == ""


class TestVerifyCommand:
    def test_passes_on_fresh_checkout(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "12/12 identities passed" in out

    def test_fail_inject_names_identity(self, capsys):
        assert main(["verify", "--fail-inject", "score-comparison"]) == 1
        captured = capsys.readouterr()
        assert "FAIL score-comparison" in captured.out
        assert "score-comparison" in captured.err

    def test_unknown_identity_exit_2(self):
        assert main(["verify", "--fail-inject", "no-such-identity"]) == 2


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's rankphase."""
    import os
    import subprocess
    import sys

    import rankphase

    src = str(Path(rankphase.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestSubprocessEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path, reps=1, q_list=[2])
        out = tmp_path / "rows.csv"
        proc = run_python("-m", "rankphase.cli", "simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_usage_error_exit_2(self):
        proc = run_python("-m", "rankphase.cli", "simulate")
        assert proc.returncode == 2

    def test_cli_import_leaves_scipy_unloaded(self, tmp_path):
        proc = run_python("-c", "import sys, rankphase.cli; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        # nor does the Poisson MLE by enumeration: it needs no log(X_ij!) term
        cfg = write_config(tmp_path, model="poisson", n=4, snr_grid=[2.0], reps=1,
                           estimator="brute_force")
        code = (
            "import sys\n"
            "from rankphase.cli import main\n"
            f"code = main(['simulate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'p.csv')!r}])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "0 False"

    def test_poisson_log_likelihood_leaves_scipy_unloaded(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from rankphase import PoissonCounts, poisson_log_likelihood\n"
            "X = PoissonCounts(np.array([[0, 2, 170], [1, 0, 0], [3, 5, 0]]))\n"
            "print(poisson_log_likelihood(X, np.full((3, 3), 2.0)), 'scipy' in sys.modules)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        value, loaded = proc.stdout.split()
        assert loaded == "False"
        log_fact = math.lgamma(3) + math.lgamma(171) + math.lgamma(4) + math.lgamma(6)
        assert float(value) == pytest.approx(181 * math.log(2.0) - 12.0 - log_fact, rel=1e-14)


    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        # a None entry in sys.modules makes any import of scipy fail
        root = Path(__file__).resolve().parent.parent
        dirs = {name: tmp_path / name for name in ("gauss", "poisson", "pd", "est")}
        for d in dirs.values():
            d.mkdir()
        gauss = write_config(dirs["gauss"], n=30, snr_grid=[1e-3, 4.0], reps=2,
                             estimator="profile_ls_adaptive", true_rank="random_feasible")
        poisson = write_config(dirs["poisson"], model="poisson", n=4, snr_grid=[2.0], reps=1,
                               estimator="brute_force")
        m = ModelSpec.parametric("differential", 6, alpha=1.0, beta_tilde=2.0)
        matrix = write_matrix(dirs["est"], build_mean_matrix(m, np.array([2, 1, 3, 6, 5, 4])))
        commands = [
            ["simulate", "--config", str(gauss), "--out", str(dirs["gauss"] / "rows.csv")],
            ["simulate", "--config", str(poisson), "--out", str(dirs["poisson"] / "rows.csv")],
            ["phase-diagram", "--config", str(root / "configs" / "phase_diagram_default.json"),
             "--reps", "2", "--out", str(dirs["pd"])],
            ["estimate", "--input", str(matrix), "--kind", "comparison",
             "--out", str(dirs["est"] / "est.txt")],
            ["oracle-check", "--n", "4"],
            ["verify"],
        ]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from rankphase.cli import main\n"
            f"print(*(main(argv) for argv in {commands!r}), file=sys.stderr)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 0 0 0 0 0"


class TestShippedConfigs:
    def test_default_recipes_run(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        small = root / "configs" / "simulate_small.json"
        recipe = root / "configs" / "phase_diagram_default.json"
        assert small.exists() and recipe.exists()
        assert main(["simulate", "--config", str(small), "--out", str(tmp_path / "s.csv")]) == 0
        out = tmp_path / "pd"
        assert main(["phase-diagram", "--config", str(recipe), "--reps", "5",
                     "--out", str(out)]) == 0
        report = json.loads((out / "regimes.json").read_text())
        regimes = {p["regime"] for p in report["points"]}
        assert regimes == {"trivial", "polynomial", "exponential", "exact"}
