"""Command-line surface: parsing, outputs, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glme
from glme.cli import build_parser, main
from glme.dataio import Dataset, fixture_path, read_dataset
from glme.nonstationary import NsModel, gev11_design, ns_sample


@pytest.fixture()
def flood_csv(flood):
    return str(fixture_path("losspw.csv"))


@pytest.fixture()
def trend_csv(tmp_path):
    path = tmp_path / "trend.csv"
    X = gev11_design(60)
    z = ns_sample(NsModel([50.0, 0.5], [2.0, 0.01], -0.15, X), seed=5)
    with path.open("w") as fh:
        fh.write("year,value\n")
        for i, v in enumerate(z):
            fh.write(f"{1960 + i},{float(v)!r}\n")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReadDataset:
    def test_reads_fixture(self, flood_csv):
        ds = read_dataset(flood_csv)
        assert ds.n == 66
        assert ds.year[0] == 1932 and ds.year[-1] == 1997
        assert not ds.covariates

    def test_missing_value_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("year,amount\n1990,3\n")
        with pytest.raises(ValueError, match="value"):
            read_dataset(p)

    def test_non_numeric_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("value\n1.0\nbogus\n")
        with pytest.raises(ValueError, match="line 3"):
            read_dataset(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("year,value\n1990,1.0\n1991\n")
        with pytest.raises(ValueError, match="line 3"):
            read_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_dataset(p)

    def test_covariate_columns(self, tmp_path):
        p = tmp_path / "cov.csv"
        p.write_text("value,temp\n1.0,14.2\n2.0,14.5\n3.0,15.1\n")
        ds = read_dataset(p)
        assert list(ds.covariates) == ["temp"]
        assert ds.covariate_matrix().shape == (3, 1)

    def test_year_must_increase(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("year,value\n1990,1.0\n1990,2.0\n")
        with pytest.raises(ValueError, match="increasing"):
            read_dataset(p)

    @pytest.mark.parametrize("year", ["inf", "-inf", "nan"])
    def test_year_must_be_finite(self, tmp_path, year):
        # an infinite year passed the integer check and was cast to int64's minimum
        p = tmp_path / "x.csv"
        p.write_text(f"year,value\n{year},1.0\n1990,2.0\n")
        with pytest.raises(ValueError, match="year column must be finite"):
            read_dataset(p)


class TestFit:
    def test_lme_matches_reported_row(self, flood_csv, capsys):
        code, out, _ = run_cli(["fit", flood_csv, "--method", "lme", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["mu"] == pytest.approx(129.89, rel=0.005)
        assert doc["sigma"] == pytest.approx(120.70, rel=0.005)
        assert doc["xi"] == pytest.approx(-0.377, abs=0.01)
        assert doc["return_levels"]["50"] == pytest.approx(1205.0, rel=0.005)
        assert doc["return_levels"]["100"] == pytest.approx(1626.0, rel=0.005)
        assert doc["return_levels"]["200"] == pytest.approx(2172.0, rel=0.005)

    def test_adaptive_choice_one(self, flood_csv, capsys):
        code, out, _ = run_cli(
            ["fit", flood_csv, "--method", "glme", "--penalty", "beta_adaptive:choice=1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["xi"] == pytest.approx(-0.409, abs=0.01)

    def test_combined_method_name(self, flood_csv, capsys):
        code, out, _ = run_cli(
            ["fit", flood_csv, "--method", "glme.b.c6", "--cov", "exact", "--format", "csv"],
            capsys,
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["method"] == "glme.b.c6"
        assert float(row["xi"]) == pytest.approx(-0.453, abs=0.01)
        assert float(row["r100"]) == pytest.approx(1824.0, rel=0.01)

    def test_table_rounding(self, flood_csv, capsys):
        code, out, _ = run_cli(["fit", flood_csv, "--method", "lme"], capsys)
        assert code == 0
        line = out.splitlines()[1]
        assert "129.89" in line and "120.70" in line
        assert "1205" in line and "1627" in line  # integers for levels

    def test_table_bytes(self, flood_csv, capsys):
        _, out, _ = run_cli(["fit", flood_csv, "--method", "lme"], capsys)
        assert out == (
            "method  mu      sigma   xi     r50   r100  r200\n"
            "lme     129.89  120.70  -0.38  1205  1627  2172\n"
        )

    def test_empty_file_no_partial_output(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("")
        code, out, err = run_cli(["fit", str(p)], capsys)
        assert code == 1
        assert out == ""
        assert "empty" in err

    def test_malformed_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("value\n1.0\noops\n3.0\n")
        code, out, err = run_cli(["fit", str(p)], capsys)
        assert code == 1
        assert out == ""
        assert "line 3" in err

    def test_json_round_trips(self, flood_csv, capsys):
        code, out, _ = run_cli(["fit", flood_csv, "--method", "lme", "--format", "json"], capsys)
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    def test_zero_penalty_weight_collapses_to_lme(self, flood_csv, capsys):
        _, ref, _ = run_cli(["fit", flood_csv, "--method", "lme", "--format", "json"], capsys)
        _, out, _ = run_cli(
            ["fit", flood_csv, "--method", "glme.b.c6", "--alpha-n", "0",
             "--format", "json"],
            capsys,
        )
        lme, glme = json.loads(ref), json.loads(out)
        assert glme["xi"] == pytest.approx(lme["xi"], abs=1e-6)
        assert glme["mu"] == pytest.approx(lme["mu"], abs=1e-4)

    def test_json_has_no_seed(self, flood_csv, capsys):
        _, out, _ = run_cli(["fit", flood_csv, "--format", "json"], capsys)
        assert "seed" not in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["fit", "{flood}", "--seed", "1"],
    ["fit", "{flood}", "--cov-b", "200"],
    ["fit-ns", "{trend}", "--seed", "1"],
    ["profile", "{flood}", "--seed", "1"],
    ["profile", "{flood}", "--cov-b", "200"],
    ["trend", "{flood}", "--seed", "1"],
    ["returns", "--mu", "0", "--sigma", "1", "--xi", "0", "--seed", "1"],
    ["simulate", "--cov-b", "200"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]))
def test_no_seed_or_resample_count_outside_simulate(argv, flood_csv, trend_csv, capsys):
    # the covariances are exact, so only simulate's samplers take a seed
    argv = [a.format(flood=flood_csv, trend=trend_csv) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestFitNs:
    def test_fits_trend_fixture(self, trend_csv, capsys):
        code, out, _ = run_cli(
            ["fit-ns", trend_csv, "--method", "glme.b.c5", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        coef = doc["coefficients"]
        assert coef["mu_1"] == pytest.approx(0.5, abs=0.25)
        assert doc["converged"] is True
        assert doc["iterations"] >= 1

    def test_table_bytes(self, trend_csv, capsys):
        _, out, _ = run_cli(["fit-ns", trend_csv, "--method", "lme"], capsys)
        assert out == (
            "method  mu_0    mu_1   sigma_0  sigma_1  xi      r50  r100  r200\n"
            "lme     47.108  0.590  2.166    0.008    -0.168  161  182   205\n"
        )

    @pytest.mark.parametrize("flag", [["--cov", "exact"], ["--cov-b", "200"]])
    def test_covariance_flags_are_usage_errors(self, trend_csv, flag, capsys):
        # the trend objective's covariance is exact, so fit-ns takes neither
        with pytest.raises(SystemExit) as exc:
            main(["fit-ns", trend_csv, "--method", "glme.b.c5", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_time_information(self, tmp_path, capsys):
        p = tmp_path / "laneless.csv"
        p.write_text("value\n1.0\n2.0\n3.0\n4.0\n5.0\n6.0\n")
        code, out, err = run_cli(["fit-ns", str(p)], capsys)
        assert code == 1
        assert "year" in err

    def test_per_year_series(self, trend_csv, capsys):
        code, out, _ = run_cli(
            ["fit-ns", trend_csv, "--method", "lme", "--per-year", "40"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 60
        assert rows[0]["year"] == "1960"
        levels = np.array([float(r["r40"]) for r in rows])
        assert np.all(np.isfinite(levels))

    def test_covariates_win_over_year(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        p = tmp_path / "cov.csv"
        with p.open("w") as fh:
            fh.write("year,value,press\n")
            for i in range(40):
                fh.write(f"{2000 + i},{float(50 + rng.normal()):.6f},{float(i % 7):.1f}\n")
        code, out, _ = run_cli(["fit-ns", str(p), "--format", "json"], capsys)
        assert code == 0


class TestSimulate:
    ARGS = [
        "simulate", "--xi", "-0.3", "--n", "30", "--methods", "lme,glme.b.c1",
        "--trials", "12", "--seed", "7",
    ]

    def test_csv_schema_and_identity(self, capsys):
        code, out, err = run_cli(self.ARGS, capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["method"] for r in rows] == ["lme", "glme.b.c1"]
        assert list(rows[0]) == [
            "scenario", "xi", "n", "method", "bias", "se", "rmse", "n_failures", "truth",
        ]
        for r in rows:
            assert float(r["rmse"]) ** 2 == pytest.approx(
                float(r["bias"]) ** 2 + float(r["se"]) ** 2, rel=1e-9
            )
        assert "cell 1/1" in err  # progress on stderr only

    def test_byte_deterministic(self, capsys):
        _, a, _ = run_cli(self.ARGS, capsys)
        _, b, _ = run_cli(self.ARGS, capsys)
        assert a == b

    def test_jobs_do_not_change_bytes(self, capsys):
        _, a, _ = run_cli(self.ARGS, capsys)
        _, b, _ = run_cli(self.ARGS + ["--jobs", "2"], capsys)
        assert a == b

    def test_jobs_do_not_change_bytes_over_two_cells(self, capsys):
        args = ["simulate", "--scenario", "gev11", "--xi=-0.3,0.1", "--n", "40",
                "--methods", "lme,glme.b.c1", "--trials", "5", "--seed", "3"]
        _, a, _ = run_cli(args, capsys)
        code, b, err = run_cli(args + ["--jobs", "2"], capsys)
        assert code == 0 and len(a.splitlines()) == 5
        assert a == b
        assert "cell 1/2" in err and "cell 2/2" in err

    # sha256 of the CSV on both default grids, recorded when gamma and the
    # beta function moved from scipy.special to the math module (last-bit
    # moves; the same n_failures in every row); a change that moves these
    # numbers on purpose records new digests and says why.  gev11 moved
    # again when the trend glme objective's Gumbel L-moment covariance went
    # from a seeded bootstrap to the exact closed form (glme rows only; the
    # same n_failures in every row).  stationary moved again when the
    # stationary glme covariance went from a seeded Monte Carlo bootstrap
    # (B=100 here) to the exact bootstrap limit (glme rows only; lme and mle
    # rows byte-identical, the same n_failures in every row).  gev11 moved
    # again when fit_ns_lme went from a chain of start points to the one
    # shape-0 start: the same roots at solver tolerance (bias moves up to
    # 2.4e-7 here, 1.4e-7 at 300 trials), the same n_failures in every row.
    # stationary moved again when the likelihood kernel's sums were fused
    # and its Newton steps moved to an LDL' solve in scalar floats: the same
    # minima at solver tolerance (mle rows only, bias, se and rmse move up
    # to 3.6e-8 of the true return level; the same n_failures in every
    # row).  stationary and lme,glme.b.c1 moved again when the glme shape
    # profile went from numpy arrays to scalar floats: its values differ in
    # the last bits, so Brent's search ends elsewhere inside its tolerance
    # (glme rows only; at 100 trials bias moves up to 1.3e-9 of the true
    # return level, se and rmse up to 2.5e-9; the same n_failures in every
    # row).  gev11 moved again when fit_ns_glme went from its own
    # Levenberg-Marquardt search to the likelihood fits' damped Newton
    # minimizer: the same minima at solver tolerance, or lower where the
    # former search stopped early (glme rows only; lme rows byte-identical,
    # the same n_failures in every row; bias, se and rmse move up to 9.0e-7
    # of the true return level here, 2.9e-7 at 200 trials).  The
    # lme,glme.b.c1 entry runs only the methods of the
    # benchmark's simulate cells, so a change that must leave those trials
    # alone shows it here byte for byte.
    GRID_RUNS = {
        "stationary": ["--scenario", "stationary"],
        "gev11": ["--scenario", "gev11"],
        "stationary-lme,glme.b.c1": ["--scenario", "stationary", "--methods", "lme,glme.b.c1"],
    }
    GRID_DIGESTS = {
        "stationary": "cae4410bf880d820190a2334977ce0a428c00b6c8e67aa60e523d10eb6d15767",
        "gev11": "9e156babd6a129f0b759d4cc2ba917d4b60468c49ff2c1c0c41d6c218af4dd4a",
        "stationary-lme,glme.b.c1":
            "0448d4cdebcfd96bb083bd41af746eafff165e39c012c7fb1e240bbbfaf32ded",
    }

    @pytest.mark.parametrize("grid", GRID_DIGESTS)
    def test_default_grid_bytes(self, grid, capsys):
        code, out, _ = run_cli(["simulate", *self.GRID_RUNS[grid], "--trials", "5",
                                "--format", "csv"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GRID_DIGESTS[grid]

    def test_sample_size_below_a_method_minimum_fails_fast(self, capsys):
        args = ["simulate", "--xi=-0.3", "--methods", "lme,glme.n.c3", "--trials", "3"]
        code, out, err = run_cli(args + ["--n", "8"], capsys)
        assert code == 1 and out == ""
        assert "'glme.n.c3' needs n >= 10, got n=8" in err
        assert "cell" not in err  # refused before any cell ran
        code, out, _ = run_cli(args + ["--n", "10"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["method"], r["n"], r["n_failures"]) for r in rows] == [
            ("lme", "10", "0"), ("glme.n.c3", "10", "0")]

    def test_bad_method_fails_fast(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--xi", "-0.3", "--n", "30", "--methods", "nope", "--trials", "2"],
            capsys,
        )
        assert code == 1
        assert out == ""


class TestProfile:
    def test_single_point_grid(self, flood_csv, capsys):
        code, out, _ = run_cli(
            ["profile", flood_csv, "--methods", "lme", "--grid=-0.4:-0.4:1"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["xi"]) == pytest.approx(-0.4)

    def test_maxima_match_fit_estimates(self, flood_csv, capsys):
        code, out, _ = run_cli(
            ["profile", flood_csv, "--methods", "lme,glme.n.c4,glme.b.c6",
             "--grid=-0.7:-0.2:26"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        argmax = {}
        for name in ("lme", "glme.n.c4", "glme.b.c6"):
            pts = [(float(r["xi"]), float(r["value"])) for r in rows if r["method"] == name]
            argmax[name] = max(pts, key=lambda t: t[1])[0]
        spacing = 0.02
        assert argmax["lme"] == pytest.approx(-0.377, abs=spacing + 1e-9)
        # shape ordering matches the fitted estimates
        assert argmax["glme.b.c6"] < argmax["glme.n.c4"] < argmax["lme"] + 1e-9


class TestTrend:
    def test_flood_values(self, flood_csv, capsys):
        code, out, _ = run_cli(["trend", flood_csv, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["tau"] == pytest.approx(-0.058, abs=0.002)
        assert doc["p_value"] == pytest.approx(0.493, abs=0.01)

    def test_strictly_increasing(self, tmp_path, capsys):
        p = tmp_path / "up.csv"
        p.write_text("value\n" + "\n".join(str(float(i)) for i in range(12)) + "\n")
        code, out, _ = run_cli(["trend", str(p), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["tau"] == pytest.approx(1.0)

    def test_too_short_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        p.write_text("value\n1\n2\n3\n")
        code, _, err = run_cli(["trend", str(p)], capsys)
        assert code == 1
        assert "at least 8" in err


class TestReturns:
    def test_levels(self, capsys):
        code, out, _ = run_cli(
            ["returns", "--mu", "100", "--sigma", "30", "--xi", "-0.2",
             "--return-periods", "100", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["100"] == pytest.approx(326.4047922575735, rel=1e-12)

    def test_bad_sigma_is_input_error(self, capsys):
        code, _, err = run_cli(["returns", "--mu", "0", "--sigma", "-1", "--xi", "0"], capsys)
        assert code == 1


class TestConfig:
    def test_config_supplies_defaults_flags_win(self, flood_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# fit settings\nmethod=lme\nformat=json\nreturn-periods=10,20\n")
        code, out, _ = run_cli(["fit", flood_csv, "--config", str(cfg)], capsys)
        assert code == 0
        doc = json.loads(out)  # format came from the config
        assert doc["method"] == "lme"
        assert sorted(doc["return_levels"]) == ["10", "20"]
        # explicit flag beats the config value
        code, out, _ = run_cli(
            ["fit", flood_csv, "--config", str(cfg), "--method", "mle"], capsys
        )
        doc = json.loads(out)
        assert doc["method"] == "mle"
        assert sorted(doc["return_levels"]) == ["10", "20"]

    def test_unknown_key_rejected(self, flood_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("virtue=high\n")
        code, _, err = run_cli(["fit", flood_csv, "--config", str(cfg)], capsys)
        assert code == 1
        assert "virtue" in err

    @pytest.mark.parametrize("command", ["fit", "fit-ns"])
    def test_seed_key_rejected_where_nothing_is_seeded(self, command, trend_csv, tmp_path,
                                                       capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=lme\nseed=7\n")
        code, out, err = run_cli([command, trend_csv, "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert "'seed' is not an option" in err

    def test_flag_equal_to_its_default_still_wins(self, trend_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("location=ols\nformat=json\n")
        base = ["fit-ns", trend_csv, "--format", "json"]
        _, tukey, _ = run_cli(base + ["--location", "tukey"], capsys)
        _, ols, _ = run_cli(base + ["--location", "ols"], capsys)
        assert tukey != ols
        code, out, _ = run_cli(["fit-ns", trend_csv, "--location", "tukey", "--config", str(cfg)],
                               capsys)
        assert code == 0 and out == tukey
        code, out, _ = run_cli(["fit-ns", trend_csv, "--config", str(cfg)], capsys)
        assert code == 0 and out == ols

    @pytest.mark.parametrize("raw,ok", [("ture", False), ("2", False), ("", False),
                                        ("Yes", True), ("off", True)])
    def test_boolean_values_checked(self, raw, ok, trend_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"method=lme\nrefine={raw}\n")
        code, out, err = run_cli(["fit-ns", trend_csv, "--config", str(cfg)], capsys)
        if ok:
            assert code == 0
        else:
            assert code == 1 and out == ""
            assert "'refine'" in err

    def test_malformed_config_line(self, flood_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method\n")
        code, _, err = run_cli(["fit", flood_csv, "--config", str(cfg)], capsys)
        assert code == 1
        assert "line 1" in err


class TestParserCache:
    """``main`` builds the parser once per process and shares it."""

    def test_back_to_back_calls_print_what_fresh_calls_print(
            self, flood_csv, trend_csv, tmp_path, capsys):
        fit_cfg = tmp_path / "fit.cfg"
        fit_cfg.write_text("method=lme\nformat=json\nreturn-periods=10,20\n")
        csv_cfg = tmp_path / "csv.cfg"
        csv_cfg.write_text("format=csv\ncov=exact\n")
        calls = [
            ["fit", flood_csv, "--config", str(fit_cfg)],
            ["fit", flood_csv, "--method", "mle", "--format", "csv"],
            ["fit", flood_csv, "--config", str(fit_cfg), "--method", "gmle.n.c2"],
            ["fit", "--no-such-flag"],
            ["fit-ns", trend_csv, "--method", "lme", "--refine", "--config", str(csv_cfg)],
            ["fit-ns", trend_csv, "--method", "lme"],
            ["returns", "--mu", "1", "--sigma", "2", "--xi=-0.1", "--config", str(csv_cfg)],
            ["trend", flood_csv, "--format", "json"],
            ["fit", flood_csv, "--config", str(csv_cfg), "--method", "glme.n.c2"],
            ["simulate", "--xi=-0.3", "--n", "30", "--methods", "lme", "--trials", "2"],
            ["fit", flood_csv],
        ]

        def call(argv):
            try:
                return run_cli(argv, capsys)
            except SystemExit as exc:  # argparse rejects the flags
                return (exc.code, *capsys.readouterr())

        shared = [call(argv) for argv in calls]
        assert build_parser() is build_parser()
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(call(argv))
        assert shared == fresh
        # fit-ns and returns reject the config's cov, which only fit takes
        assert [c for c, _, _ in shared] == [0, 0, 0, 2, 1, 0, 1, 0, 0, 0, 0]


class TestEntryPoint:
    def test_module_invocation(self, flood_csv):
        # the child finds the package where this process found it
        src = str(Path(glme.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "glme.cli", "trend", flood_csv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "tau=-0.058" in proc.stdout
