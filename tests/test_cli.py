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
from glme.cli import main
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
                "--methods", "lme,glme.b.c1", "--trials", "5", "--cov-b", "100", "--seed", "3"]
        _, a, _ = run_cli(args, capsys)
        code, b, err = run_cli(args + ["--jobs", "2"], capsys)
        assert code == 0 and len(a.splitlines()) == 5
        assert a == b
        assert "cell 1/2" in err and "cell 2/2" in err

    # sha256 of the CSV on both default grids, recorded before the methods of
    # a trial shared their L-moment fit and covariance; a change that moves
    # these numbers on purpose records new digests and says why
    GRID_DIGESTS = {
        "stationary": "c0dbfb117a55c466b0fcd280048747839e264489b6135d87bd85156c2a94fa51",
        "gev11": "f190d3fb75b61e6f63db30cc4f88daa5b963645b75e5bc10af41819ba857660c",
    }

    @pytest.mark.parametrize("scenario", GRID_DIGESTS)
    def test_default_grid_bytes(self, scenario, capsys):
        code, out, _ = run_cli(["simulate", "--scenario", scenario, "--trials", "5",
                                "--cov-b", "100", "--format", "csv"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GRID_DIGESTS[scenario]

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
             "--grid=-0.7:-0.2:26", "--seed", "42"],
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
        cfg.write_text("# fit settings\nmethod=lme\nformat=json\nseed=7\n")
        code, out, _ = run_cli(["fit", flood_csv, "--config", str(cfg)], capsys)
        assert code == 0
        doc = json.loads(out)  # format came from the config
        assert doc["method"] == "lme"
        assert doc["seed"] == 7
        # explicit flag beats the config value
        code, out, _ = run_cli(
            ["fit", flood_csv, "--config", str(cfg), "--method", "mle"], capsys
        )
        doc = json.loads(out)
        assert doc["method"] == "mle"
        assert doc["seed"] == 7

    def test_unknown_key_rejected(self, flood_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("virtue=high\n")
        code, _, err = run_cli(["fit", flood_csv, "--config", str(cfg)], capsys)
        assert code == 1
        assert "virtue" in err

    def test_malformed_config_line(self, flood_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method\n")
        code, _, err = run_cli(["fit", flood_csv, "--config", str(cfg)], capsys)
        assert code == 1
        assert "line 1" in err


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
