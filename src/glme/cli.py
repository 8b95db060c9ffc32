"""Command-line interface.

Subcommands: fit, fit-ns, simulate, profile, trend, returns.  Standard
output stays machine-clean in csv/json modes and is byte-deterministic
given the input file and options (for simulate, its seed among them);
progress goes to standard error.

Exit codes: 0 success, 1 input error, 2 non-convergence, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from .dataio import read_dataset
from .errors import ConvergenceError
from .estimators import profile_xi
from .gev import GevParams, return_level
from .methods import parse_method
from .nonstationary import ns_return_level
from .simulation import run_grid
from .trend import mann_kendall

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGED = 2
EXIT_NUMERIC = 3


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        dest="fmt",
        help="output format (default table)",
    )
    parser.add_argument("--config", default=None, help="key=value config file; flags win")


def _fit_flags(parser: argparse.ArgumentParser):
    parser.add_argument("data", help="input CSV with a 'value' column")
    parser.add_argument("--penalty", default="flat", help="penalty description (default flat)")
    parser.add_argument("--alpha-n", type=float, default=1.0, help="penalty weight (default 1)")
    parser.add_argument(
        "--return-periods",
        default="50,100,200",
        help="comma-separated return periods (default 50,100,200)",
    )


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and its subparsers by command name, built on the
    first call and shared by every later :func:`main` call in the process;
    parsing and :func:`_apply_config` only read them, and no caller may
    change them."""
    parser = argparse.ArgumentParser(
        prog="glme",
        description="GEV fitting by L-moments with penalty-weighted distance objectives",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    registry = {}

    p = registry["fit"] = subparsers.add_parser("fit", help="fit a stationary GEV model")
    _fit_flags(p)
    # fit-ns does not take it: the trend objective's covariance is exact
    p.add_argument(
        "--cov",
        choices=("bootstrap", "exact"),
        default="bootstrap",
        help="L-moment covariance estimator (default bootstrap, computed exactly)",
    )
    p.add_argument(
        "--method",
        default="glme",
        help="lme | mle | gmle | glme, or a combined name like glme.b.c6",
    )
    _common_flags(p)

    p = registry["fit-ns"] = subparsers.add_parser(
        "fit-ns", help="fit a covariate (default: linear-in-time) GEV model"
    )
    _fit_flags(p)
    p.add_argument("--method", default="glme", help="lme | glme, or e.g. glme.b.c5")
    p.add_argument(
        "--location",
        choices=("tukey", "ols"),
        default="tukey",
        help="location regression (default tukey robust)",
    )
    p.add_argument(
        "--per-year",
        type=float,
        default=None,
        metavar="T",
        help="emit the T-year return level at every time point",
    )
    p.add_argument(
        "--refine",
        action="store_true",
        help="re-run the scale and matching stages once with the fitted intercept",
    )
    _common_flags(p)

    p = registry["simulate"] = subparsers.add_parser(
        "simulate", help="Monte Carlo comparison grid; emits tidy CSV"
    )
    p.add_argument("--scenario", choices=("stationary", "gev11"), default="stationary")
    p.add_argument("--xi", default=None, help="comma-separated shape values")
    p.add_argument("--n", default=None, help="comma-separated sample sizes")
    p.add_argument("--methods", default=None, help="comma-separated method names")
    p.add_argument("--trials", type=int, default=1000, help="trials per cell (default 1000)")
    p.add_argument("--T", type=float, default=100.0, help="return period (default 100)")
    p.add_argument(
        "--cov", choices=("bootstrap", "exact"), default="bootstrap",
        help="stationary covariance estimator inside each trial; gev11 cells use the "
             "exact Gumbel covariance",
    )
    p.add_argument("--seed", type=int, default=42, help="base trial seed (default 42)")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; each cell's trials are spread across them (default 1)",
    )
    _common_flags(p)

    p = registry["profile"] = subparsers.add_parser(
        "profile", help="objective profiles over the shape parameter"
    )
    p.add_argument("data", help="input CSV with a 'value' column")
    p.add_argument(
        "--methods", default="glme", help="comma-separated method names (default glme)"
    )
    p.add_argument(
        "--grid", default="-0.9:0.3:61", help="shape grid lo:hi:count (default -0.9:0.3:61)"
    )
    _common_flags(p)

    p = registry["trend"] = subparsers.add_parser("trend", help="Mann-Kendall trend test")
    p.add_argument("data", help="input CSV with a 'value' column")
    _common_flags(p)

    p = registry["returns"] = subparsers.add_parser(
        "returns", help="return levels for explicit parameters"
    )
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument(
        "--return-periods", default="50,100,200", help="comma-separated return periods"
    )
    _common_flags(p)

    return parser, registry


def _load_config(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _given(subparser, args, argv: list[str]) -> set[str]:
    """The destinations of the options in ``argv``, the command's own
    arguments: argparse fills in the default only of an option it has not
    seen, so ``argv`` is parsed again into a namespace of unset options."""
    unset = object()
    given = argparse.Namespace(**dict.fromkeys(vars(args), unset))
    subparser.parse_args(argv, namespace=given)
    return {dest for dest, value in vars(given).items() if value is not unset}


def _apply_config(args, subparser, config: dict[str, str], given: set[str]):
    """Fill options from the config file, except those in ``given``, the
    options given on the command line: flags win, even one that repeats its
    default."""
    for key, raw in config.items():
        dest = key.replace("-", "_")
        if dest == "format":
            dest = "fmt"
        if not hasattr(args, dest):
            raise ValueError(f"config key {key!r} is not an option of this command")
        if dest in given:
            continue
        current = subparser.get_default(dest)
        if isinstance(current, bool):
            if raw.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
                raise ValueError(f"config key {key!r} needs 1/0, true/false, yes/no or on/off")
            value = raw.lower() in ("1", "true", "yes", "on")
        elif isinstance(current, int) and not isinstance(current, bool):
            value = int(raw)
        elif isinstance(current, float):
            value = float(raw)
        else:
            value = raw
        setattr(args, dest, value)


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        out = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad {what} list {text!r}") from None
    if not out:
        raise ValueError(f"empty {what} list")
    return out


def _emit_json(payload, out):
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(header, rows, out):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _emit_table(cols, vals, out):
    """A header line and one row, each column as wide as its wider cell."""
    width = [max(len(c), len(v)) for c, v in zip(cols, vals)]
    out.write("  ".join(c.ljust(w) for c, w in zip(cols, width)).rstrip() + "\n")
    out.write("  ".join(v.ljust(w) for v, w in zip(vals, width)).rstrip() + "\n")


def _fmt_num(x) -> str:
    return repr(float(x))


def _cmd_fit(args, out) -> int:
    ds = read_dataset(args.data)
    spec = parse_method(args.method, args.penalty)
    periods = _parse_float_list(args.return_periods, "return period")
    fit = spec.fit_stationary(ds.values, cov_method=args.cov, alpha_n=args.alpha_n)
    levels = {T: return_level(fit.params, T) for T in periods}

    if args.fmt == "json":
        _emit_json(
            {
                "method": fit.method,
                "mu": fit.params.mu,
                "sigma": fit.params.sigma,
                "xi": fit.params.xi,
                "converged": fit.converged,
                "objective_value": fit.objective_value,
                "iterations": fit.iterations,
                "alpha_n": fit.alpha_n,
                "return_levels": {f"{T:g}": levels[T] for T in periods},
            },
            out,
        )
    elif args.fmt == "csv":
        header = ["method", "mu", "sigma", "xi", "converged", "objective_value"] + [
            f"r{T:g}" for T in periods
        ]
        row = [fit.method, _fmt_num(fit.params.mu), _fmt_num(fit.params.sigma),
               _fmt_num(fit.params.xi), fit.converged, _fmt_num(fit.objective_value)] + [
            _fmt_num(levels[T]) for T in periods
        ]
        _emit_csv(header, [row], out)
    else:
        cols = ["method", "mu", "sigma", "xi"] + [f"r{T:g}" for T in periods]
        vals = [fit.method, f"{fit.params.mu:.2f}", f"{fit.params.sigma:.2f}",
                f"{fit.params.xi:.2f}"] + [f"{levels[T]:.0f}" for T in periods]
        _emit_table(cols, vals, out)
    return EXIT_OK


def _ns_design(ds):
    X = ds.covariate_matrix()
    if X is not None:
        return X
    if ds.year is None:
        raise ValueError(
            "the default linear-in-time model needs a 'year' column or covariate columns"
        )
    return ds.time_design()


def _cmd_fit_ns(args, out) -> int:
    ds = read_dataset(args.data)
    X = _ns_design(ds)
    spec = parse_method(args.method, args.penalty)
    periods = _parse_float_list(args.return_periods, "return period")
    fit = spec.fit_ns(ds.values, X, location_method=args.location, refine=args.refine,
                      alpha_n=args.alpha_n)
    model = fit.model
    end = model.n_obs - 1
    levels = {T: ns_return_level(model, T, end) for T in periods}

    coef_names = (
        [f"mu_{j}" for j in range(model.k + 1)]
        + [f"sigma_{j}" for j in range(model.k + 1)]
        + ["xi"]
    )
    coef_vals = list(model.mu_coef) + list(model.sigma_coef) + [model.xi]

    if args.per_year is not None:
        T = args.per_year
        series = [ns_return_level(model, T, t) for t in range(model.n_obs)]
        years = ds.year if ds.year is not None else np.arange(1, model.n_obs + 1)
        if args.fmt == "json":
            _emit_json(
                {
                    "method": fit.method,
                    "T": T,
                    "series": [
                        {"t": t + 1, "year": int(years[t]), "value": series[t]}
                        for t in range(model.n_obs)
                    ],
                },
                out,
            )
        else:
            _emit_csv(
                ["t", "year", f"r{T:g}"],
                [[t + 1, int(years[t]), _fmt_num(series[t])] for t in range(model.n_obs)],
                out,
            )
        return EXIT_OK

    if args.fmt == "json":
        _emit_json(
            {
                "method": fit.method,
                "coefficients": dict(zip(coef_names, coef_vals)),
                "converged": fit.converged,
                "iterations": fit.iterations,
                "objective_value": fit.objective_value,
                "return_levels_end_of_sample": {f"{T:g}": levels[T] for T in periods},
            },
            out,
        )
    elif args.fmt == "csv":
        header = ["method"] + coef_names + ["converged"] + [f"r{T:g}" for T in periods]
        row = [fit.method] + [_fmt_num(v) for v in coef_vals] + [fit.converged] + [
            _fmt_num(levels[T]) for T in periods
        ]
        _emit_csv(header, [row], out)
    else:
        cols = ["method"] + coef_names + [f"r{T:g}" for T in periods]
        vals = [fit.method] + [f"{v:.3f}" for v in coef_vals] + [
            f"{levels[T]:.0f}" for T in periods
        ]
        _emit_table(cols, vals, out)
    return EXIT_OK


def _cmd_simulate(args, out) -> int:
    xis = _parse_float_list(args.xi, "xi") if args.xi else None
    ns = [int(v) for v in _parse_float_list(args.n, "n")] if args.n else None
    methods = (
        tuple(m.strip() for m in args.methods.split(",") if m.strip())
        if args.methods
        else None
    )

    def progress(done, total, cell):
        print(
            f"cell {done}/{total} scenario={cell.scenario} xi={cell.xi:g} n={cell.n}",
            file=sys.stderr,
        )

    reports = run_grid(
        scenario=args.scenario,
        xis=xis,
        ns=ns,
        methods=methods,
        N=args.trials,
        base_seed=args.seed,
        T=args.T,
        cov_method=args.cov,
        jobs=args.jobs,
        progress=progress,
    )
    rows = []
    for report in reports:
        for m in report.methods:
            rows.append(
                [
                    m.scenario,
                    _fmt_num(m.xi),
                    m.n,
                    m.method,
                    _fmt_num(m.bias),
                    _fmt_num(m.se),
                    _fmt_num(m.rmse),
                    m.n_failures,
                    _fmt_num(m.truth),
                ]
            )
    _emit_csv(
        ["scenario", "xi", "n", "method", "bias", "se", "rmse", "n_failures", "truth"],
        rows,
        out,
    )
    return EXIT_OK


def _cmd_profile(args, out) -> int:
    ds = read_dataset(args.data)
    parts = args.grid.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad grid {args.grid!r}; expected lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or hi < lo:
        raise ValueError(f"bad grid {args.grid!r}")
    grid = np.linspace(lo, hi, count)

    method_names = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not method_names:
        raise ValueError("empty method list")
    curves = []
    for name in method_names:
        spec = parse_method(name)
        kind = "mle" if spec.kind in ("mle", "gmle") else "glme"
        points = profile_xi(ds.values, method=kind, penalty=spec.penalty, grid=grid)
        curves.append((name, points))

    if args.fmt == "json":
        _emit_json(
            {
                "curves": [
                    {
                        "method": name,
                        "points": [
                            {"xi": p.xi, "value": p.value, "converged": p.converged}
                            for p in points
                        ],
                    }
                    for name, points in curves
                ]
            },
            out,
        )
    else:
        rows = [
            [name, _fmt_num(p.xi), _fmt_num(p.value), p.converged]
            for name, points in curves
            for p in points
        ]
        _emit_csv(["method", "xi", "value", "converged"], rows, out)
    return EXIT_OK


def _cmd_trend(args, out) -> int:
    ds = read_dataset(args.data)
    res = mann_kendall(ds.values)
    if args.fmt == "json":
        _emit_json(
            {
                "tau": res.tau,
                "p_value": res.p_value,
                "s": res.s,
                "var_s": res.var_s,
                "z": res.z,
                "n": res.n,
            },
            out,
        )
    elif args.fmt == "csv":
        _emit_csv(
            ["tau", "p_value", "s", "var_s", "z", "n"],
            [[_fmt_num(res.tau), _fmt_num(res.p_value), _fmt_num(res.s),
              _fmt_num(res.var_s), _fmt_num(res.z), res.n]],
            out,
        )
    else:
        out.write(f"tau={res.tau:.3f} p={res.p_value:.3f} n={res.n}\n")
    return EXIT_OK


def _cmd_returns(args, out) -> int:
    params = GevParams(args.mu, args.sigma, args.xi)
    periods = _parse_float_list(args.return_periods, "return period")
    levels = [(T, return_level(params, T)) for T in periods]
    if args.fmt == "json":
        _emit_json({f"{T:g}": r for T, r in levels}, out)
    elif args.fmt == "csv":
        _emit_csv(["T", "return_level"], [[_fmt_num(T), _fmt_num(r)] for T, r in levels], out)
    else:
        for T, r in levels:
            out.write(f"r{T:g} = {r:.0f}\n")
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "fit-ns": _cmd_fit_ns,
    "simulate": _cmd_simulate,
    "profile": _cmd_profile,
    "trend": _cmd_trend,
    "returns": _cmd_returns,
}


def main(argv=None) -> int:
    parser, registry = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            subparser = registry[args.command]
            given = _given(subparser, args, argv[argv.index(args.command) + 1:])
            _apply_config(args, subparser, _load_config(args.config), given)
        # buffer everything so failed commands emit no partial output
        buffer = io.StringIO()
        code = _COMMANDS[args.command](args, buffer)
        sys.stdout.write(buffer.getvalue())
        return code
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        best = getattr(exc, "best", None)
        if best is not None:
            print(f"best point found: {best}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, ArithmeticError, NotImplementedError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
