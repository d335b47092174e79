"""Command-line surface: simulate data, estimate, evaluate, replicate.

All commands are driven by JSON config files carrying ``schema_version: 1``;
unknown keys are rejected before any computation.  Exit codes: 0 on success,
1 on usage errors, bad config or input values and unreadable or unwritable
files, 2 when a run completed with warnings (clamped probabilities,
nonconvergent solves returning their best iterate).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .basis import Domain, domain_from_json
from .checks import json_dataclass, json_field, json_object
from .choicemodel import read_dataset_csv, write_dataset_csv
from .distribution import (
    TRUTH_SAMPLES,
    DiscreteDistribution,
    ise,
    joint_cdf,
    joint_cdf_lattice,
    lattice_points,
    marginal_cdf,
    mean,
    mixture_cdf_lattice,
    true_mixture_cdf,
)
from .estimator import (
    FitResult,
    RefineOptions,
    SolverOptions,
    fit_asg,
    fit_fkrb,
    fit_from_json,
    fit_sg,
    fit_to_json,
)
from .quasirand import DEFAULT_BURN_IN, read_draws_csv, write_csv_columns
from .simulate import (
    McConfig,
    MixtureDgp,
    dgp_from_json,
    dgp_to_json,
    four_normal_mixture,
    make_dataset,
    report_to_json,
    run_experiment,
    two_normal_mixture,
    write_table_csv,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WARNINGS = 2

# Points per axis of write_marginals_csv's distribution functions
_MARGINAL_POINTS = 201


class UsageError(Exception):
    """Configuration or invocation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            obj = json_object(json.load(fh), f"config {path}")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from None
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(
            f"config {path} must declare \"schema_version\": {SCHEMA_VERSION}"
        )
    return obj


_DGP_PRESET = re.compile(r"^(two|four)-normals-d(\d+)$")


def _dgp_from_preset(name: str) -> MixtureDgp:
    m = _DGP_PRESET.match(name) if isinstance(name, str) else None
    if not m:
        raise UsageError(
            f"unknown preset {name!r}; expected two-normals-d<D> or four-normals-d<D>"
        )
    dim = int(m.group(2))
    if dim < 1:
        raise UsageError("preset dimension must be >= 1")
    return two_normal_mixture(dim) if m.group(1) == "two" else four_normal_mixture(dim)


def _parse_dgp(config: dict, preset_key: str = "preset") -> MixtureDgp:
    if config.get(preset_key):
        return _dgp_from_preset(config[preset_key])
    if config.get("dgp") is not None:
        try:
            return dgp_from_json(config["dgp"])
        except ValueError as exc:
            raise UsageError(f"invalid dgp: {exc}") from None
    raise UsageError("config needs either a preset or an explicit dgp")


def write_points_csv(points: np.ndarray, values: np.ndarray, name: str, path) -> None:
    """One value per point: columns beta_1..beta_D, then ``name``."""
    header = [f"beta_{d + 1}" for d in range(points.shape[1])] + [name]
    write_csv_columns(path, header, [*points.T, values])


def write_marginals_csv(fit: FitResult, path) -> None:
    """Per-dimension marginal distribution functions in long format, at
    ``_MARGINAL_POINTS`` points per axis."""
    dist = DiscreteDistribution.from_fit(fit)
    grids = fit.domain.axes(_MARGINAL_POINTS)
    write_csv_columns(path, ["dim", "t", "F_hat"], [
        np.repeat(np.arange(1, len(grids) + 1), _MARGINAL_POINTS),
        np.concatenate(grids),
        np.concatenate([marginal_cdf(dist, d, grid) for d, grid in enumerate(grids)]),
    ])


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    json_object(config, "simulate config", allowed=(
        "schema_version", "preset", "dgp", "n_units", "n_alts", "seed", "out_data", "out_truth"))
    dgp = _parse_dgp(config)
    n_units = json_field(config, "n_units", int, default=McConfig.n_units, low=1)
    n_alts = json_field(config, "n_alts", int, default=McConfig.n_alts, low=1)
    seed = json_field(config, "seed", int, default=0, low=0)
    # a string, since an integer would name an open file descriptor
    out_data = json_field(config, "out_data", str, default="data.csv")
    out_truth = json_field(config, "out_truth", str, default="truth.json")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    data = make_dataset(dgp, n_units, n_alts, rng)
    try:
        write_dataset_csv(data, out_data)
        with open(out_truth, "w") as fh:
            json.dump(
                {
                    "schema_version": SCHEMA_VERSION,
                    "dgp": dgp_to_json(dgp),
                    "n_units": n_units,
                    "n_alts": n_alts,
                    "seed": seed,
                },
                fh,
                indent=2,
            )
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from None
    print(f"wrote {out_data} ({n_units} units x {n_alts} alternatives) and {out_truth}")
    return EXIT_OK


# The config keys each estimator reads besides the common ones.
_ESTIMATOR_KEYS = {
    "sg": {"level", "draws"}, "asg": {"level", "draws", "refinement"}, "fkrb": {"q"},
}


def cmd_estimate(args) -> int:
    config = _load_config(args.config)
    estimator = json_field(config, "estimator", str, default="sg", choices=tuple(_ESTIMATOR_KEYS))
    json_object(config, f"{estimator} estimate config",
                allowed={"schema_version", "estimator", "domain", "solver", "seed",
                         *_ESTIMATOR_KEYS[estimator]},
                required=("q",) if estimator == "fkrb" else ())
    data = read_dataset_csv(args.data)
    domain = (Domain.cube(data.dim) if config.get("domain") is None
              else domain_from_json(config["domain"]))
    solver = json_dataclass(SolverOptions, config.get("solver"), "solver", strict=False)
    seed = json_field(config, "seed", int, default=0, low=0)
    draws = json_object(config.get("draws"), "draws", allowed=("rule", "r", "burn_in"))
    json_field(draws, "rule", str, "draws", default="halton", choices=("halton",))
    r_draws = json_field(draws, "r", int, "draws", low=1)
    burn_in = json_field(draws, "burn_in", int, "draws", default=DEFAULT_BURN_IN, low=0)

    if estimator == "fkrb":
        q = json_field(config, "q", int, optional=False, low=1)
        fit = fit_fkrb(data, domain, q, solver=solver)
    else:
        level = json_field(config, "level", int, default=4, low=1)
        if estimator == "sg":
            fit = fit_sg(
                data, domain, level, r_draws=r_draws, solver=solver, burn_in=burn_in
            )
        else:
            refinement = json_dataclass(
                RefineOptions, config.get("refinement"), "refinement", cv_seed=seed
            )
            fit = fit_asg(
                data, domain, level, r_draws=r_draws,
                refine_opts=refinement, solver=solver, burn_in=burn_in,
            )
    try:
        with open(args.out, "w") as fh:
            json.dump(fit_to_json(fit), fh, indent=2)
        if args.weights_csv:
            write_points_csv(fit.support, fit.density_at_draws, "weight", args.weights_csv)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from None

    warnings_ = list(fit.diagnostics.get("warnings", []))
    if fit.trace is not None and fit.trace.n_clamped_loglik:
        warnings_.append(f"{fit.trace.n_clamped_loglik} clamped fold probabilities")
    clamped = int(np.sum(fit.density_at_draws < 0))
    if clamped:
        warnings_.append(f"{clamped} negative density weights clamped")
    print(
        f"estimated {estimator} with {fit.n_parameters} parameters, "
        f"objective {fit.diagnostics['ssr']:.6g}, "
        f"kkt residual {fit.diagnostics['kkt_residual']:.2e}"
    )
    for w in warnings_:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_WARNINGS if warnings_ else EXIT_OK


def cmd_evaluate(args) -> int:
    for flag, value in (("--points-per-dim", args.points_per_dim),
                        ("--truth-samples", args.truth_samples)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    try:
        with open(args.fit) as fh:
            fit = fit_from_json(json.load(fh))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load fit: {exc}") from None
    if args.truth:  # checked before anything is evaluated or written
        try:
            with open(args.truth) as fh:
                truth_obj = json_object(json.load(fh), "truth", required=("dgp",))
            if truth_obj.get("schema_version") != SCHEMA_VERSION:
                raise ValueError("unsupported truth schema version")
            dgp = dgp_from_json(truth_obj["dgp"])
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load truth: {exc}") from None
        if dgp.dim != fit.domain.dim:
            raise UsageError("truth and fit dimensions differ")
    dist = DiscreteDistribution.from_fit(fit)
    if args.points:
        points = read_draws_csv(args.points)
        if points.shape[1] != fit.domain.dim:
            raise UsageError(
                f"points have dimension {points.shape[1]}, fit has {fit.domain.dim}"
            )
        where, cdf, truth_cdf = points, joint_cdf, true_mixture_cdf
    else:
        where = fit.domain.axes(args.points_per_dim)
        points, cdf, truth_cdf = lattice_points(where), joint_cdf_lattice, mixture_cdf_lattice
    values = cdf(dist, where).reshape(-1)
    write_points_csv(points, values, "F_hat", args.out_cdf)
    write_marginals_csv(fit, args.out_marginals)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "estimator": fit.kind,
        "n_parameters": fit.n_parameters,
        "mean": mean(dist).tolist(),
        "eval_points": int(points.shape[0]),
        "ise": None,
    }
    if args.truth:
        truth = truth_cdf(dgp, where, n_samples=args.truth_samples, seed=0).reshape(-1)
        summary["ise"] = ise(values, truth)
    with open(args.out_summary, "w") as fh:
        json.dump(summary, fh, indent=2)
    print(
        f"evaluated {fit.kind} fit at {points.shape[0]} points"
        + (f", ise {summary['ise']:.6g}" if summary["ise"] is not None else "")
    )
    return EXIT_OK


_REPLICATE_PRESETS = {
    "table2-d2-n1000-scaled": {
        "preset_dgp": "two-normals-d2",
        "seed": 20240,
        "sg_levels": [3],
        "asg_levels": [3],
        "fkrb_q": [7],
    },
    "adaptive-d2-n1000-scaled": {
        "preset_dgp": "four-normals-d2",
        "seed": 20241,
        "sg_levels": [2],
        "asg_levels": [2],
    },
    "smoke": {
        "preset_dgp": "two-normals-d2",
        "n_units": 200,
        "replicates": 1,
        "seed": 7,
        "sg_levels": [2],
        "r_draws": 500,
        "truth_samples": 200_000,
    },
}


def cmd_replicate(args) -> int:
    config = _load_config(args.config)
    preset = json_field(config, "preset", str, choices=sorted(_REPLICATE_PRESETS))
    if preset is not None:
        config = {**_REPLICATE_PRESETS[preset], **config}
    dgp = _parse_dgp(config, "preset_dgp")
    domain = None if config.get("domain") is None else domain_from_json(config["domain"])
    # the CLI uses every core unless the config or --workers says otherwise
    workers = args.workers if args.workers is not None else config.get("workers")
    mc = json_dataclass(
        McConfig, config, "replicate config",
        skip=("schema_version", "preset", "preset_dgp", "dgp", "domain", "refinement",
              "solver", "workers"),
        dgp=dgp, domain=domain, workers=workers,
        refine=json_dataclass(
            RefineOptions, config.get("refinement"), "refinement",
            cv_seed=json_field(config, "seed", int, default=McConfig.seed, low=0),
        ),
        solver=json_dataclass(SolverOptions, config.get("solver"), "solver", strict=False),
    )
    report = run_experiment(mc)
    try:
        with open(args.report, "w") as fh:
            json.dump(report_to_json(report), fh, indent=2)
        write_table_csv(report, args.table)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from None
    failed = sum(r.n_failed for r in report.runs)
    for run in report.runs:
        label = f"{run.kind}-{run.setting}"
        rmise = "n/a" if run.rmise is None else f"{run.rmise:.4f}"
        print(
            f"{label}: rmise {rmise}, mean parameters "
            f"{run.mean_parameters}, failures {run.n_failed}"
        )
    return EXIT_WARNINGS if failed else EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparserc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a choice dataset from a mixture truth")
    p_sim.add_argument("config", help="JSON config")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="fit an estimator to a dataset CSV")
    p_est.add_argument("config", help="JSON config")
    p_est.add_argument("data", help="dataset CSV")
    p_est.add_argument("--out", default="fit.json", help="output fit JSON")
    p_est.add_argument("--weights-csv", default=None, help="optional weight dump CSV")
    p_est.set_defaults(func=cmd_estimate)

    p_eval = sub.add_parser("evaluate", help="evaluate a fit's distribution function")
    p_eval.add_argument("fit", help="fit JSON")
    p_eval.add_argument("--truth", default=None, help="truth JSON for error metrics")
    p_eval.add_argument("--points", default=None, help="CSV of evaluation points")
    p_eval.add_argument("--points-per-dim", type=int, default=10)
    p_eval.add_argument("--truth-samples", type=int, default=TRUTH_SAMPLES)
    p_eval.add_argument("--out-cdf", default="cdf.csv")
    p_eval.add_argument("--out-marginals", default="marginals.csv")
    p_eval.add_argument("--out-summary", default="summary.json")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("replicate", help="run a Monte Carlo experiment")
    p_rep.add_argument("config", help="JSON config")
    p_rep.add_argument("--report", default="report.json", help="output report JSON")
    p_rep.add_argument("--table", default="table.csv", help="output summary table CSV")
    p_rep.add_argument("--workers", type=int, default=None, help="parallel replicate workers")
    p_rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv=None) -> int:
    """Run one command; every usage, input-value and file error exits 1 with
    its message (``CapacityError``, ``DeadColumnError`` and JSON decoding
    errors are ``ValueError``s)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
