"""Ground-truth mixture generators and the Monte Carlo experiment harness.

Each replicate draws fresh coefficients and covariates, simulates choices by
the Gumbel-max race (an outside option competes with utility equal to its
error term alone), fits every configured estimator, and scores the estimated
joint distribution function on a fixed evaluation lattice.  Replicates run
on independently derived seed streams, so parallel and serial execution
produce identical reports.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np

from .basis import Domain
from .choicemodel import ChoiceDataset
from .distribution import (
    TRUTH_SAMPLES,
    DiscreteDistribution,
    ise,
    joint_cdf_lattice,
    mixture_cdf_lattice,
)
from .checks import check_fields, finite_array, json_object
from .estimator import DRAWS_PER_DIM, RefineOptions, SolverOptions
from .estimator import fit_asg, fit_fkrb, fit_sg
from .quasirand import DEFAULT_BURN_IN, write_csv_columns

# Draws per slice of the mixture transform: its gathered Cholesky factors
# stay about 1 MB at D=6.
_SAMPLE_SLICE = 4096


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        weight = finite_array("component weight", self.weight)
        mean = np.atleast_1d(finite_array("component mean", self.mean))
        cov = np.atleast_2d(finite_array("component cov", self.cov))
        if weight.ndim != 0 or weight <= 0:
            raise ValueError(f"component weight must be a positive number, got {self.weight!r}")
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError("covariance shape must match the mean")
        if not np.allclose(cov, cov.T):
            raise ValueError("covariance must be symmetric")
        np.linalg.cholesky(cov)  # raises on non-SPD input
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class MixtureDgp:
    """Finite mixture of multivariate normals as the true coefficient law."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        dim = comps[0].mean.shape[0]
        if any(c.mean.shape[0] != dim for c in comps):
            raise ValueError("all components must share one dimension")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"component weights sum to {total}, not 1")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].mean.shape[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` coefficient vectors: pick a component, then a normal."""
        weights = np.array([c.weight for c in self.components])
        which = rng.choice(len(self.components), size=n, p=weights)
        z = rng.standard_normal((n, self.dim))
        chols = np.stack([np.linalg.cholesky(c.cov) for c in self.components])
        means = np.stack([c.mean for c in self.components])
        for start in range(0, n, _SAMPLE_SLICE):
            part = slice(start, start + _SAMPLE_SLICE)
            k = which[part]
            z[part] = means[k] + np.einsum("nij,nj->ni", chols[k], z[part])
        return z


def two_normal_mixture(dim: int) -> MixtureDgp:
    """Equal mixture of two normals centered at -1.5 and +1.5 per dimension,
    with variance 0.4 and cross-covariance 0.1."""
    cov = np.full((dim, dim), 0.1)
    np.fill_diagonal(cov, 0.4)
    return MixtureDgp(
        components=(
            MixtureComponent(0.5, np.full(dim, -1.5), cov),
            MixtureComponent(0.5, np.full(dim, 1.5), cov),
        )
    )


def four_normal_mixture(dim: int) -> MixtureDgp:
    """Equal mixture of four normals at -2.5, -0.8, 0.8, 2.5 per dimension,
    with one quarter of the two-component design's covariance."""
    cov = np.full((dim, dim), 0.025)
    np.fill_diagonal(cov, 0.1)
    return MixtureDgp(
        components=tuple(
            MixtureComponent(0.25, np.full(dim, m), cov)
            for m in (-2.5, -0.8, 0.8, 2.5)
        )
    )


def dgp_to_json(dgp: MixtureDgp) -> dict:
    return {
        "components": [
            {"weight": c.weight, "mean": c.mean.tolist(), "cov": c.cov.tolist()}
            for c in dgp.components
        ]
    }


def dgp_from_json(obj: dict) -> MixtureDgp:
    """Inverse of :func:`dgp_to_json`; a malformed object raises a
    ``ValueError`` that names the offending field."""
    components = json_object(obj, "dgp", allowed=(), required=("components",))["components"]
    if not isinstance(components, list):
        raise ValueError(f"dgp components must be a list, got {components!r}")
    return MixtureDgp(
        components=tuple(
            MixtureComponent(**json_object(c, f"dgp component {k}", allowed=(),
                                           required=("weight", "mean", "cov")))
            for k, c in enumerate(components)
        )
    )


def simulate_choices(
    betas: np.ndarray, n_alts: int, rng: np.random.Generator
) -> ChoiceDataset:
    """Simulate one choice per unit among ``n_alts`` alternatives plus an
    outside option.

    Covariates are i.i.d. standard normal; each alternative's utility is
    ``x'beta`` plus a standard Gumbel shock, the outside option's utility is
    its shock alone, and the argmax wins.  Units that pick the outside
    option get an all-zero outcome row.
    """
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    n, dim = betas.shape
    x = rng.standard_normal((n, n_alts, dim))
    gumbel = rng.gumbel(size=(n, n_alts + 1))
    utility = np.einsum("njd,nd->nj", x, betas) + gumbel[:, :n_alts]
    best_inside = utility.argmax(axis=1)
    y = np.zeros((n, n_alts))
    inside_wins = utility[np.arange(n), best_inside] > gumbel[:, n_alts]
    y[inside_wins, best_inside[inside_wins]] = 1.0
    return ChoiceDataset(x=x, y=y)


def make_dataset(
    dgp: MixtureDgp, n_units: int, n_alts: int, rng: np.random.Generator
) -> ChoiceDataset:
    """Coefficients plus simulated choices in one step."""
    return simulate_choices(dgp.sample(n_units, rng), n_alts, rng)


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo experiment: a truth, a sample size, estimator settings.

    ``r_draws=None`` means ``DRAWS_PER_DIM * D`` draws and ``workers=None``
    uses every core.  Every replicate is scored on the whole evaluation
    lattice of ``eval_points_per_dim ** D`` points."""

    dgp: MixtureDgp
    n_units: int = 1000
    replicates: int = 20
    seed: int = 0
    n_alts: int = 5
    r_draws: int | None = None
    burn_in: int = DEFAULT_BURN_IN
    sg_levels: tuple = ()
    asg_levels: tuple = ()
    fkrb_q: tuple = ()
    refine: RefineOptions = field(default_factory=RefineOptions)
    solver: SolverOptions = field(default_factory=SolverOptions)
    domain: Domain | None = None
    eval_points_per_dim: int = 10
    truth_samples: int = TRUTH_SAMPLES
    workers: int | None = 1

    def __post_init__(self):
        check_fields(self, MixtureDgp, "dgp")
        counts = ("n_units", "replicates", "n_alts", "eval_points_per_dim", "truth_samples")
        check_fields(self, int, *counts, low=1)
        check_fields(self, int, "seed", "burn_in", low=0)
        check_fields(self, int, "r_draws", "workers", low=1, optional=True)
        check_fields(self, int, "sg_levels", "asg_levels", "fkrb_q", low=1, each=True)
        check_fields(self, RefineOptions, "refine")
        check_fields(self, SolverOptions, "solver")
        check_fields(self, Domain, "domain", optional=True)
        if self.domain is not None and self.domain.dim != self.dgp.dim:
            raise ValueError(f"domain has dimension {self.domain.dim}, dgp has {self.dgp.dim}")
        cap, rows = self.refine.max_level, self.n_units * self.n_alts
        for name in ("sg_levels", "asg_levels"):
            if max(getattr(self, name), default=0) > cap:
                raise ValueError(f"{name} entries must be <= refine.max_level = {cap}, "
                                 f"got {max(getattr(self, name))}")
        if any(q**self.dgp.dim > rows for q in self.fkrb_q):
            raise ValueError(f"fkrb_q entries must have q**{self.dgp.dim} <= n_units * n_alts "
                             f"= {rows}, got {max(self.fkrb_q)}")
        cv = self.asg_levels and self.refine.selection in ("cv_mse", "cv_ll")
        if cv and self.refine.k_folds > self.n_units:
            raise ValueError(f"refine.k_folds must be <= n_units = {self.n_units} under "
                             f"{self.refine.selection} selection, got {self.refine.k_folds}")
        self.run_labels()

    def resolved_domain(self) -> Domain:
        return self.domain if self.domain is not None else Domain.cube(self.dgp.dim)

    def run_labels(self) -> list[tuple]:
        runs = [("sg", l) for l in self.sg_levels]
        runs += [("asg", l) for l in self.asg_levels]
        runs += [("fkrb", q) for q in self.fkrb_q]
        if not runs:
            raise ValueError("no estimators configured")
        return runs


@dataclass
class ReplicateOutcome:
    kind: str
    setting: int
    ise: float | None = None
    n_parameters: int | None = None
    selected_step: int | None = None
    kkt_residual: float | None = None
    failed: bool = False
    error: str | None = None


@dataclass
class EstimatorRun:
    kind: str
    setting: int
    rmise: float | None
    ise: list
    parameters: list
    mean_parameters: float | None
    selected_steps: list
    mean_selected_steps: float | None
    max_kkt_residual: float | None
    n_failed: int
    success_rate: float
    errors: list


@dataclass
class McReport:
    config: dict
    runs: list
    eval_points: int


def _run_replicate(rep: int, config: McConfig, truth_values: np.ndarray) -> list[ReplicateOutcome]:
    domain = config.resolved_domain()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,)))
    data = make_dataset(config.dgp, config.n_units, config.n_alts, rng)
    axes = domain.axes(config.eval_points_per_dim)
    outcomes = []
    for kind, setting in config.run_labels():
        try:
            if kind == "sg":
                fit = fit_sg(
                    data, domain, setting,
                    r_draws=config.r_draws, solver=config.solver,
                    burn_in=config.burn_in, max_level=config.refine.max_level,
                )
            elif kind == "asg":
                fit = fit_asg(
                    data, domain, setting,
                    r_draws=config.r_draws, refine_opts=config.refine,
                    solver=config.solver, burn_in=config.burn_in,
                )
            else:
                fit = fit_fkrb(data, domain, setting, solver=config.solver)
            dist = DiscreteDistribution.from_fit(fit)
            values = joint_cdf_lattice(dist, axes).reshape(-1)
            outcomes.append(
                ReplicateOutcome(
                    kind=kind,
                    setting=setting,
                    ise=ise(values, truth_values),
                    n_parameters=fit.n_parameters,
                    selected_step=(
                        fit.trace.selected_step if fit.trace is not None else None
                    ),
                    kkt_residual=fit.diagnostics["kkt_residual"],
                )
            )
        except Exception as exc:  # recorded, never silently dropped
            outcomes.append(ReplicateOutcome(
                kind=kind, setting=setting, failed=True, error=f"{type(exc).__name__}: {exc}"
            ))
    return outcomes


def run_experiment(config: McConfig) -> McReport:
    """Run all replicates and summarize accuracy per estimator.

    The truth's distribution function is evaluated once on the lattice and
    shared by every replicate.  Failed replicates are counted and carried in
    the report with their error text, and excluded from the averages.
    """
    domain = config.resolved_domain()
    axes = domain.axes(config.eval_points_per_dim)
    truth_table = mixture_cdf_lattice(
        config.dgp, axes, n_samples=config.truth_samples, seed=config.seed
    )
    truth_values = truth_table.reshape(-1)
    worker = partial(_run_replicate, config=config, truth_values=truth_values)
    n_workers = config.workers or os.cpu_count() or 1
    if n_workers > 1 and config.replicates > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_rep = list(pool.map(worker, range(config.replicates), chunksize=1))
    else:
        per_rep = [worker(rep) for rep in range(config.replicates)]

    runs = []
    for k, (kind, setting) in enumerate(config.run_labels()):
        outcomes = [per_rep[rep][k] for rep in range(config.replicates)]
        good = [o for o in outcomes if not o.failed]
        ises = [o.ise for o in good]
        params = [o.n_parameters for o in good]
        steps = [o.selected_step for o in good if o.selected_step is not None]
        kkts = [o.kkt_residual for o in good]
        runs.append(
            EstimatorRun(
                kind=kind,
                setting=setting,
                rmise=float(math.sqrt(np.mean(ises))) if ises else None,
                ise=[o.ise for o in outcomes],
                parameters=[o.n_parameters for o in outcomes],
                mean_parameters=float(np.mean(params)) if params else None,
                selected_steps=steps,
                mean_selected_steps=float(np.mean(steps)) if steps else None,
                max_kkt_residual=float(np.max(kkts)) if kkts else None,
                n_failed=len(outcomes) - len(good),
                success_rate=len(good) / len(outcomes),
                errors=[o.error for o in outcomes if o.failed],
            )
        )
    summary = {
        "n_units": config.n_units,
        "n_alts": config.n_alts,
        "dim": config.dgp.dim,
        "replicates": config.replicates,
        "seed": config.seed,
        "r_draws": config.r_draws or DRAWS_PER_DIM * config.dgp.dim,
        "eval_points_per_dim": config.eval_points_per_dim,
        "dgp": dgp_to_json(config.dgp),
        "refinement": asdict(config.refine),
        "solver": asdict(config.solver),
    }
    return McReport(config=summary, runs=runs, eval_points=truth_values.shape[0])


def report_to_json(report: McReport) -> dict:
    return {
        "schema_version": 1,
        "config": report.config,
        "eval_points": report.eval_points,
        "runs": [asdict(r) for r in report.runs],
    }


def write_table_csv(report: McReport, path) -> None:
    """Summary table: one row per (sample size, level) with per-estimator
    parameter counts and accuracy side by side.

    Hierarchical levels pair with fixed grids of ``q = 2**level - 1`` points
    per dimension when both were run.
    """
    def level_label(kind, setting):
        if kind in ("sg", "asg"):
            return setting
        q_level = math.log2(setting + 1)
        return int(q_level) if q_level.is_integer() else f"q{setting}"

    rows: dict = {}
    for run in report.runs:
        key = (report.config["n_units"], level_label(run.kind, run.setting))
        rows.setdefault(key, {})[run.kind] = run
    keys = sorted(rows, key=lambda key: (key[0], str(key[1])))
    header, columns = ["n_units", "level"], [[n for n, _ in keys], [lab for _, lab in keys]]
    for name, attr in (("parameters", "mean_parameters"), ("rmise", "rmise")):
        for kind in ("fkrb", "sg", "asg"):
            values = [getattr(rows[key].get(kind), attr, None) for key in keys]
            header.append(f"{kind}_{name}")
            columns.append(["" if v is None else repr(v) for v in values])
    write_csv_columns(path, header, columns)
