"""The benchmark's three workloads and the checks applied to their outputs.

Each workload builds its inputs from the seed alone, calls one public entry
point of sparserc (``fit_asg``, ``fit_sg`` or ``run_experiment``), and
checks every fit it produced.  Entry points are looked up on their module
at call time, so a :class:`tracing.Tracer` installed around a call sees it.
The warm-up call runs under a tracer, which keeps every fit made inside it
for the checks here.
"""

from __future__ import annotations

import json
import math

import numpy as np

from sparserc import distribution, estimator, simulate
from sparserc.basis import Domain

N_UNITS = 1000
N_ALTS = 5
TRUTH_SAMPLES = 2_000_000
# The Monte Carlo harness scores a fit on this many lattice points per axis.
EVAL_POINTS_PER_DIM = 10
KKT_LIMIT = 1e-8
DENSITY_FLOOR = -1e-8
MASS_TOL = 1e-8
DEFAULT_SEED = 0


def lattice_axes(domain: Domain) -> list:
    return [
        np.linspace(domain.lower[d], domain.upper[d], EVAL_POINTS_PER_DIM)
        for d in range(domain.dim)
    ]


def fit_ise(fit, truth: np.ndarray, axes) -> float:
    """Mean squared CDF error of one fit on the lattice, as the harness scores it."""
    dist = distribution.DiscreteDistribution.from_fit(fit)
    diff = distribution.joint_cdf_lattice(dist, axes).reshape(-1) - truth.reshape(-1)
    return float(diff @ diff) / diff.shape[0]


def fit_problems(fit) -> list[str]:
    """Contract breaches of one fit: KKT, mass, sign and JSON round trip."""
    problems = []
    kkt = fit.diagnostics["kkt_residual"]
    if not kkt <= KKT_LIMIT:
        problems.append(f"kkt_residual {kkt:.3e} > {KKT_LIMIT}")
    dens = fit.density_at_draws
    if abs(dens.sum() - 1.0) > MASS_TOL:
        problems.append(f"total mass {dens.sum()!r} is not 1")
    if dens.min() < DENSITY_FLOOR:
        problems.append(f"density {dens.min():.3e} < {DENSITY_FLOOR}")
    try:
        text = json.dumps(estimator.fit_to_json(fit))
        back = estimator.fit_from_json(json.loads(text))
    except (TypeError, ValueError) as exc:
        problems.append(f"JSON round trip raised {type(exc).__name__}: {exc}")
    else:
        if not np.array_equal(back.density_at_draws, dens):
            problems.append("fit_from_json(fit_to_json(fit)) changes density_at_draws")
    return problems


def same_fit(a, b) -> bool:
    return (
        np.array_equal(a.alpha, b.alpha)
        and np.array_equal(a.density_at_draws, b.density_at_draws)
        and a.grid == b.grid
        and a.diagnostics == b.diagnostics
    )


class FitWorkload:
    """One ``fit_asg`` or ``fit_sg`` call on a simulated dataset."""

    def __init__(self, name, why, kind, truth, dim, level, r_draws,
                 rmise_ceiling, expected):
        self.name = name
        self.why = why
        self.kind = kind
        self.truth = truth
        self.dim = dim
        self.level = level
        self.r_draws = r_draws
        self.rmise_ceiling = rmise_ceiling
        # grid size and selected step recorded at DEFAULT_SEED
        self.expected = expected
        self.domain = Domain.cube(dim)
        self.fits_per_call = 1

    def prepare(self, seed: int) -> dict:
        dgp = self.truth(self.dim)
        rng = np.random.default_rng(seed)
        data = simulate.make_dataset(dgp, N_UNITS, N_ALTS, rng)
        axes = lattice_axes(self.domain)
        truth = distribution.mixture_cdf_lattice(dgp, axes, n_samples=TRUTH_SAMPLES, seed=seed)
        return {"data": data, "truth": truth, "axes": axes}

    def call(self, inputs: dict):
        fit = estimator.fit_asg if self.kind == "asg" else estimator.fit_sg
        return fit(inputs["data"], self.domain, self.level, r_draws=self.r_draws)

    def check_warm_up(self, inputs: dict, fit, fits, seed: int) -> tuple[int, list, dict]:
        """Full checks of the warm-up fit: (failed fits, problems, summary)."""
        problems = fit_problems(fit)
        rmise = math.sqrt(fit_ise(fit, inputs["truth"], inputs["axes"]))
        if not rmise <= self.rmise_ceiling:
            problems.append(f"{self.kind} rmise {rmise:.4f} above {self.rmise_ceiling}")
        shape = {"grid_size": fit.n_parameters}
        if fit.trace is not None:
            shape["selected_step"] = fit.trace.selected_step
        if seed == DEFAULT_SEED and shape != self.expected:
            problems.append(f"default seed gives {shape}, recorded {self.expected}")
        return int(bool(problems)), problems, {"rmise": {self.kind: rmise}, **shape}

    def repeat_failures(self, first, fit) -> int:
        """Failed fits among a repeated call's outputs (1 if it differs)."""
        return 0 if same_fit(first, fit) else 1


class McWorkload:
    """One ``run_experiment`` call: replicates of sg and fkrb fits and scoring."""

    def __init__(self, name, why, replicates, rmise_ceiling, expected):
        self.name = name
        self.why = why
        self.replicates = replicates
        self.rmise_ceiling = rmise_ceiling
        self.expected = expected
        self.fits_per_call = replicates * len(rmise_ceiling)

    def prepare(self, seed: int) -> simulate.McConfig:
        return simulate.McConfig(
            dgp=simulate.two_normal_mixture(2),
            n_units=N_UNITS,
            n_alts=N_ALTS,
            replicates=self.replicates,
            seed=seed,
            sg_levels=(3,),
            fkrb_q=(7,),
            truth_samples=TRUTH_SAMPLES,
            workers=1,
        )

    def call(self, config):
        return simulate.run_experiment(config)

    def check_warm_up(self, config, report, fits, seed: int) -> tuple[int, list, dict]:
        """Checks of the warm-up report and of every fit the tracer kept
        while it ran: (failed fits, problems, summary).  A fit that raised
        is not kept; the report counts it."""
        failed = 0
        problems = []
        shape = {}
        rmise = {}
        for run in report.runs:
            bad = run.n_failed
            if run.n_failed:
                problems.append(f"{run.kind}: {run.n_failed} fits raised: {run.errors}")
            for fit in fits:
                if fit.kind == run.kind:
                    found = fit_problems(fit)
                    problems += [f"{run.kind}: {p}" for p in found]
                    bad += bool(found)
            shape[f"{run.kind}_grid_size"] = run.mean_parameters
            rmise[run.kind] = run.rmise
            ceiling = self.rmise_ceiling[run.kind]
            if run.rmise is None or not run.rmise <= ceiling:
                problems.append(f"{run.kind} rmise {run.rmise} above {ceiling}")
                bad = self.replicates
            failed += min(bad, self.replicates)
        if seed == DEFAULT_SEED and shape != self.expected:
            problems.append(f"default seed gives {shape}, recorded {self.expected}")
            failed = max(failed, 1)
        return failed, problems, {"rmise": rmise, **shape}

    def repeat_failures(self, first, report) -> int:
        same = simulate.report_to_json(first) == simulate.report_to_json(report)
        return 0 if same else self.fits_per_call


WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload(
            "asg-d2-four",
            "kernel-bound and solve-count-bound: 11 full-draw kernel sweeps and "
            "66 small warm-started CLS solves",
            kind="asg", truth=simulate.four_normal_mixture, dim=2, level=2,
            r_draws=4000,
            # The acceptance bands bound 20-replicate averages; one fit gets
            # the widest of them, criterion 5's fkrb ceiling.  Seed 15's fit
            # reaches 0.093, above criterion 6's sg anchor of 0.0881.
            rmise_ceiling=0.13,
            expected={"grid_size": 19, "selected_step": 4},
        ),
        FitWorkload(
            "sg-d6-l4",
            "solver-bound: one cold interior-point solve over 12,000 constraint "
            "rows with B=545; no refinement, so kernel support restriction skips nothing",
            kind="sg", truth=simulate.two_normal_mixture, dim=6, level=4,
            r_draws=12_000,
            # acceptance criterion 7's ceiling for the higher-dimension smoke run
            rmise_ceiling=0.25,
            expected={"grid_size": 545},
        ),
        McWorkload(
            "mc-d2-two",
            "the desk-scale Monte Carlo study as users run it: kernel sweeps, "
            "FKRB columns, simplex solves, truth histogram and lattice CDFs",
            replicates=3,
            # acceptance criterion 5's upper bands
            rmise_ceiling={"sg": 0.067, "fkrb": 0.13},
            expected={"sg_grid_size": 17, "fkrb_grid_size": 49},
        ),
    )
}
