"""The three estimators and their model-selection machinery.

* ``fit_asg``  — hierarchical basis on a classical sparse grid, grown by
  spatially adaptive refinement; the number of refinement steps is picked by
  k-fold cross-validation (MSE or log-likelihood) or by AIC over the full
  search path.
* ``fit_sg``   — the classical sparse-grid estimator: the same pipeline with
  zero refinement steps and no step selection.
* ``fit_fkrb`` — fixed-grid baseline: candidate coefficient points on a
  cartesian lattice whose probability weights are fit on the simplex.

All three produce a :class:`FitResult` whose ``density_at_draws`` is a proper
probability vector over the support, which is all downstream distribution
code needs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .basis import BasisSet, Domain
from .choicemodel import (
    ChoiceDataset,
    DesignMatrix,
    DESIGN_CHUNK,
    build_design_matrix,
    choice_probabilities,
    incremental_columns,
)
from .clsolver import (
    CLSProblem,
    CLSSolution,
    NonConvergenceError,
    solve_cls,
    solve_simplex_cls,
)
from .hiergrid import (
    CapacityError,
    GridPoint,
    SparseGrid,
    build_classical_sparse_grid,
    grid_from_json,
    grid_to_json,
    refinable_points,
    refine,
)
from .quasirand import DEFAULT_BURN_IN, DrawSet, halton_draws

DENSITY_FLOOR = -1e-8
LOGLIK_CLAMP = 1e-12
AIC_SENTINEL = -1e300


@dataclass(frozen=True)
class SolverOptions:
    """Solver settings; ``strict=False`` downgrades nonconvergence from an
    error to a warning carrying the best iterate."""

    tol: float = 1e-8
    max_iter: int = 10_000
    ridge: float = 0.0
    strict: bool = True


@dataclass(frozen=True)
class RefineOptions:
    """Settings of the adaptive refinement search.

    ``criterion`` scores refinable points on the current fit ("surplus" or
    "local_error"); ``selection`` picks the step count ("cv_mse", "cv_ll",
    or "aic").
    """

    steps: int = 10
    points_per_step: int = 1
    criterion: str = "local_error"
    selection: str = "cv_mse"
    k_folds: int = 5
    max_level: int = 5
    cv_seed: int = 0

    def __post_init__(self):
        if self.criterion not in ("surplus", "local_error"):
            raise ValueError(f"unknown refinement criterion {self.criterion!r}")
        if self.selection not in ("cv_mse", "cv_ll", "aic"):
            raise ValueError(f"unknown selection rule {self.selection!r}")
        if self.steps < 0 or self.points_per_step < 1:
            raise ValueError("steps must be >= 0 and points_per_step >= 1")
        if self.k_folds < 2:
            raise ValueError("k_folds must be >= 2")


@dataclass
class StepRecord:
    """Metrics of one step of the refinement search (step 0 = base grid)."""

    step: int
    refined_points: tuple
    added_points: tuple
    n_parameters: int
    in_sample_mse: float
    aic: float
    oos_mse_folds: tuple | None = None
    oos_mse_mean: float | None = None
    oos_loglik_folds: tuple | None = None
    oos_loglik_mean: float | None = None


@dataclass
class RefinementTrace:
    records: list
    selected_step: int
    terminated_early: bool = False
    n_clamped_loglik: int = 0


@dataclass
class FitResult:
    """A fitted distribution: coefficients plus the discrete density view.

    ``support`` holds the integration draws (or the fixed grid) and
    ``density_at_draws`` the probability weight of each support point;
    together they define the estimated distribution.
    """

    kind: str
    domain: Domain
    alpha: np.ndarray
    support: np.ndarray
    density_at_draws: np.ndarray
    diagnostics: dict
    config: dict
    grid: SparseGrid | None = None
    fixed_grid: np.ndarray | None = None
    trace: RefinementTrace | None = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.support = np.asarray(self.support, dtype=float)
        self.density_at_draws = np.asarray(self.density_at_draws, dtype=float)
        if self.kind not in ("sg", "asg", "fkrb"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        dens = self.density_at_draws
        if dens.min() < DENSITY_FLOOR:
            raise ValueError(f"density weight {dens.min():.3e} below {DENSITY_FLOOR}")
        if abs(dens.sum() - 1.0) > 1e-8:
            raise ValueError(f"density weights sum to {dens.sum()}, not 1")
        if self.diagnostics.get("n_parameters") != self.alpha.shape[0]:
            raise ValueError("n_parameters must equal the coefficient count")

    @property
    def n_parameters(self) -> int:
        return self.alpha.shape[0]


def _solve(solve, solver: SolverOptions | None, *args, **kwargs) -> CLSSolution:
    """Call a solve function with the solver settings.

    With ``strict=False`` a :class:`NonConvergenceError` yields its best
    iterate, marked by a warning, instead of propagating.
    """
    solver = solver or SolverOptions()
    try:
        return solve(
            *args, tol=solver.tol, max_iter=solver.max_iter, ridge=solver.ridge, **kwargs
        )
    except NonConvergenceError as exc:
        if solver.strict:
            raise
        exc.best.warnings.append("nonconvergence: best iterate returned")
        return exc.best


def _diagnostics(sol: CLSSolution, n_rows: int) -> dict:
    return {
        "ssr": sol.ssr,
        "ssr_raw": sol.ssr_raw,
        "kkt_residual": sol.kkt_residual,
        "max_ineq_violation": sol.max_ineq_violation,
        "eq_violation": sol.eq_violation,
        "iterations": sol.iterations,
        "n_parameters": sol.alpha.shape[0],
        "n_rows": n_rows,
        "warnings": list(sol.warnings),
    }


def _design_problem(design: DesignMatrix, y: np.ndarray, rows=slice(None)) -> CLSProblem:
    """The CLS problem of a design on the selected regression rows."""
    return CLSProblem(
        Z=design.Z[rows],
        y=y[rows],
        A_ineq=design.basis_at_draws,
        c_eq=design.column_mass,
    )


def _config(
    kind: str,
    setting: dict,
    domain: Domain,
    solver: SolverOptions | None,
    draws: dict | None = None,
    refinement: RefineOptions | None = None,
) -> dict:
    """The settings a fit records; :func:`fit_from_json` rebuilds the fit from them."""
    config = {"estimator": kind, **setting}
    config["domain"] = {"lower": domain.lower.tolist(), "upper": domain.upper.tolist()}
    if draws is not None:
        config["draws"] = draws
    config["solver"] = asdict(solver or SolverOptions())
    if refinement is not None:
        config["refinement"] = asdict(refinement)
    return config


def fit_sg(
    data: ChoiceDataset,
    domain: Domain,
    level: int,
    r_draws: int | None = None,
    solver: SolverOptions | None = None,
    burn_in: int = DEFAULT_BURN_IN,
    max_level: int | None = None,
) -> FitResult:
    """Fit the classical sparse-grid estimator of a given level.

    This is the adaptive pipeline of :func:`fit_asg` with zero refinement
    steps and no step selection.  The number of integration draws defaults
    to ``2000 * D``.
    """
    return _fit_hierarchical(data, domain, level, r_draws, solver, burn_in, max_level)


def fkrb_grid(domain: Domain, q_per_dim: int) -> np.ndarray:
    """Cartesian fixed grid with q interior (cell-midpoint) points per axis."""
    if q_per_dim < 1:
        raise ValueError("q_per_dim must be >= 1")
    axes = [
        domain.lower[d]
        + (np.arange(q_per_dim) + 0.5) * domain.width[d] / q_per_dim
        for d in range(domain.dim)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, domain.dim)


def _kernel_columns(x: np.ndarray, points: np.ndarray, n_rows: int) -> np.ndarray:
    cols = np.empty((n_rows, points.shape[0]))
    for start in range(0, points.shape[0], DESIGN_CHUNK):
        block = slice(start, min(start + DESIGN_CHUNK, points.shape[0]))
        cols[:, block] = choice_probabilities(x, points[block]).reshape(n_rows, -1)
    return cols


def fit_fkrb(
    data: ChoiceDataset,
    domain: Domain,
    q_per_dim: int,
    solver: SolverOptions | None = None,
) -> FitResult:
    """Fit the fixed-grid baseline with ``q_per_dim ** D`` candidate points.

    Refuses configurations whose parameter count exceeds the number of
    regression rows ``N * J``.
    """
    if data.dim != domain.dim:
        raise ValueError("data and domain dimensions differ")
    n_params = q_per_dim**data.dim
    if n_params > data.n_rows:
        raise CapacityError(
            f"fixed grid with q={q_per_dim} in {data.dim} dimensions has "
            f"{n_params} parameters, exceeding the {data.n_rows} regression rows"
        )
    points = fkrb_grid(domain, q_per_dim)
    cols = _kernel_columns(data.x, points, data.n_rows)
    sol = _solve(solve_simplex_cls, solver, cols, data.y_flat)
    return FitResult(
        kind="fkrb",
        domain=domain,
        alpha=sol.alpha,
        support=points,
        density_at_draws=sol.alpha,
        diagnostics=_diagnostics(sol, data.n_rows),
        config=_config("fkrb", {"q": q_per_dim}, domain, solver),
        fixed_grid=points,
    )


def _column_scores(
    criterion: str,
    alpha: np.ndarray,
    design: DesignMatrix | None = None,
    y: np.ndarray | None = None,
) -> np.ndarray:
    """Score of every column (grid point) of a fit under a refinement criterion.

    "surplus" scores ``|alpha_p|``; "local_error" scores ``|alpha_p| *
    sum_{n,j} Z[(n,j),p] * resid_{n,j}^2`` on the fit's design and outcomes.
    """
    if criterion == "surplus":
        return np.abs(alpha)
    resid_sq = (y - design.Z @ alpha) ** 2
    return np.abs(alpha) * (design.Z.T @ resid_sq)


def _refinable_scores(grid: SparseGrid, scores: np.ndarray) -> dict:
    """Scores of the refinable points of ``grid``, keyed by point."""
    return {p: float(scores[grid.position(p)]) for p in refinable_points(grid)}


def criterion_surplus(fit: FitResult) -> dict:
    """Score refinable grid points by the magnitude of their coefficient."""
    if fit.grid is None:
        raise ValueError("surplus criterion needs a hierarchical-grid fit")
    return _refinable_scores(fit.grid, _column_scores("surplus", fit.alpha))


def criterion_local_error(
    fit: FitResult,
    data: ChoiceDataset,
    draws: DrawSet,
    design: DesignMatrix | None = None,
) -> dict:
    """Score refinable points by their share of the squared in-sample error.

    The score of point ``p`` is ``|alpha_p| * sum_{n,j} Z[(n,j),p] *
    resid_{n,j}^2``; a zero coefficient or a perfect fit makes it zero.
    """
    if fit.grid is None:
        raise ValueError("local-error criterion needs a hierarchical-grid fit")
    if design is None:
        basis = BasisSet(fit.grid, fit.domain)
        design = build_design_matrix(data, draws, basis)
    scores = _column_scores("local_error", fit.alpha, design, data.y_flat)
    return _refinable_scores(fit.grid, scores)


def _aic_value(ssr_raw: float, n_rows: int, n_parameters: int) -> float:
    if ssr_raw <= 0.0:
        warnings.warn("zero residual sum: AIC pinned at sentinel", stacklevel=2)
        return AIC_SENTINEL
    return n_rows * math.log(ssr_raw / n_rows) + 2.0 * n_parameters


def aic(fit: FitResult, data: ChoiceDataset) -> float:
    """Gaussian least-squares AIC of a fit on its own estimation data."""
    if fit.diagnostics.get("n_rows") != data.n_rows:
        raise ValueError("fit was produced on data with a different row count")
    return _aic_value(fit.diagnostics["ssr_raw"], data.n_rows, fit.n_parameters)


def fold_assignments(unit_ids, k: int, seed: int = 0) -> dict:
    """Deterministic unit-to-fold map, invariant to unit ordering.

    Folds are a seeded permutation of the *sorted* unit ids, so shuffling the
    rows of a dataset never moves a unit to a different fold.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    ids = np.sort(np.asarray(unit_ids))
    if k > ids.shape[0]:
        raise ValueError("more folds than units")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ids.shape[0])
    folds = np.empty(ids.shape[0], dtype=int)
    folds[perm] = np.arange(ids.shape[0]) % k
    return {int(u): int(f) for u, f in zip(ids, folds)}


def predict_probabilities(fit: FitResult, data: ChoiceDataset) -> np.ndarray:
    """Predicted inside-alternative probabilities, ``(N, J)``.

    The prediction only needs the discrete density: ``P_nj = sum_r
    g(x_nj, support_r) * density_r``.
    """
    pred = np.zeros((data.n_units, data.n_alts))
    sup, dens = fit.support, fit.density_at_draws
    for start in range(0, sup.shape[0], DESIGN_CHUNK):
        block = slice(start, min(start + DESIGN_CHUNK, sup.shape[0]))
        pred += choice_probabilities(data.x, sup[block]) @ dens[block]
    return pred


def heldout_mse(pred: np.ndarray, y: np.ndarray) -> float:
    """Mean squared prediction error over all (unit, alternative) pairs."""
    return float(np.mean((y - pred) ** 2))


def heldout_loglik(pred: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Log-likelihood of observed outcomes; outside option is the remainder.

    Nonpositive predicted probabilities are clamped at 1e-12; the count of
    clamped units is returned alongside.
    """
    p_out = 1.0 - pred.sum(axis=1)
    inside = y.sum(axis=1) > 0.5
    j_star = y.argmax(axis=1)
    p_obs = np.where(inside, pred[np.arange(y.shape[0]), j_star], p_out)
    clamped = int(np.sum(p_obs < LOGLIK_CLAMP))
    ll = float(np.log(np.maximum(p_obs, LOGLIK_CLAMP)).sum())
    return ll, clamped


@dataclass
class CvResult:
    per_fold: list
    mean: float
    n_clamped: int = 0


def _folds(data: ChoiceDataset, k: int, seed: int):
    """Yield the ``(train, test)`` unit positions of each of ``k`` folds."""
    assign = fold_assignments(data.unit_ids, k, seed)
    fold_of = np.array([assign[int(u)] for u in data.unit_ids])
    for f in range(k):
        yield np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)


def kfold_cv(
    data: ChoiceDataset,
    k: int,
    fit_procedure,
    metric: str = "mse",
    seed: int = 0,
) -> CvResult:
    """Cross-validate any fit procedure, holding out whole units.

    ``fit_procedure`` maps a training :class:`ChoiceDataset` to a
    :class:`FitResult`; the metric ("mse" or "loglik") is evaluated on the
    held-out fold via :func:`predict_probabilities`.
    """
    if metric not in ("mse", "loglik"):
        raise ValueError(f"unknown metric {metric!r}")
    per_fold = []
    clamped_total = 0
    for train_pos, test_pos in _folds(data, k, seed):
        fit = fit_procedure(data.subset(train_pos))
        test = data.subset(test_pos)
        pred = predict_probabilities(fit, test)
        if metric == "mse":
            per_fold.append(heldout_mse(pred, test.y))
        else:
            ll, clamped = heldout_loglik(pred, test.y)
            per_fold.append(ll)
            clamped_total += clamped
    return CvResult(per_fold=per_fold, mean=float(np.mean(per_fold)), n_clamped=clamped_total)


def fit_asg(
    data: ChoiceDataset,
    domain: Domain,
    level: int,
    r_draws: int | None = None,
    refine_opts: RefineOptions | None = None,
    solver: SolverOptions | None = None,
    burn_in: int = DEFAULT_BURN_IN,
) -> FitResult:
    """Fit the spatially adaptive sparse-grid estimator.

    Full-search refinement: starting from the classical grid of ``level``,
    each step scores the refinable points on the current full-data fit,
    refines the best ones, and refits.  Every step's grid is then evaluated
    under the configured selection rule (per-fold refits reuse these grids),
    and the fit at the best step is returned together with the whole trace.
    """
    opts = refine_opts or RefineOptions()
    return _fit_hierarchical(data, domain, level, r_draws, solver, burn_in, opts.max_level, opts)


def _fit_hierarchical(
    data: ChoiceDataset,
    domain: Domain,
    level: int,
    r_draws: int | None,
    solver: SolverOptions | None,
    burn_in: int,
    max_level: int | None,
    opts: RefineOptions | None = None,
) -> FitResult:
    """The sparse-grid pipeline of :func:`fit_sg` and :func:`fit_asg`.

    Builds the classical grid of ``level``, the draws, the design and the
    first solve, then runs ``opts.steps`` refinement steps and selects one
    of them under ``opts.selection``.  Without ``opts`` no step runs and
    none is selected: that is the classical estimator, recorded as "sg"
    with no trace.
    """
    if data.dim != domain.dim:
        raise ValueError("data and domain dimensions differ")
    r = r_draws if r_draws is not None else 2000 * data.dim
    y = data.y_flat

    grid = build_classical_sparse_grid(data.dim, level, max_level=max_level)
    draws = halton_draws(r, data.dim, burn_in=burn_in, domain=domain)
    design = build_design_matrix(data, draws, BasisSet(grid, domain))
    sol = _solve(solve_cls, solver, _design_problem(design, y))

    grids = [grid]
    designs = [design]
    sols = [sol]
    refined_log: list[tuple] = [()]
    added_log: list[tuple] = [()]
    terminated_early = False

    for _ in range(opts.steps if opts is not None else 0):
        scores = _refinable_scores(grid, _column_scores(opts.criterion, sol.alpha, design, y))
        if not scores:
            terminated_early = True
            break
        ranked = sorted(scores, key=lambda p: (-scores[p], grid.position(p)))
        targets = ranked[: opts.points_per_step]
        new_grid, _report = refine(grid, targets)
        added = new_grid.points[len(grid):]
        design = incremental_columns(design, added, draws, data)
        warm = np.concatenate([sol.alpha, np.zeros(len(added))])
        sol = _solve(solve_cls, solver, _design_problem(design, y), x0=warm)
        grid = new_grid
        grids.append(grid)
        designs.append(design)
        sols.append(sol)
        refined_log.append(tuple(targets))
        added_log.append(tuple(added))

    selected, trace = 0, None
    if opts is not None:
        n_steps = len(grids) - 1
        in_sample = [s.ssr_raw / data.n_rows for s in sols]
        aics = [_aic_value(s.ssr_raw, data.n_rows, s.alpha.shape[0]) for s in sols]

        oos_mse = [None] * (n_steps + 1)
        oos_ll = [None] * (n_steps + 1)
        clamped_total = 0
        if opts.selection in ("cv_mse", "cv_ll"):
            mse_folds = np.empty((opts.k_folds, n_steps + 1))
            ll_folds = np.empty((opts.k_folds, n_steps + 1))
            folds = _folds(data, opts.k_folds, opts.cv_seed)
            for f, (train_pos, test_pos) in enumerate(folds):
                train_rows = data.row_slice(train_pos)
                test_rows = data.row_slice(test_pos)
                y_test = data.y[test_pos]
                warm = None
                for s, dsg in enumerate(designs):
                    problem = _design_problem(dsg, y, train_rows)
                    fold_sol = _solve(solve_cls, solver, problem, x0=warm)
                    pred = (dsg.Z[test_rows] @ fold_sol.alpha).reshape(
                        test_pos.shape[0], data.n_alts
                    )
                    mse_folds[f, s] = heldout_mse(pred, y_test)
                    ll, clamped = heldout_loglik(pred, y_test)
                    ll_folds[f, s] = ll
                    clamped_total += clamped
                    if s < n_steps:
                        pad = len(grids[s + 1]) - len(grids[s])
                        warm = np.concatenate([fold_sol.alpha, np.zeros(pad)])
            oos_mse = [tuple(mse_folds[:, s]) for s in range(n_steps + 1)]
            oos_ll = [tuple(ll_folds[:, s]) for s in range(n_steps + 1)]

        if opts.selection == "cv_mse":
            criterion_values = [float(np.mean(v)) for v in oos_mse]
        elif opts.selection == "cv_ll":
            criterion_values = [-float(np.mean(v)) for v in oos_ll]
        else:
            criterion_values = list(aics)
        selected = int(np.argmin(criterion_values))

        records = [
            StepRecord(
                step=s,
                refined_points=refined_log[s],
                added_points=added_log[s],
                n_parameters=len(grids[s]),
                in_sample_mse=in_sample[s],
                aic=aics[s],
                oos_mse_folds=oos_mse[s],
                oos_mse_mean=float(np.mean(oos_mse[s])) if oos_mse[s] else None,
                oos_loglik_folds=oos_ll[s],
                oos_loglik_mean=float(np.mean(oos_ll[s])) if oos_ll[s] else None,
            )
            for s in range(n_steps + 1)
        ]
        trace = RefinementTrace(
            records=records,
            selected_step=selected,
            terminated_early=terminated_early,
            n_clamped_loglik=clamped_total,
        )

    kind = "sg" if opts is None else "asg"
    best_sol = sols[selected]
    draws_config = {"rule": "halton", "r": r, "burn_in": burn_in}
    config = _config(kind, {"level": level}, domain, solver, draws_config, opts)
    return FitResult(
        kind=kind,
        domain=domain,
        alpha=best_sol.alpha,
        support=draws.draws,
        density_at_draws=designs[selected].basis_at_draws @ best_sol.alpha,
        diagnostics=_diagnostics(best_sol, data.n_rows),
        config=config,
        grid=grids[selected],
        trace=trace,
    )


def _point_list_json(points) -> list:
    return [{"levels": list(p.levels), "indices": list(p.indices)} for p in points]


def _trace_to_json(trace: RefinementTrace) -> dict:
    return {
        "selected_step": trace.selected_step,
        "terminated_early": trace.terminated_early,
        "n_clamped_loglik": trace.n_clamped_loglik,
        "records": [
            {
                "step": r.step,
                "refined_points": _point_list_json(r.refined_points),
                "added_points": _point_list_json(r.added_points),
                "n_parameters": r.n_parameters,
                "in_sample_mse": r.in_sample_mse,
                "aic": r.aic,
                "oos_mse_folds": list(r.oos_mse_folds) if r.oos_mse_folds else None,
                "oos_mse_mean": r.oos_mse_mean,
                "oos_loglik_folds": list(r.oos_loglik_folds) if r.oos_loglik_folds else None,
                "oos_loglik_mean": r.oos_loglik_mean,
            }
            for r in trace.records
        ],
    }


def _trace_from_json(obj: dict) -> RefinementTrace:
    records = [
        StepRecord(
            step=r["step"],
            refined_points=tuple(
                GridPoint(tuple(p["levels"]), tuple(p["indices"]))
                for p in r["refined_points"]
            ),
            added_points=tuple(
                GridPoint(tuple(p["levels"]), tuple(p["indices"]))
                for p in r["added_points"]
            ),
            n_parameters=r["n_parameters"],
            in_sample_mse=r["in_sample_mse"],
            aic=r["aic"],
            oos_mse_folds=tuple(r["oos_mse_folds"]) if r["oos_mse_folds"] else None,
            oos_mse_mean=r["oos_mse_mean"],
            oos_loglik_folds=tuple(r["oos_loglik_folds"]) if r["oos_loglik_folds"] else None,
            oos_loglik_mean=r["oos_loglik_mean"],
        )
        for r in obj["records"]
    ]
    return RefinementTrace(
        records=records,
        selected_step=obj["selected_step"],
        terminated_early=obj["terminated_early"],
        n_clamped_loglik=obj.get("n_clamped_loglik", 0),
    )


def fit_to_json(fit: FitResult) -> dict:
    """JSON-ready view of a fit.

    Draw-dependent arrays (support, density) are not stored: they are
    reconstructed exactly from the config on load, since the draw sequence
    is deterministic.
    """
    return {
        "schema_version": 1,
        "estimator": fit.kind,
        "config": fit.config,
        "grid": grid_to_json(fit.grid) if fit.grid is not None else None,
        "alpha": fit.alpha.tolist(),
        "diagnostics": {
            k: (list(v) if isinstance(v, (list, tuple)) else v)
            for k, v in fit.diagnostics.items()
        },
        "trace": _trace_to_json(fit.trace) if fit.trace is not None else None,
    }


def fit_from_json(obj: dict) -> FitResult:
    """Rebuild a :class:`FitResult` from :func:`fit_to_json` output."""
    if obj.get("schema_version") != 1:
        raise ValueError("unsupported fit schema version")
    kind = obj["estimator"]
    config = obj["config"]
    domain = Domain(
        np.asarray(config["domain"]["lower"], dtype=float),
        np.asarray(config["domain"]["upper"], dtype=float),
    )
    alpha = np.asarray(obj["alpha"], dtype=float)
    trace = _trace_from_json(obj["trace"]) if obj.get("trace") else None
    if kind == "fkrb":
        points = fkrb_grid(domain, config["q"])
        return FitResult(
            kind=kind,
            domain=domain,
            alpha=alpha,
            support=points,
            density_at_draws=alpha,
            diagnostics=obj["diagnostics"],
            config=config,
            fixed_grid=points,
        )
    max_level = config.get("refinement", {}).get("max_level") or max(
        5, config["level"]
    )
    grid = grid_from_json(obj["grid"], base_level=0, max_level=max_level)
    draws = halton_draws(
        config["draws"]["r"],
        domain.dim,
        burn_in=config["draws"]["burn_in"],
        domain=domain,
    )
    basis = BasisSet(grid, domain)
    phi = basis.evaluate(draws.draws)
    return FitResult(
        kind=kind,
        domain=domain,
        alpha=alpha,
        support=draws.draws,
        density_at_draws=phi @ alpha,
        diagnostics=obj["diagnostics"],
        config=config,
        grid=grid,
        trace=trace,
    )
