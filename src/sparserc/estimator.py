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
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.sparse as sp

from .basis import BasisSet, Domain, domain_from_json
from .checks import check_fields, finite_array, json_dataclass, json_field, json_object
from .choicemodel import (
    ChoiceDataset,
    DesignMatrix,
    build_design_matrix,
    choice_probabilities,
    incremental_columns,
    kernel_sweep,
)
from .clsolver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    CLSProblem,
    CLSSolution,
    NonConvergenceError,
    nonconvergence,
    solve_cls,
    solve_cls_stack,
    solve_simplex_cls,
)
from .distribution import check_weights, lattice_points
from .hiergrid import (
    DEFAULT_MAX_LEVEL,
    CapacityError,
    GridPoint,
    SparseGrid,
    build_classical_sparse_grid,
    grid_from_json,
    grid_to_json,
    refinable_points,
    refine,
)
from .quasirand import DEFAULT_BURN_IN, halton_draws

LOGLIK_CLAMP = 1e-12
AIC_SENTINEL = -1e300
# Halton draws per dimension when a fit is given no draw count.
DRAWS_PER_DIM = 2000

@dataclass(frozen=True)
class SolverOptions:
    """Solver settings; ``strict=False`` downgrades nonconvergence from an
    error to a warning carrying the best iterate."""

    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    strict: bool = True

    def __post_init__(self):
        check_fields(self, float, "tol", low=0.0, exclusive=True)
        check_fields(self, int, "max_iter", low=1)
        check_fields(self, bool, "strict")


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
    max_level: int = DEFAULT_MAX_LEVEL
    cv_seed: int = 0

    def __post_init__(self):
        check_fields(self, int, "steps", "cv_seed", low=0)
        check_fields(self, int, "points_per_step", "max_level", low=1)
        check_fields(self, int, "k_folds", low=2)
        check_fields(self, str, "criterion", choices=("surplus", "local_error"))
        check_fields(self, str, "selection", choices=("cv_mse", "cv_ll", "aic"))


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
    trace: RefinementTrace | None = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.support = np.asarray(self.support, dtype=float)
        self.density_at_draws = np.asarray(self.density_at_draws, dtype=float)
        if self.kind not in ("sg", "asg", "fkrb"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.alpha.ndim != 1 or not np.isfinite(self.alpha).all():
            raise ValueError(f"alpha must be a list of finite numbers, got {self.alpha!r:.60}")
        check_weights(self.density_at_draws)
        if self.diagnostics.get("n_parameters") != self.alpha.shape[0]:
            raise ValueError("n_parameters must equal the coefficient count")

    @property
    def n_parameters(self) -> int:
        return self.alpha.shape[0]


def _solve(solve, solver: SolverOptions | None, *args, **kwargs):
    """Call a solve function (one solution, or a list for
    :func:`solve_cls_stack`) with the solver settings.

    With ``strict=False`` an unconverged solution is returned marked by a
    warning; otherwise it raises :class:`NonConvergenceError`.
    """
    solver = solver or SolverOptions()
    try:
        out = solve(*args, tol=solver.tol, max_iter=solver.max_iter, **kwargs)
    except NonConvergenceError as exc:
        if solver.strict:
            raise
        out = exc.best
    for sol in out if isinstance(out, list) else [out]:
        if sol.stop_reason != "converged":
            if solver.strict:
                raise nonconvergence(sol, solver.max_iter)
            sol.warnings.append("nonconvergence: best iterate returned")
    return out


def _diagnostics(sol: CLSSolution, n_rows: int) -> dict:
    return {
        "ssr": sol.ssr,
        "ssr_raw": sol.ssr_raw,
        "kkt_residual": sol.kkt_residual,
        "max_ineq_violation": sol.max_ineq_violation,
        "eq_violation": sol.eq_violation,
        "iterations": sol.iterations,
        "stop_reason": sol.stop_reason,
        "n_parameters": sol.alpha.shape[0],
        "n_rows": n_rows,
        "warnings": list(sol.warnings),
    }


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
    to ``DRAWS_PER_DIM * D``.
    """
    return _fit_hierarchical(data, domain, level, r_draws, solver, burn_in, max_level)


def fkrb_grid(domain: Domain, q_per_dim: int) -> np.ndarray:
    """Cartesian fixed grid with q interior (cell-midpoint) points per axis."""
    if q_per_dim < 1:
        raise ValueError("q_per_dim must be >= 1")
    return lattice_points(
        domain.lower[:, None] + (np.arange(q_per_dim) + 0.5) * domain.width[:, None] / q_per_dim
    )


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
    cols = choice_probabilities(data.x, points).reshape(data.n_rows, -1)
    sol = _solve(solve_simplex_cls, solver, cols, data.y_flat)
    return FitResult(
        kind="fkrb",
        domain=domain,
        alpha=sol.alpha,
        support=points,
        density_at_draws=sol.alpha,
        diagnostics=_diagnostics(sol, data.n_rows),
        config=_config("fkrb", {"q": q_per_dim}, domain, solver),
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


def _aic_value(ssr_raw: float, n_rows: int, n_parameters: int) -> float:
    if ssr_raw <= 0.0:
        warnings.warn("zero residual sum: AIC pinned at sentinel", stacklevel=2)
        return AIC_SENTINEL
    return n_rows * math.log(ssr_raw / n_rows) + 2.0 * n_parameters


def fold_assignments(unit_ids, k: int, seed: int = 0) -> dict:
    """Deterministic unit-to-fold map, invariant to unit ordering.

    Folds are a seeded permutation of the *sorted* unit ids, so shuffling the
    rows of a dataset never moves a unit to a different fold.  The map is
    keyed by each id as a Python number.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    ids = np.sort(np.asarray(unit_ids))
    if k > ids.shape[0]:
        raise ValueError(f"k_folds = {k} exceeds the {ids.shape[0]} units of the data")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ids.shape[0])
    folds = np.empty(ids.shape[0], dtype=int)
    folds[perm] = np.arange(ids.shape[0]) % k
    return dict(zip(ids.tolist(), folds.tolist()))


def predict_probabilities(fit: FitResult, data: ChoiceDataset) -> np.ndarray:
    """Predicted inside-alternative probabilities, ``(N, J)``.

    The prediction only needs the discrete density: ``P_nj = sum_r
    g(x_nj, support_r) * density_r``.
    """
    pred = kernel_sweep(data.x, fit.support, sp.csr_array(fit.density_at_draws[:, None]))
    return pred.reshape(data.n_units, data.n_alts)


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


def _fold_scores(scored) -> tuple[list, list, int]:
    """Held-out MSE and log-likelihood of each ``(prediction, outcomes)``
    pair, and the number of probabilities clamped over all of them."""
    mse, ll, n_clamped = [], [], 0
    for pred, y in scored:
        mse.append(heldout_mse(pred, y))
        fold_ll, clamped = heldout_loglik(pred, y)
        ll.append(fold_ll)
        n_clamped += clamped
    return mse, ll, n_clamped


@dataclass
class CvResult:
    per_fold: list
    mean: float
    n_clamped: int = 0


def _folds(data: ChoiceDataset, k: int, seed: int):
    """Yield the ``(train, test)`` unit positions of each of ``k`` folds."""
    assign = fold_assignments(data.unit_ids, k, seed)
    fold_of = np.array([assign[u] for u in data.unit_ids.tolist()])
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
    scored = [
        (predict_probabilities(fit_procedure(data.subset(train)), data.subset(test)), data.y[test])
        for train, test in _folds(data, k, seed)
    ]
    mse, ll, n_clamped = _fold_scores(scored)
    if metric == "mse":
        return CvResult(per_fold=mse, mean=float(np.mean(mse)))
    return CvResult(per_fold=ll, mean=float(np.mean(ll)), n_clamped=n_clamped)


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

    Full-search refinement in one pass: from the classical grid of
    ``level``, each of ``refine_opts.steps`` steps scores the refinable
    points on the previous step's full-data fit, refines the best ones and
    refits.
    Each step, the base grid included, is scored under the configured
    selection rule as it is fitted (its k fold refits are solved together,
    each warm-started from its fold's solution at the previous step), and
    the fit at the best step is returned together with the whole trace.
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

    One loop over steps ``0..opts.steps`` on the classical grid of ``level``
    and its draws.  A step after 0 refines the previous step's grid and
    appends the new columns to the design.  Every step then solves the
    full-data problem, warm-started from the previous step; under a
    cross-validated ``opts.selection`` it solves and scores its fold refits;
    and it appends its :class:`StepRecord`.  The step that minimizes the
    selection criterion is returned.  Without ``opts`` only step 0 runs and
    none is selected: that is the classical estimator, recorded as "sg" with
    no trace.

    A fit that reads no row of the design, one with no refinement step and
    no fold refits (the sg fit, or zero steps under "aic"), builds it with
    ``gram=True``: the sweep reduces each unit tile into the sums ``Z' Z``
    and ``Z' y`` of the step-0 problem, so no ``(N * J, B)`` array is
    allocated.  Every other fit keeps ``Z`` for its per-row values: the
    ``local_error`` scores, the folds' held-out rows and the appended
    columns of each step.
    """
    if data.dim != domain.dim:
        raise ValueError("data and domain dimensions differ")
    r = r_draws if r_draws is not None else DRAWS_PER_DIM * data.dim
    y = data.y_flat
    cv = opts is not None and opts.selection in ("cv_mse", "cv_ll")
    if cv:
        test_rows = [data.row_slice(test) for _, test in _folds(data, opts.k_folds, opts.cv_seed)]

    grid = build_classical_sparse_grid(data.dim, level, max_level=max_level)
    draws = halton_draws(r, data.dim, burn_in=burn_in, domain=domain)
    gram = not cv and (opts is None or opts.steps == 0)
    design = build_design_matrix(data, draws, BasisSet(grid, domain), gram=gram)
    # (grid, full-data solution) of each step; a step appends columns, so its
    # design is a column prefix of the last one, and only the last one is kept
    path, records = [], []
    targets, added, sol, fold_sols = (), (), None, None
    clamped_total = 0
    terminated_early = False
    for step in range(opts.steps + 1 if opts is not None else 1):
        if step:
            scores = _refinable_scores(grid, _column_scores(opts.criterion, sol.alpha, design, y))
            if not scores:
                terminated_early = True
                break
            ranked = sorted(scores, key=lambda p: (-scores[p], grid.position(p)))
            targets = tuple(ranked[: opts.points_per_step])
            new_grid, _report = refine(grid, targets)
            added = new_grid.points[len(grid):]
            design = incremental_columns(design, new_grid, draws, data)
            grid = new_grid
        pad = np.zeros(len(added))
        warm = None if sol is None else np.concatenate([sol.alpha, pad])
        A, c, m = design.basis_at_draws, design.column_mass, y.size
        problem = (CLSProblem(design.gram[0] / m, design.gram[1] / m, y @ y, m, A, c)
                   if design.Z is None else CLSProblem.from_rows(design.Z, y, A, c))
        sol = _solve(solve_cls, solver, problem, x0=warm)
        path.append((grid, sol))
        if opts is None:
            break
        record = StepRecord(
            step=step,
            refined_points=targets,
            added_points=added,
            n_parameters=len(grid),
            in_sample_mse=sol.ssr_raw / data.n_rows,
            aic=_aic_value(sol.ssr_raw, data.n_rows, len(grid)),
        )
        records.append(record)
        if not cv:
            continue
        # the k fold refits share Phi, so they run as one stack.  Fold f trains
        # on the sum of the other folds' statistics, each taken from the fold's
        # held-out rows: no total less its own, which cancels
        held = [(design.Z[rows], y[rows]) for rows in test_rows]
        stats = [(Zf.T @ Zf, Zf.T @ yf, yf @ yf, yf.size) for Zf, yf in held]
        problems = []
        for f in range(len(stats)):
            G, g, yy, m = (sum(t) for t in zip(*stats[:f], *stats[f + 1:]))
            problems.append(replace(problem, H=G / m, b=g / m, yy=yy, m=m))
        warm = None if fold_sols is None else [np.concatenate([f.alpha, pad]) for f in fold_sols]
        fold_sols = _solve(solve_cls_stack, solver, problems, x0=warm)
        mse, ll, clamped = _fold_scores(
            ((Zf @ f.alpha).reshape(-1, data.n_alts), yf.reshape(-1, data.n_alts))
            for (Zf, yf), f in zip(held, fold_sols)
        )
        del held  # not kept through the next step's copy of Z
        clamped_total += clamped
        record.oos_mse_folds, record.oos_mse_mean = tuple(mse), float(np.mean(mse))
        record.oos_loglik_folds, record.oos_loglik_mean = tuple(ll), float(np.mean(ll))

    selected, trace = 0, None
    if opts is not None:
        criterion = {
            "cv_mse": lambda rec: rec.oos_mse_mean,
            "cv_ll": lambda rec: -rec.oos_loglik_mean,
            "aic": lambda rec: rec.aic,
        }[opts.selection]
        selected = int(np.argmin([criterion(rec) for rec in records]))
        trace = RefinementTrace(records, selected, terminated_early, clamped_total)

    kind = "sg" if opts is None else "asg"
    best_grid, best_sol = path[selected]
    draws_config = {"rule": "halton", "r": r, "burn_in": burn_in}
    setting = {"level": level}
    if opts is None:
        # asg records its cap in the refinement options.
        setting["max_level"] = grid.max_level
    config = _config(kind, setting, domain, solver, draws_config, opts)
    return FitResult(
        kind=kind,
        domain=domain,
        alpha=best_sol.alpha,
        support=draws,
        # the selected grid's columns of Phi, as fit_from_json evaluates them
        density_at_draws=design.basis_at_draws[:, : len(best_grid)] @ best_sol.alpha,
        diagnostics=_diagnostics(best_sol, data.n_rows),
        config=config,
        grid=best_grid,
        trace=trace,
    )


def _trace_from_json(obj) -> RefinementTrace:
    """Rebuild the trace that ``asdict`` wrote; JSON written before traces
    recorded ``n_clamped_loglik`` gets the field's default.  A malformed
    trace raises a ``ValueError`` naming it."""
    trace = json_dataclass(RefinementTrace, obj, "fit trace")
    try:
        trace.records = [json_dataclass(StepRecord, r, f"fit trace record {k}")
                         for k, r in enumerate(trace.records)]
        for r in trace.records:
            for key in ("refined_points", "added_points"):
                points = [GridPoint(tuple(p["levels"]), tuple(p["indices"]))
                          for p in getattr(r, key)]
                setattr(r, key, tuple(points))
            for key in ("oos_mse_folds", "oos_loglik_folds"):
                setattr(r, key, tuple(getattr(r, key)) if getattr(r, key) else None)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"fit trace is malformed: {exc}") from None
    return trace


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
        "trace": asdict(fit.trace) if fit.trace is not None else None,
    }


def fit_from_json(obj: dict) -> FitResult:
    """Rebuild a :class:`FitResult` from :func:`fit_to_json` output; a bad
    value raises a ``ValueError`` that names its key."""
    obj = json_object(obj, "fit", required=("estimator", "config", "alpha", "diagnostics"))
    if obj.get("schema_version") != 1:
        raise ValueError("unsupported fit schema version")
    kind = json_field(obj, "estimator", str, "fit", optional=False, choices=("sg", "asg", "fkrb"))
    config = json_object(obj["config"], "fit config", required=("domain",))
    domain = domain_from_json(config["domain"], "fit config domain")
    alpha = finite_array("fit alpha", obj["alpha"])
    diagnostics = json_object(obj["diagnostics"], "fit diagnostics")
    trace = _trace_from_json(obj["trace"]) if obj.get("trace") else None
    if kind == "fkrb":
        q = json_field(config, "q", int, "fit config", optional=False, low=1)
        grid, support, density = None, fkrb_grid(domain, q), alpha
    else:
        level = json_field(config, "level", int, "fit config", optional=False, low=1)
        refinement = json_object(config.get("refinement"), "fit config refinement")
        # Fit JSON written before sg configs recorded ``max_level`` falls
        # back to the default cap.
        max_level = (
            json_field(config, "max_level", int, "fit config", low=1)
            or json_field(refinement, "max_level", int, "fit config refinement", low=1)
            or max(DEFAULT_MAX_LEVEL, level)
        )
        grid = grid_from_json(obj.get("grid"), max_level=max_level)
        draws = json_object(config.get("draws"), "fit config draws")
        r = json_field(draws, "r", int, "fit config draws", optional=False, low=1)
        burn_in = json_field(draws, "burn_in", int, "fit config draws", optional=False, low=0)
        support = halton_draws(r, domain.dim, burn_in=burn_in, domain=domain)
        density = BasisSet(grid, domain).evaluate(support) @ alpha
    return FitResult(
        kind=kind,
        domain=domain,
        alpha=alpha,
        support=support,
        density_at_draws=density,
        diagnostics=diagnostics,
        config=config,
        grid=grid,
        trace=trace,
    )
