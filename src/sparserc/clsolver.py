"""Convex constrained least squares for probability-weight estimation.

Two entry points share one contract:

* :func:`solve_cls` minimizes ``||y - Z a||^2 / (2 m)`` subject to
  ``A_ineq a >= 0`` row-wise and ``c_eq' a = 1`` (nonnegative implied
  density at every draw, total mass one).
* :func:`solve_simplex_cls` is the special case ``A_ineq = I``,
  ``c_eq = 1`` used by fixed-grid weights.

The general solve runs a primal-dual interior-point iteration (Mehrotra
predictor-corrector).  That choice is deliberate: refined grids produce
large regions of exactly zero density, so hundreds of draw constraints are
active and mutually dependent at the optimum, which makes working-set
methods cycle on degenerate vertices, while the interior-point iteration
is indifferent to constraint redundancy.  Inequality constraints enter
only through matrix-vector products and a ``B x B`` normal matrix, never
through systems of their own size.

The normal matrix is built and factored in NumPy's BLAS and LAPACK: it is
the symmetric rank-``R`` product ``W' W`` of the row-scaled constraints
``W``, which NumPy hands to ``syrk`` (half the flops of a general product),
and ``np.linalg.cholesky`` factors it.  The product is summed blockwise over
the constraint rows.  A draw lies in exactly one support per hierarchical
subspace, so a basis row has one nonzero per subspace and is mostly zeros;
once per solve the rows are ordered by their zero pattern over the leading
(coarsest) columns, which groups draws that are close in space, and cut
into blocks of ``ROW_BLOCK`` rows.  Each block's ``syrk`` runs on the
columns the block touches only, and is added into those entries of the
normal matrix.  A dense constraint matrix gives blocks that touch every
column, the same flops as one product.  SciPy's wheels bundle a second
OpenBLAS with its own thread pool; alternating level-3 calls between the
two pools makes each pool busy-wait while the other runs, slowing both.
Only the level-2 triangular solves (``cho_solve``) go through SciPy.

The simplex variant keeps a working-set (NNLS-style) iteration: its
constraint rows are orthonormal, so the degeneracy above cannot occur,
and the vertex solutions it returns carry exact zeros.  A proximal outer
loop keeps its subproblems strictly convex.

Every solution carries multipliers, and :func:`check_kkt` re-derives all
optimality residuals from the problem data alone.  Both solvers are
deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000

# Constraint rows per block of the normal-matrix build; fixed, so results do
# not depend on memory or worker count.
ROW_BLOCK = 256
# Leading columns whose zero pattern orders the rows; the pattern of up to
# 62 columns packs into a nonnegative int64 key.
_PATTERN_COLUMNS = 62

_PROX_EPS = 1e-6
_MAX_OUTER = 1_000
_IPM_STEP_DAMP = 0.9995


class InfeasibleError(RuntimeError):
    """The constraint set admits no solution."""


class NonConvergenceError(RuntimeError):
    """Iteration limit reached; ``best`` holds the last iterate."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


@dataclass
class CLSProblem:
    """Data of one constrained least-squares instance.

    ``objective_scale`` divides the squared-error sum; by default it is the
    number of rows, matching the mean-squared objective.  Changing it rescales
    the objective without moving the minimizer.
    """

    Z: np.ndarray
    y: np.ndarray
    A_ineq: np.ndarray
    c_eq: np.ndarray
    objective_scale: float | None = None

    def __post_init__(self):
        self.Z = np.asarray(self.Z, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.A_ineq = np.asarray(self.A_ineq, dtype=float)
        self.c_eq = np.asarray(self.c_eq, dtype=float)
        if self.Z.ndim != 2 or self.y.shape != (self.Z.shape[0],):
            raise ValueError("Z must be (m, B) and y (m,)")
        if self.A_ineq.ndim != 2 or self.A_ineq.shape[1] != self.Z.shape[1]:
            raise ValueError("A_ineq must have one column per coefficient")
        if self.c_eq.shape != (self.Z.shape[1],):
            raise ValueError("c_eq must have one entry per coefficient")
        if not np.any(self.c_eq > 0):
            raise ValueError("c_eq needs at least one positive entry")
        for name in ("Z", "y", "A_ineq", "c_eq"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                idx = np.argwhere(~np.isfinite(arr))[0]
                where = int(idx[0]) if idx.size == 1 else tuple(int(i) for i in idx)
                raise ValueError(
                    f"{name} must be finite: entry {where} is {arr[tuple(idx)]}"
                )
        if self.objective_scale is None:
            self.objective_scale = float(self.Z.shape[0])

    @property
    def n_coef(self) -> int:
        return self.Z.shape[1]

    @property
    def n_ineq(self) -> int:
        return self.A_ineq.shape[0]


@dataclass
class CLSSolution:
    """Solver output: coefficients, objective, and optimality certificate."""

    alpha: np.ndarray
    ssr: float
    ssr_raw: float
    kkt_residual: float
    max_ineq_violation: float
    eq_violation: float
    iterations: int
    lambda_ineq: np.ndarray
    mu_eq: float
    ridge: float = 0.0
    warnings: list = field(default_factory=list)


def objective(problem: CLSProblem, alpha: np.ndarray) -> float:
    """Scaled objective ``||y - Z a||^2 / (2 * objective_scale)``."""
    r = problem.y - problem.Z @ np.asarray(alpha, dtype=float)
    return float(r @ r) / (2.0 * problem.objective_scale)


def _column_scale(problem: CLSProblem) -> np.ndarray:
    c = problem.c_eq
    if np.all(c > 0):
        return c.astype(float)
    return np.ones_like(c)


def feasible_start(problem: CLSProblem) -> np.ndarray:
    """A feasible point, preferring a one-column vertex.

    Any column whose inequality entries are all nonnegative and whose
    equality coefficient is positive yields one (the lowest such index is
    used); otherwise a linear-programming feasibility phase runs.  Raises
    :class:`InfeasibleError` when no feasible point exists.
    """
    A, c = problem.A_ineq, problem.c_eq
    if problem.n_ineq == 0:
        ok = c > 0
    else:
        ok = (A.min(axis=0) >= 0.0) & (c > 0)
    idx = np.flatnonzero(ok)
    if idx.size:
        x = np.zeros(problem.n_coef)
        x[idx[0]] = 1.0 / c[idx[0]]
        return x
    from scipy.optimize import linprog

    res = linprog(
        c=np.zeros(problem.n_coef),
        A_ub=-A if problem.n_ineq else None,
        b_ub=np.zeros(problem.n_ineq) if problem.n_ineq else None,
        A_eq=c[None, :],
        b_eq=np.array([1.0]),
        bounds=(None, None),
        method="highs",
    )
    if res.status != 0 or res.x is None:
        raise InfeasibleError(f"no feasible point: {res.message}")
    return np.asarray(res.x, dtype=float)


def _solve_kkt(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a KKT system, falling back to least squares when singular."""
    try:
        sol = np.linalg.solve(K, rhs)
        if np.all(np.isfinite(sol)):
            res = K @ sol - rhs
            if np.max(np.abs(res)) <= 1e-8 * max(1.0, float(np.max(np.abs(rhs)))):
                return sol
    except np.linalg.LinAlgError:
        pass
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol


def _package(problem, v, s, lam, mu, iterations, ridge, warnings_):
    alpha = v / s
    resid = problem.y - problem.Z @ alpha
    ssr_raw = float(resid @ resid)
    ssr = ssr_raw / (2.0 * problem.objective_scale)
    if problem.n_ineq:
        gx = problem.A_ineq @ alpha
        max_viol = float(max(0.0, -gx.min()))
    else:
        max_viol = 0.0
    eq_violation = float(problem.c_eq @ alpha - 1.0)
    sol = CLSSolution(
        alpha=alpha,
        ssr=ssr,
        ssr_raw=ssr_raw,
        kkt_residual=np.nan,
        max_ineq_violation=max_viol,
        eq_violation=eq_violation,
        iterations=iterations,
        lambda_ineq=lam,
        mu_eq=float(mu),
        ridge=ridge,
        warnings=list(warnings_),
    )
    sol.kkt_residual = check_kkt(problem, sol)["stationarity"]
    return sol


def _cholesky_jittered(M: np.ndarray):
    """Lower Cholesky factor of ``M`` as a ``cho_solve`` factor.

    A diagonal jitter grows until the factorization succeeds.  A non-finite
    ``M`` raises :class:`numpy.linalg.LinAlgError`, because
    ``np.linalg.cholesky`` does not check finiteness.
    """
    if not np.isfinite(M).all():
        raise np.linalg.LinAlgError("normal matrix not finite")
    jitter = 0.0
    base = float(np.max(np.diag(M)))
    for attempt in range(8):
        try:
            return np.linalg.cholesky(M + jitter * np.eye(M.shape[0])), True
        except np.linalg.LinAlgError:
            jitter = base * (1e-14 * 10.0**attempt)
    raise np.linalg.LinAlgError("normal matrix not factorizable")


def _max_step(z: np.ndarray, dz: np.ndarray) -> float:
    """Largest step in [0, 1] keeping ``z + step * dz`` nonnegative."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dz < 0, z / dz, -np.inf)
    return float(min(1.0, -ratio.max()))


def _row_blocks(At: np.ndarray) -> list:
    """Blocks of the rows of ``At`` for :func:`_normal_matrix`.

    Rows are stably sorted by their zero pattern over the leading columns
    (the first column is the most significant bit) and cut into blocks of
    ``ROW_BLOCK``.  Each block is ``(rows, cols, At[rows][:, cols])``, with
    ``cols`` the columns where some row of the block is nonzero.
    """
    R, B = At.shape
    k = min(B, _PATTERN_COLUMNS)
    nonzero = At != 0.0
    key = nonzero[:, :k] @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))
    order = np.argsort(key, kind="stable")
    spans = []
    for start in range(0, R, ROW_BLOCK):
        rows = order[start:start + ROW_BLOCK]
        spans.append((rows, np.flatnonzero(nonzero[rows].any(axis=0))))
    del nonzero
    # one buffer holds every block: many mid-sized arrays that live through
    # the solve fragment the heap and keep its memory after the solve
    store = np.empty(sum(rows.size * cols.size for rows, cols in spans))
    blocks = []
    used = 0
    for rows, cols in spans:
        Ab = store[used:used + rows.size * cols.size].reshape(rows.size, cols.size)
        Ab[...] = At[np.ix_(rows, cols)]
        used += Ab.size
        blocks.append((rows, cols, Ab))
    return blocks


def _normal_matrix(blocks: list, d: np.ndarray, H: np.ndarray) -> np.ndarray:
    """``At' diag(d) At + H`` summed over the row blocks of ``At``.

    Each block adds ``W_b' W_b`` with ``W_b = At_b * sqrt(d_b)``, which NumPy
    sends to ``syrk``, into the entries of the columns it touches.
    """
    B = H.shape[0]
    sqrt_d = np.sqrt(d)
    M = H.copy()
    flat = M.reshape(-1)
    for rows, cols, Ab in blocks:
        Wb = Ab * sqrt_d[rows][:, None]
        flat[(cols[:, None] * B + cols).ravel()] += (Wb.T @ Wb).ravel()
    return M


def solve_cls(
    problem: CLSProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    ridge: float = 0.0,
    x0: np.ndarray | None = None,
) -> CLSSolution:
    """Interior-point solve of the density-constrained least squares.

    ``x0`` seeds the iteration when supplied (any point of the right shape
    works; a feasible one is found otherwise, raising
    :class:`InfeasibleError` if none exists).  The converged objective is
    the constrained minimum, so it never exceeds the value at any feasible
    warm start.  Raises :class:`NonConvergenceError` carrying the best
    iterate when the iteration stops short of the tolerances; its message
    names the reason: ``stalled`` (no gap progress), ``factorization
    failed`` (the normal matrix is non-finite or not factorizable) or
    ``iteration cap (max_iter=N)``.
    """
    Z, y, A, c = problem.Z, problem.y, problem.A_ineq, problem.c_eq
    B = problem.n_coef
    R = problem.n_ineq
    scale = problem.objective_scale
    warnings_: list[str] = []

    s = _column_scale(problem)
    Zs = Z / s
    cs = c / s
    H = Zs.T @ Zs / scale
    if ridge:
        H = H + ridge * np.eye(B)
    b = Zs.T @ y / scale

    v0 = None
    if x0 is not None:
        a0 = np.asarray(x0, dtype=float)
        if a0.shape == (B,) and np.all(np.isfinite(a0)):
            v0 = a0 * s
        else:
            warnings_.append("malformed warm start ignored")
    if v0 is None or R == 0:
        start = feasible_start(problem)  # raises when infeasible
        if v0 is None:
            v0 = start * s

    if R == 0:
        # equality-constrained least squares; one bordered solve
        K = np.zeros((B + 1, B + 1))
        K[:B, :B] = H
        K[:B, B] = cs
        K[B, :B] = cs
        sol = _solve_kkt(K, np.concatenate([b, [1.0]]))
        return _package(problem, sol[:B], s, np.zeros(0), sol[B], 1, ridge, warnings_)

    At = A / s
    t = np.maximum(At.max(axis=1), -At.min(axis=1))
    # an all-zero row is the vacuous constraint 0 >= 0; scale 1 keeps its
    # multiplier finite
    t[t == 0.0] = 1.0
    At /= t[:, None]
    blocks = _row_blocks(At)

    v = v0.copy()
    total = cs @ v
    if abs(total) > 1e-12:
        v = v / total
    sig = At @ v
    floor = max(1e-8, 1e-3 * float(np.median(np.abs(sig))) if R else 1e-8)
    sig = np.maximum(sig, floor)
    lam = np.full(R, max(1.0, float(np.max(np.abs(b)))))
    mu = 0.0

    tol_stat = 0.5 * tol
    tol_comp = 0.5 * tol
    converged = False
    stop = f"iteration cap (max_iter={max_iter})"
    it = 0
    gap_prev = np.inf
    stall = 0
    while it < max_iter:
        it += 1
        r_d = H @ v - b - At.T @ lam + mu * cs
        r_p = At @ v - sig
        r_e = float(cs @ v - 1.0)
        comp = lam * sig
        gap = float(comp.mean())
        if (
            float(np.max(np.abs(r_d))) <= tol_stat
            and float(np.max(comp)) <= tol_comp
            and float(np.max(np.abs(r_p))) <= tol_stat
            and abs(r_e) <= 1e-11 * (1.0 + float(np.max(np.abs(v))))
        ):
            converged = True
            break
        if gap > 0.9999 * gap_prev:
            stall += 1
            if stall > 30:
                stop = "stalled"
                break
        else:
            stall = 0
        gap_prev = gap

        d = lam / sig
        M = _normal_matrix(blocks, d, H)
        try:
            factor = _cholesky_jittered(M)
        except np.linalg.LinAlgError:
            stop = "factorization failed"
            break
        # the factor of a finite M is finite; a non-finite right-hand side
        # makes the next iteration's M non-finite and stops the loop there
        u2 = cho_solve(factor, cs, check_finite=False)
        cs_u2 = cs @ u2

        def newton(rc):
            g = -r_d + At.T @ (rc / sig - d * r_p)
            u1 = cho_solve(factor, g, check_finite=False)
            dmu = (cs @ u1 + r_e) / cs_u2
            dv = u1 - dmu * u2
            dsig = At @ dv + r_p
            dlam = rc / sig - d * dsig
            return dv, dsig, dlam, float(dmu)

        # predictor
        dv_a, dsig_a, dlam_a, dmu_a = newton(-comp)
        ap = _max_step(sig, dsig_a)
        ad = _max_step(lam, dlam_a)
        gap_aff = float((lam + ad * dlam_a) @ (sig + ap * dsig_a)) / R
        sigma_c = (max(gap_aff, 0.0) / max(gap, 1e-300)) ** 3
        # corrector recentered toward sigma_c * gap
        rc = sigma_c * gap - comp - dlam_a * dsig_a
        dv, dsig, dlam, dmu = newton(rc)
        ap = _IPM_STEP_DAMP * _max_step(sig, dsig)
        ad = _IPM_STEP_DAMP * _max_step(lam, dlam)
        v = v + ap * dv
        sig = sig + ap * dsig
        lam = lam + ad * dlam
        mu = mu + ad * dmu

    lam_orig = np.maximum(lam, 0.0) / t
    packaged = _package(problem, v, s, lam_orig, mu, it, ridge, warnings_)
    if not converged:
        raise NonConvergenceError(
            f"interior-point iteration stopped after {it} steps without "
            f"meeting tolerances: {stop}", best=packaged
        )
    return packaged


def solve_simplex_cls(
    Z: np.ndarray,
    y: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    ridge: float = 0.0,
) -> CLSSolution:
    """Least squares over the probability simplex (weights >= 0, sum one).

    Working-set iteration on the bound constraints: the subproblem runs on
    the free variables only, starting from the best single-weight vertex,
    growing or shrinking one variable at a time (ties to the lowest column
    index).  A proximal outer loop keeps every subproblem strictly convex;
    at its fixed point the true stationarity residual is the (driven to
    negligible) proximal gap.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    m_rows, B = Z.shape
    scale = float(m_rows)
    problem = CLSProblem(Z=Z, y=y, A_ineq=np.eye(B), c_eq=np.ones(B))

    H = Z.T @ Z / scale
    if ridge:
        H = H + ridge * np.eye(B)
    b = Z.T @ y / scale
    eps = _PROX_EPS * max(1.0, float(np.max(np.diag(H))))
    H_in = H + eps * np.eye(B)

    start_obj = 0.5 * np.diag(H) - b
    free = [int(np.argmin(start_obj))]
    w = np.zeros(B)
    w[free[0]] = 1.0
    mu = 0.0

    iterations = 0
    converged = False
    w_prev = w.copy()
    for _outer in range(_MAX_OUTER):
        b_in = b + eps * w_prev
        inner_done = False
        while iterations < max_iter:
            # restore nonnegativity on the free set
            while True:
                iterations += 1
                if iterations > max_iter:
                    break
                F = np.asarray(free, dtype=int)
                k = F.size
                K = np.zeros((k + 1, k + 1))
                K[:k, :k] = H_in[np.ix_(F, F)]
                K[:k, k] = 1.0
                K[k, :k] = 1.0
                rhs = np.concatenate([b_in[F], [1.0]])
                sol = _solve_kkt(K, rhs)
                w_f, mu = sol[:k], float(sol[k])
                if w_f.min() >= -1e-12:
                    w = np.zeros(B)
                    w[F] = w_f
                    break
                cur = w[F]
                neg = np.flatnonzero(w_f < -1e-12)
                ratios = cur[neg] / (cur[neg] - w_f[neg])
                theta = float(ratios.min())
                upd = cur + theta * (w_f - cur)
                hit = set(F[neg[ratios <= theta * (1.0 + 1e-12) + 1e-15]].tolist())
                hit |= set(F[np.flatnonzero(upd <= 1e-14)].tolist())
                w = np.zeros(B)
                w[F] = upd
                for j in hit:
                    w[j] = 0.0
                total = w.sum()
                if total > 0:
                    w /= total
                free = sorted(set(free) - hit)
            if iterations > max_iter:
                break
            grad_in = H_in @ w - b_in
            price = grad_in + mu
            price[np.asarray(free, dtype=int)] = np.inf
            enter = int(np.argmin(price))
            if not np.isfinite(price[enter]) or price[enter] >= -tol:
                inner_done = True
                break
            free = sorted(free + [enter])
        if not inner_done:
            break
        gap = eps * float(np.max(np.abs(w - w_prev)))
        w_prev = w.copy()
        if gap <= 0.1 * tol * (1.0 + float(np.max(np.abs(w)))):
            converged = True
            break

    grad = H @ w - b
    lam = np.maximum(grad + mu, 0.0)
    lam[np.asarray(free, dtype=int)] = 0.0
    packaged = _package(problem, w, np.ones(B), lam, mu, iterations, ridge, [])
    if not converged:
        raise NonConvergenceError(
            f"simplex active-set iteration limit {max_iter} reached", best=packaged
        )
    return packaged


def check_kkt(problem: CLSProblem, solution: CLSSolution) -> dict:
    """Recompute all optimality residuals from problem data and multipliers.

    Stationarity is measured on mass-scaled columns (each coefficient scaled
    by its equality weight when those are all positive), which keeps the
    gradient O(1) regardless of draw counts.  Returns a dict with keys
    ``stationarity``, ``primal_ineq``, ``primal_eq``, ``dual``, and
    ``complementarity``.
    """
    alpha = np.asarray(solution.alpha, dtype=float)
    lam = np.asarray(solution.lambda_ineq, dtype=float)
    s = _column_scale(problem)
    v = alpha * s
    Zs = problem.Z / s
    grad = Zs.T @ (Zs @ v - problem.y) / problem.objective_scale
    if solution.ridge:
        grad = grad + solution.ridge * v
    stat = grad + solution.mu_eq * (problem.c_eq / s)
    if problem.n_ineq:
        stat = stat - (problem.A_ineq.T @ lam) / s
        gx = problem.A_ineq @ alpha
        primal_ineq = float(max(0.0, -gx.min()))
        dual = float(max(0.0, -lam.min()))
        complementarity = float(np.max(np.abs(lam * gx)))
    else:
        primal_ineq = 0.0
        dual = 0.0
        complementarity = 0.0
    return {
        "stationarity": float(np.max(np.abs(stat))),
        "primal_ineq": primal_ineq,
        "primal_eq": float(abs(problem.c_eq @ alpha - 1.0)),
        "dual": dual,
        "complementarity": complementarity,
    }
