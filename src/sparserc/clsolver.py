"""Convex constrained least squares for probability-weight estimation.

Three entry points share one contract:

* :func:`solve_cls` minimizes ``||y - Z a||^2 / (2 m)``, ``m`` the rows of
  ``Z``, subject to ``A_ineq a >= 0`` row-wise and ``c_eq' a = 1``
  (nonnegative implied density at every draw, total mass one).  It reads
  the rows only through their sufficient statistics ``H = Z' Z / m``,
  ``b = Z' y / m``, ``y' y`` and ``m``, which a :class:`CLSProblem` holds
  (:meth:`CLSProblem.from_rows` forms them from ``Z`` and ``y``).
  ``A_ineq`` has at least one row (every fit has at least one draw) and no
  negative entry (hat-basis values), and every mass in ``c_eq`` is
  positive, so the point spreading unit mass evenly, ``a_b = 1 / (B c_b)``,
  is always feasible; a cold solve starts there.
* :func:`solve_cls_stack` solves several such problems that share ``A_ineq``
  and ``c_eq`` in one iteration; :func:`solve_cls` is its one-problem case.
* :func:`solve_simplex_cls` is the identity-constrained case ``A_ineq = I``,
  ``c_eq = 1`` of fixed-grid weights.

The general solve runs a primal-dual interior-point iteration (Mehrotra
predictor-corrector).  That choice is deliberate: refined grids produce
large regions of exactly zero density, so hundreds of draw constraints are
active and mutually dependent at the optimum, which makes active-set
methods cycle on degenerate vertices, while the interior-point iteration
is indifferent to constraint redundancy.  Inequality constraints enter
only through matrix-vector products and a ``B x B`` normal matrix, never
through systems of their own size; a problem holds them as one CSR matrix
(:func:`as_csr`) from its construction.

The normal matrix is built and factored in NumPy's BLAS and LAPACK: it is
the symmetric rank-``R`` product ``W' W`` of the row-scaled constraints
``W``, which NumPy hands to ``syrk`` (half the flops of a general product),
and ``np.linalg.cholesky`` factors it.  The product is summed blockwise over
the constraint rows.  A draw lies in exactly one support per hierarchical
subspace, so a basis row has one nonzero per subspace and is mostly zeros;
once per solve the rows are ordered by their zero pattern over the leading
(coarsest) columns, which groups draws that are close in space, and cut
into blocks of at most ``ROW_BLOCK`` rows at coarse pattern changes
(:func:`pattern_blocks`).  Each block's ``syrk`` runs on the columns the
block touches only (:func:`block_slabs`), and is added into those entries
of the normal matrix through a flat index built with the block.  The design
assembly takes its
draws in the same blocks.  A dense constraint matrix gives blocks that
touch every column, the same flops as one product.  SciPy's wheels bundle
a second OpenBLAS with its own thread pool; alternating level-3 calls
between the two pools makes each pool busy-wait while the other runs,
slowing both.  Only the level-2 triangular solves (``cho_solve``) go
through SciPy's BLAS, handed the F-contiguous upper factor so that SciPy
does not copy it; its CSR products are plain loops.

No solve and no check reads the rows: the iteration runs on the
mass-scaled ``H / c_eq / c_eq'`` and ``b / c_eq``, :func:`check_kkt` forms
its gradient as ``(H a - b) / c_eq``, and the residual sum of squares is
``m (a' H a - 2 b' a) + y' y``.  So a problem of many rows, or the sum of
several row sets' statistics, costs the solver no more than its ``B x B``
Gram matrix.

The iteration runs on a stack of ``k`` problems, such as the cross-validation
refits of one refinement step, which share ``Phi``.  The scaled constraints
and their row blocks are built once per stack, and the iterates are
``(k, .)`` arrays in one buffer.  Each problem has its own step lengths, stop
test and stall counter, and leaves the stack when it stops, with the iterate
its own solve stops at.  Each problem keeps the arithmetic of a one-problem
solve (row-wise operations, its own ``syrk``, Cholesky and ``cho_solve``),
except that the products with ``H`` are batched for the whole stack, so it
can differ from its own solve in the last bits.

Every solution carries multipliers and its ``stop_reason``, and
:func:`check_kkt` re-derives all optimality residuals from the problem data
alone.  The interior point is deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000

# Constraint rows per block of the normal-matrix build; fixed, so results do
# not depend on memory or worker count.
ROW_BLOCK = 256
# Leading columns whose zero pattern orders the rows; the pattern of up to
# 62 columns packs into a nonnegative int64 key.
_PATTERN_COLUMNS = 62

_IPM_STEP_DAMP = 0.9995


class NonConvergenceError(RuntimeError):
    """Iteration limit reached; ``best`` holds the last iterate."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


def _reject_bad_entry(name: str, arr, rule: str, ok) -> None:
    """Raise a ``ValueError`` naming the first entry of ``arr`` (the first
    stored one of a sparse matrix, by row and column) that fails ``ok``."""
    values = arr.data if sp.issparse(arr) else np.atleast_1d(arr)  # stored entries, in row order
    good = ok(values)
    if not good.all():
        idx = np.argwhere(~good)[0]
        value = values[tuple(idx)]
        if sp.issparse(arr):  # the stored entry's row and column
            idx = (np.searchsorted(arr.indptr, idx[0], "right") - 1, arr.indices[idx[0]])
        where = int(idx[0]) if len(idx) == 1 else tuple(int(i) for i in idx)
        raise ValueError(f"{name} must {rule}: entry {where} is {value}")


@dataclass
class CLSProblem:
    """Data of one constrained least-squares instance, in Gram form.

    The objective is ``||y - Z a||^2 / (2 m)`` of ``m`` rows ``Z`` and
    outcomes ``y``, held as ``H = Z' Z / m``, ``b = Z' y / m`` and
    ``yy = y' y``; :meth:`from_rows` forms them.  ``A_ineq`` needs at least
    one row and no negative entry, and ``c_eq`` positive entries.
    ``A_ineq`` is held as a CSR matrix: an array is taken as the CSR matrix
    of its nonzeros.
    """

    H: np.ndarray
    b: np.ndarray
    yy: float
    m: int
    A_ineq: sp.csr_array
    c_eq: np.ndarray

    @classmethod
    def from_rows(cls, Z, y, A_ineq, c_eq) -> CLSProblem:
        """The problem of the rows ``Z`` and outcomes ``y``."""
        Z = np.asarray(Z, dtype=float)
        y = np.asarray(y, dtype=float)
        if Z.ndim != 2 or not Z.shape[0] or y.shape != (Z.shape[0],):
            raise ValueError("Z must be (m, B) with m >= 1 and y (m,)")
        _reject_bad_entry("Z", Z, "be finite", np.isfinite)
        _reject_bad_entry("y", y, "be finite", np.isfinite)
        m = Z.shape[0]
        return cls(H=Z.T @ Z / m, b=Z.T @ y / m, yy=float(y @ y), m=m, A_ineq=A_ineq, c_eq=c_eq)

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.yy = float(self.yy)
        self.A_ineq = as_csr(self.A_ineq)
        self.c_eq = np.asarray(self.c_eq, dtype=float)
        if self.b.ndim != 1 or self.H.shape != (self.n_coef,) * 2:
            raise ValueError("H must be (B, B) and b (B,)")
        if self.A_ineq.ndim != 2 or self.A_ineq.shape[1] != self.n_coef:
            raise ValueError("A_ineq must have one column per coefficient")
        if self.A_ineq.shape[0] == 0:
            raise ValueError("A_ineq needs at least one row")
        if self.c_eq.shape != (self.n_coef,):
            raise ValueError("c_eq must have one entry per coefficient")
        checks = [(name, "be finite", np.isfinite) for name in ("H", "b", "yy", "A_ineq", "c_eq")]
        checks += [("m", "be >= 1", lambda a: a >= 1)]
        checks += [("A_ineq", "be >= 0", lambda a: a >= 0.0)]
        checks += [("c_eq", "be > 0", lambda a: a > 0.0)]
        for name, rule, ok in checks:
            _reject_bad_entry(name, getattr(self, name), rule, ok)

    @property
    def n_coef(self) -> int:
        return self.b.shape[0]

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
    warnings: list = field(default_factory=list)
    stop_reason: str = "converged"


def _ssr_raw(problem: CLSProblem, alpha: np.ndarray) -> float:
    """``||y - Z a||^2`` from the Gram form, ``m (a' H a - 2 b' a) + y' y``;
    at 0 where an exact fit rounds below it."""
    return max(0.0, problem.m * float(alpha @ (problem.H @ alpha - 2.0 * problem.b)) + problem.yy)


def objective(problem: CLSProblem, alpha: np.ndarray) -> float:
    """The objective ``||y - Z a||^2 / (2 m)``."""
    return _ssr_raw(problem, np.asarray(alpha, dtype=float)) / (2.0 * problem.m)


def _package(problem, v, s, lam, mu, iterations, warnings_, stop_reason):
    alpha = v / s
    ssr_raw = _ssr_raw(problem, alpha)
    sol = CLSSolution(
        alpha=alpha,
        ssr=ssr_raw / (2.0 * problem.m),
        ssr_raw=ssr_raw,
        kkt_residual=np.nan,
        max_ineq_violation=np.nan,
        eq_violation=float(problem.c_eq @ alpha - 1.0),
        iterations=iterations,
        lambda_ineq=lam,
        mu_eq=float(mu),
        warnings=list(warnings_),
        stop_reason=stop_reason,
    )
    kkt = check_kkt(problem, sol)
    sol.kkt_residual, sol.max_ineq_violation = kkt["stationarity"], kkt["primal_ineq"]
    return sol


def _factor_stack(M: np.ndarray) -> list:
    """``cho_solve`` factors of the slices of a ``(k, B, B)`` stack.

    A slice that does not factor is retried with a diagonal jitter, relative
    to its largest diagonal entry, that grows until it does; a slice that
    never does, or is not finite (``np.linalg.cholesky`` does not check),
    gets ``None``.  Each factor is the upper one, ``L'``, F-contiguous, which
    SciPy's LAPACK wrapper takes without a copy.
    """
    factors = [None] * len(M)
    for i in np.flatnonzero(np.isfinite(M).all(axis=(1, 2))):
        Mi = M[i]
        for rel in [0.0] + [1e-14 * 10.0**a for a in range(7)]:
            try:
                jittered = Mi + rel * np.max(np.diag(Mi)) * np.eye(len(Mi)) if rel else Mi
                factors[i] = np.linalg.cholesky(jittered).T, False
                break
            except np.linalg.LinAlgError:
                pass
    return factors


def _max_step(z: np.ndarray, dz: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Largest step in [0, 1] keeping each row of ``z + step * dz``
    nonnegative, for ``z > 0``; ``ratio`` is scratch of the shape of ``z``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(z, dz, out=ratio)
    # a ratio where dz >= 0 ends at or below -1 and caps nothing: no masked pass
    np.minimum(ratio, 0.0, out=ratio)
    ratio -= dz >= 0
    return np.minimum(1.0, -ratio.max(axis=-1))


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products ``x[i] @ y[i]``, each one BLAS ``dot``."""
    return np.matmul(x[:, None, :], y[..., :, None])[:, 0, 0]


def as_csr(a) -> sp.csr_array:
    """``a`` as a float ``csr_array`` with sorted, unique entries in each row:
    ``a`` itself when it is one, an array as the matrix of its nonzeros."""
    if not (isinstance(a, sp.csr_array) and a.dtype == float and a.has_canonical_format):
        a = sp.csr_array(a, dtype=float, copy=True)
        a.sum_duplicates()
    return a


def block_slabs(a: sp.csr_array, spans) -> list:
    """``a[rows][:, cols]`` as a dense array for each ``(rows, cols)`` of
    ``spans``, read from the CSR arrays of ``a``; each ``cols`` is sorted and
    holds every column where one of its ``rows`` stores an entry.

    The slabs are views of one buffer: many mid-sized arrays that live
    through a loop fragment the heap and keep its memory after the loop.
    """
    store = np.zeros(sum(rows.size * cols.size for rows, cols in spans))
    col = np.empty(a.shape[1], dtype=np.intp)
    slabs = []
    used = 0
    for rows, cols in spans:
        start = a.indptr[rows]
        counts = a.indptr[rows + 1] - start
        # the positions of the rows' entries, row after row, and their places in the slab
        at = np.repeat(start - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        col[cols] = np.arange(cols.size)
        size = rows.size * cols.size
        place = np.repeat(np.arange(used, used + size, cols.size), counts) + col[a.indices[at]]
        store[place] = a.data[at]
        slabs.append(store[used:used + size].reshape(rows.size, cols.size))
        used += size
    return slabs


def pattern_blocks(pattern) -> list:
    """Rows of a matrix in the order of their stored patterns, cut into blocks.

    ``pattern`` is a CSR matrix, or an array read as the matrix of its
    nonzeros.  Rows are stably sorted by their pattern over the leading
    (coarsest) columns, the first column the most significant bit, which
    groups draws that are close in space.  A block holds ``ROW_BLOCK // 2``
    to ``ROW_BLOCK`` rows (the last one may hold fewer) and ends where the
    patterns of consecutive rows first differ in the coarsest column, so it
    spans few coarse supports.  Returns each block as ``(rows, cols)``: its
    rows in order, and the columns where one of them stores an entry.  No
    rows give no blocks.
    """
    pattern = pattern if isinstance(pattern, sp.csr_array) else sp.csr_array(pattern)
    R, B = pattern.shape
    if R == 0:
        return []
    k = min(B, _PATTERN_COLUMNS)
    lead = pattern[:, :k].toarray() != 0
    order = np.argsort(lead @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64)), kind="stable")
    lead = lead[order]
    # coarseness of each boundary between sorted rows: k less the first
    # column where they differ (the appended one for equal patterns: 0)
    change = np.column_stack([lead[1:] != lead[:-1], np.ones(R - 1, dtype=bool)])
    rank = k - change.argmax(axis=1)
    bounds = [0]
    half = ROW_BLOCK // 2
    while bounds[-1] + ROW_BLOCK < R:
        lo = bounds[-1] + half
        window = rank[lo - 1:lo + half]
        bounds.append(lo + window.size - 1 - int(np.argmax(window[::-1])))
    blocks = np.split(order, bounds[1:])
    block_of = np.empty(R, dtype=np.intp)
    block_of[order] = np.repeat(np.arange(len(blocks)), np.diff(np.append(bounds, R)))
    touched = np.zeros((len(blocks), B), dtype=bool)
    touched[np.repeat(block_of, np.diff(pattern.indptr)), pattern.indices] = True
    return [(rows, np.flatnonzero(t)) for rows, t in zip(blocks, touched)]


def _row_blocks(At: sp.csr_array) -> list:
    """Blocks of the rows of ``At`` for :func:`_normal_matrix`.

    The blocks of :func:`pattern_blocks`.  Each block is ``(rows, cols,
    At[rows][:, cols], idx)``, the slab dense, with ``idx`` the flat
    positions of the ``cols x cols`` entries in a ``B x B`` matrix, int32
    while they fit.
    """
    B = At.shape[1]
    flat = np.int32 if B * B <= np.iinfo(np.int32).max else np.intp
    spans = pattern_blocks(At)
    return [
        (rows, cols, Ab, (cols[:, None] * B + cols).ravel().astype(flat))
        for (rows, cols), Ab in zip(spans, block_slabs(At, spans))
    ]


def _normal_matrix(blocks: list, d: np.ndarray, H: np.ndarray) -> np.ndarray:
    """``At' diag(d) At + H`` summed over the row blocks of ``At``.

    Each block adds ``W_b' W_b`` with ``W_b = At_b * sqrt(d_b)``, which NumPy
    sends to ``syrk``, into the entries of the columns it touches.  ``d`` and
    ``H`` may carry a leading stack axis, ``(k, R)`` and ``(k, B, B)``; each
    slice then gets its own ``syrk``.
    """
    B = H.shape[-1]
    M = H.copy()
    flat = M.reshape(-1, B * B)
    for rows, _, Ab, idx in blocks:
        Wb = Ab * np.sqrt(d.take(rows, axis=-1))[..., None]
        # one 1-D scatter per slice; the entries are distinct, so each adds once
        for Mi, Pi in zip(flat, (np.swapaxes(Wb, -1, -2) @ Wb).reshape(-1, idx.size)):
            np.add.at(Mi, idx, Pi)
    return M


def nonconvergence(solution: CLSSolution, max_iter: int) -> NonConvergenceError:
    """The error :func:`solve_cls` raises for an unconverged interior-point solution."""
    reason = solution.stop_reason.replace("_", " ")
    if solution.stop_reason == "iteration_cap":
        reason = f"iteration cap (max_iter={max_iter})"
    return NonConvergenceError(
        f"interior-point iteration stopped after {solution.iterations} steps "
        f"without meeting tolerances: {reason}", best=solution
    )


def solve_cls(
    problem: CLSProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    x0: np.ndarray | None = None,
) -> CLSSolution:
    """Interior-point solve of the density-constrained least squares.

    ``x0`` seeds the iteration when supplied (any finite point of the right
    shape with nonzero mass ``c_eq' x0`` works, rescaled to mass one);
    otherwise, or with a warning for any other ``x0``, it starts from
    uniform mass, ``a_b = 1 / (B c_b)``.
    The converged objective is the constrained minimum, so it never exceeds
    the value at any feasible warm start.  Raises
    :class:`NonConvergenceError` carrying the best iterate when the
    iteration stops short of the tolerances; its message names the reason:
    ``stalled`` (no gap progress), ``factorization failed`` (the normal
    matrix is non-finite or not factorizable) or ``iteration cap
    (max_iter=N)``.  This is :func:`solve_cls_stack` of one problem.
    """
    (sol,) = solve_cls_stack([problem], tol, max_iter, [x0])
    if sol.stop_reason != "converged":
        raise nonconvergence(sol, max_iter)
    return sol


def solve_cls_stack(
    problems: list,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    x0: list | None = None,
) -> list:
    """Interior-point solves of problems that share ``A_ineq`` and ``c_eq``.

    ``x0`` holds one warm start (or None) per problem, as in
    :func:`solve_cls`.  Returns one :class:`CLSSolution` per problem, in
    order, and raises no :class:`NonConvergenceError`: each solution's
    ``stop_reason`` is ``converged``, ``stalled``, ``factorization_failed``
    or ``iteration_cap``.  Raises :class:`ValueError` naming the array when
    two problems differ in ``A_ineq`` or ``c_eq``.
    """
    first = problems[0]
    A = first.A_ineq
    for p in problems[1:]:
        shared = p.A_ineq is A or (p.A_ineq.shape == A.shape and not (p.A_ineq != A).nnz)
        for name, ok in (("A_ineq", shared), ("c_eq", np.array_equal(p.c_eq, first.c_eq))):
            if not ok:
                raise ValueError(f"stacked problems must share {name}")
    k, B, R = len(problems), first.n_coef, first.n_ineq
    x0 = [None] * k if x0 is None else list(x0)
    if len(x0) != k:
        raise ValueError("x0 needs one entry per problem")
    warnings_ = [[] for _ in range(k)]

    # scaled coordinates v = a * c_eq: uniform mass is v = 1 / B
    s = first.c_eq
    cs = np.ones(B)
    H = np.stack([p.H / s / s[:, None] for p in problems])
    b = np.stack([p.b / s for p in problems])
    v = np.empty((k, B))
    for i, a0 in enumerate(x0):
        if a0 is not None:
            a0 = np.asarray(a0, dtype=float)
            # the start is rescaled to mass one, so it needs a mass
            if a0.shape != (B,) or not np.all(np.isfinite(a0)) or abs(a0 @ s) <= 1e-12:
                warnings_[i].append("malformed warm start ignored")
                a0 = None
        v[i] = 1.0 / B if a0 is None else a0 * s

    # each entry scaled by 1 / s, then by 1 / t, as in a dense A / s / t[:, None]
    At = sp.csr_array((A.data / s[A.indices], A.indices, A.indptr), shape=A.shape)
    t = At.max(axis=1).toarray()
    # an all-zero row is the vacuous constraint 0 >= 0; scale 1 keeps its
    # multiplier finite
    t[t == 0.0] = 1.0
    At.data /= np.repeat(t, np.diff(At.indptr))
    blocks = _row_blocks(At)
    AtT = At.T

    # every (k, R) array of the iteration lives in one buffer, updated in
    # place: many mid-sized temporaries fragment the heap and keep its memory
    work = np.empty((10, k, R))
    sig, lam, r_p, comp, d, q, rc, dsig, dlam, dsig_a = work
    v /= _dots(v, cs)[:, None]
    sig[...] = (At @ v.T).T
    floor = np.maximum(1e-8, 1e-3 * np.median(np.abs(sig), axis=1))
    np.maximum(sig, floor[:, None], out=sig)
    lam[...] = np.maximum(1.0, np.abs(b).max(axis=1))[:, None]
    mu = np.zeros(k)

    # the problem of each row of the stack; a problem leaves the stack when
    # it stops, with the iterate its own solve would stop at
    ids = np.arange(k)
    out = [None] * k
    tol_stat = tol_comp = 0.5 * tol
    gap_prev = np.full(k, np.inf)
    stall = np.zeros(k, dtype=int)
    it = 0
    while True:
        if it >= max_iter:
            stop = np.full(ids.size, "iteration_cap")
        else:
            it += 1
            r_d = np.matmul(H, v[:, :, None])[:, :, 0] - b - (AtT @ lam.T).T + mu[:, None] * cs
            r_p[...] = (At @ v.T).T
            r_p -= sig
            r_e = _dots(v, cs) - 1.0
            np.multiply(lam, sig, out=comp)
            gap = comp.mean(axis=1)
            converged = (
                (np.abs(r_d).max(axis=1) <= tol_stat)
                & (comp.max(axis=1) <= tol_comp)
                & (np.maximum(r_p.max(axis=1), -r_p.min(axis=1)) <= tol_stat)
                & (np.abs(r_e) <= 1e-11 * (1.0 + np.abs(v).max(axis=1)))
            )
            stall = np.where(gap > 0.9999 * gap_prev, stall + 1, 0)
            gap_prev = gap
            np.divide(lam, sig, out=d)
            # no normal matrix when every problem stops here anyway
            go = (~converged & (stall <= 30)).any()
            factors = _factor_stack(_normal_matrix(blocks, d, H)) if go else [None] * ids.size
            stop = np.where(converged, "converged", np.where(stall > 30, "stalled", np.where(
                [f is None for f in factors], "factorization_failed", ""
            )))
        done = stop != ""
        for j in np.flatnonzero(done):
            i = ids[j]
            lam_orig = np.maximum(lam[j], 0.0) / t
            out[i] = _package(
                problems[i], v[j], s, lam_orig, mu[j], it, warnings_[i], str(stop[j])
            )
        if done.all():
            return out
        if done.any():
            keep = ~done
            work[:, :keep.sum()] = work[:, :ids.size][:, keep]
            sig, lam, r_p, comp, d, q, rc, dsig, dlam, dsig_a = work[:, :keep.sum()]
            ids, v, mu, H, b, stall, gap_prev, r_d, r_e, gap = (
                x[keep] for x in (ids, v, mu, H, b, stall, gap_prev, r_d, r_e, gap)
            )
            factors = [f for f, kept in zip(factors, keep) if kept]

        def rhs(rc, dlam):
            # Newton right-hand side of rc; leaves rc / sig in q, dlam is scratch
            np.divide(rc, sig, out=q)
            return (AtT @ np.subtract(q, np.multiply(d, r_p, out=dlam), out=dlam).T).T - r_d

        def direction(u1, dsig, dlam):
            # the Newton step from u1 = M^-1 rhs(rc); fills dsig and dlam
            dmu = (_dots(u1, cs) + r_e) / cs_u2
            dv = u1 - dmu[:, None] * u2
            np.add((At @ dv.T).T, r_p, out=dsig)
            np.subtract(q, np.multiply(d, dsig, out=dlam), out=dlam)
            return dv, dmu

        # the factor of a finite M is finite; a non-finite right-hand side
        # makes the next iteration's M non-finite and stops the loop there
        u2 = np.array([cho_solve(f, cs, check_finite=False) for f in factors])
        cs_u2 = _dots(u2, cs)
        # predictor
        g = rhs(np.negative(comp, out=rc), dlam)
        u1 = np.array([cho_solve(f, gi, check_finite=False) for f, gi in zip(factors, g)])
        # dlam holds the predictor's dlam until the corrector overwrites it
        direction(u1, dsig_a, dlam)
        ap = _max_step(sig, dsig_a, q)[:, None]
        ad = _max_step(lam, dlam, q)[:, None]
        np.add(np.multiply(ad, dlam, out=q), lam, out=q)
        np.add(np.multiply(ap, dsig_a, out=dsig), sig, out=dsig)
        gap_aff = _dots(q, dsig) / R
        # cubed by libm's pow: NumPy's SIMD power can round the last bit
        # differently, and on some CPUs only
        ratio = np.maximum(gap_aff, 0.0) / np.maximum(gap, 1e-300)
        sigma_c = np.array([r**3 for r in ratio.tolist()])
        # corrector recentered toward sigma_c * gap
        np.subtract((sigma_c * gap)[:, None], comp, out=rc)
        rc -= np.multiply(dlam, dsig_a, out=q)
        g = rhs(rc, dlam)
        u1 = np.array([cho_solve(f, gi, check_finite=False) for f, gi in zip(factors, g)])
        dv, dmu = direction(u1, dsig, dlam)
        ap = _IPM_STEP_DAMP * _max_step(sig, dsig, q)
        ad = _IPM_STEP_DAMP * _max_step(lam, dlam, q)
        v = v + ap[:, None] * dv
        sig += np.multiply(ap[:, None], dsig, out=dsig)
        lam += np.multiply(ad[:, None], dlam, out=dlam)
        mu = mu + ad * dmu


def solve_simplex_cls(
    Z: np.ndarray,
    y: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CLSSolution:
    """Least squares over the probability simplex: :func:`solve_cls` with
    ``A_ineq = I`` and ``c_eq = 1``."""
    B = np.atleast_1d(Z).shape[-1]
    problem = CLSProblem.from_rows(Z, y, sp.eye_array(B, format="csr"), np.ones(B))
    return solve_cls(problem, tol, max_iter)


def check_kkt(problem: CLSProblem, solution: CLSSolution) -> dict:
    """Recompute all optimality residuals from problem data and multipliers.

    Stationarity is measured on mass-scaled columns (each coefficient scaled
    by its equality weight), which keeps the gradient O(1) regardless of
    draw counts.  Returns a dict with keys ``stationarity``,
    ``primal_ineq``, ``primal_eq``, ``dual``, and ``complementarity``.
    """
    alpha = np.asarray(solution.alpha, dtype=float)
    lam = np.asarray(solution.lambda_ineq, dtype=float)
    A = problem.A_ineq
    s = problem.c_eq
    # the gradient in v = alpha * c_eq
    grad = (problem.H @ alpha - problem.b) / s
    stat = grad + solution.mu_eq - (A.T @ lam) / s
    gx = A @ alpha
    return {
        "stationarity": float(np.max(np.abs(stat))),
        "primal_ineq": float(max(0.0, -gx.min())),
        "primal_eq": float(abs(problem.c_eq @ alpha - 1.0)),
        "dual": float(max(0.0, -lam.min())),
        "complementarity": float(np.max(np.abs(lam * gx))),
    }
