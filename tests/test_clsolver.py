import itertools
import re

import numpy as np
import pytest

from sparserc import clsolver
from sparserc.basis import Domain, evaluate_basis_columns
from sparserc.clsolver import (
    CLSProblem,
    InfeasibleError,
    NonConvergenceError,
    check_kkt,
    feasible_start,
    objective,
    solve_cls,
    solve_simplex_cls,
)
from sparserc.hiergrid import build_classical_sparse_grid
from sparserc.quasirand import halton_draws


def random_instance(seed, n_coef=None, n_ineq=None, n_rows=None, nonneg_rows=None):
    """A random feasible instance within the tiny-oracle size bounds.

    General (signed) constraint rows are sign-flipped so a reference point
    satisfies them, keeping the polytope nonempty.
    """
    rng = np.random.default_rng(seed)
    B = n_coef if n_coef is not None else int(rng.integers(2, 5))
    R = n_ineq if n_ineq is not None else int(rng.integers(4, 17 if B == 4 else 33))
    m = n_rows if n_rows is not None else int(rng.integers(10, 61))
    nonneg = nonneg_rows if nonneg_rows is not None else bool(seed % 2)
    Z = rng.normal(size=(m, B))
    target = rng.dirichlet(np.ones(B))
    y = Z @ target + 0.3 * rng.normal(size=m)
    c = rng.uniform(0.5, 2.0, size=B)
    if nonneg:
        A = np.abs(rng.normal(size=(R, B)))
    else:
        A = rng.normal(size=(R, B))
        anchor = target / (c @ target)
        flip = A @ anchor < 0
        A[flip] = -A[flip]
    return CLSProblem(Z=Z, y=y, A_ineq=A, c_eq=c)


def enumerate_face_optimum(problem, feas_tol=1e-9):
    """Exhaustive brute force: minimize on every face of the feasible polytope.

    The constrained optimum minimizes the objective on the affine hull of its
    active constraints, so the best feasible face minimizer over all active
    subsets of size <= B is the global optimum.
    """
    Z, y, A, c = problem.Z, problem.y, problem.A_ineq, problem.c_eq
    B, R = problem.n_coef, problem.n_ineq
    H = Z.T @ Z / problem.objective_scale
    b = Z.T @ y / problem.objective_scale
    best = np.inf
    best_x = None
    for size in range(0, min(B, R) + 1):
        for subset in itertools.combinations(range(R), size):
            rows = np.vstack([A[list(subset)], c[None, :]]) if subset else c[None, :]
            k = rows.shape[0]
            K = np.zeros((B + k, B + k))
            K[:B, :B] = H
            K[:B, B:] = rows.T
            K[B:, :B] = rows
            rhs = np.concatenate([b, np.zeros(k - 1), [1.0]])
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            x = sol[:B]
            if abs(c @ x - 1.0) > 1e-7:
                continue
            if R and (A @ x).min() < -feas_tol:
                continue
            val = objective(problem, x)
            if val < best:
                best = val
                best_x = x
    return best, best_x


def grid_search_optimum(problem, rounds=7, points=31, width=8.0):
    """Multiresolution grid search over the equality-reduced coordinates."""
    Z, y, A, c = problem.Z, problem.y, problem.A_ineq, problem.c_eq
    B = problem.n_coef
    pivot = int(np.argmax(c))
    others = [j for j in range(B) if j != pivot]
    center = np.zeros(B - 1)
    start = feasible_start(problem)
    center = start[others]
    best, best_free = np.inf, center

    def assemble(free):
        full = np.empty((free.shape[0], B))
        full[:, others] = free
        full[:, pivot] = (1.0 - free @ c[others]) / c[pivot]
        return full

    w = width
    for _ in range(rounds):
        axes = [np.linspace(center[k] - w, center[k] + w, points) for k in range(B - 1)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, B - 1)
        full = assemble(mesh)
        feas = (full @ A.T).min(axis=1) >= -1e-9 if problem.n_ineq else np.ones(len(full), bool)
        if feas.any():
            resid = y[None, :] - full[feas] @ Z.T
            vals = (resid**2).sum(axis=1) / (2.0 * problem.objective_scale)
            k = int(np.argmin(vals))
            if vals[k] < best:
                best = float(vals[k])
                best_free = mesh[feas][k]
        center = best_free
        w *= 0.25
    return best


class TestTrivialSolves:
    def test_single_root_coefficient_forced_by_equality(self):
        rng = np.random.default_rng(0)
        Z = rng.uniform(0.5, 2.0, size=(20, 1))
        y = rng.uniform(size=20)
        A = rng.uniform(0.1, 1.0, size=(8, 1))
        c = np.array([3.7])
        sol = solve_cls(CLSProblem(Z=Z, y=y, A_ineq=A, c_eq=c))
        assert sol.alpha[0] == pytest.approx(1 / 3.7, abs=1e-10)

    def test_zero_residual_recovery(self):
        rng = np.random.default_rng(1)
        B, m, R = 4, 50, 20
        Z = rng.normal(size=(m, B))
        A = np.abs(rng.normal(size=(R, B)))
        c = np.ones(B)
        alpha_true = rng.dirichlet(np.ones(B))
        y = Z @ alpha_true
        sol = solve_cls(CLSProblem(Z=Z, y=y, A_ineq=A, c_eq=c))
        np.testing.assert_allclose(sol.alpha, alpha_true, atol=1e-6)
        assert sol.ssr < 1e-12

    def test_no_inequalities(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        c = np.ones(3)
        problem = CLSProblem(Z=Z, y=y, A_ineq=np.zeros((0, 3)), c_eq=c)
        sol = solve_cls(problem)
        assert abs(sol.eq_violation) < 1e-10
        assert sol.kkt_residual < 1e-8


class TestBruteForceAgreement:
    def test_fifty_random_instances_match_enumeration_and_grid_search(self):
        for seed in range(50):
            problem = random_instance(seed)
            sol = solve_cls(problem)
            best_enum, _ = enumerate_face_optimum(problem)
            assert sol.ssr <= best_enum + 1e-7, seed
            assert sol.ssr >= best_enum - 1e-7, seed
            best_grid = grid_search_optimum(problem)
            assert abs(sol.ssr - best_grid) < 1e-5, seed

    def test_literal_fixed_step_grid_search_b3(self):
        # single B=3 instance against a flat 1e-3-step search over the
        # 2-dimensional reduced feasible set
        problem = random_instance(7, n_coef=3, n_ineq=16, n_rows=40)
        sol = solve_cls(problem)
        Z, y, A, c = problem.Z, problem.y, problem.A_ineq, problem.c_eq
        others = [j for j in range(3) if j != int(np.argmax(c))]
        pivot = int(np.argmax(c))
        lo = sol.alpha[others] - 0.5
        axes = [np.arange(lo[k], lo[k] + 1.0 + 1e-9, 1e-3) for k in range(2)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        full = np.empty((mesh.shape[0], 3))
        full[:, others] = mesh
        full[:, pivot] = (1.0 - mesh @ c[others]) / c[pivot]
        feas = (full @ A.T).min(axis=1) >= -1e-9
        resid = y[None, :] - full[feas] @ Z.T
        vals = (resid**2).sum(axis=1) / (2.0 * problem.objective_scale)
        assert sol.ssr <= vals.min() + 1e-5

    def test_kkt_certificates_on_random_instances(self):
        for seed in range(0, 50, 5):
            problem = random_instance(seed)
            sol = solve_cls(problem)
            chk = check_kkt(problem, sol)
            assert chk["stationarity"] <= 1e-8, seed
            assert chk["primal_eq"] <= 1e-10, seed
            assert chk["primal_ineq"] <= 1e-8, seed
            assert chk["dual"] == 0.0, seed
            assert chk["complementarity"] <= 1e-7, seed


class TestSolverContracts:
    def test_determinism(self):
        problem = random_instance(11)
        a = solve_cls(problem)
        b = solve_cls(problem)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert a.iterations == b.iterations

    def test_scale_invariance_of_minimizer(self):
        base = random_instance(12)
        scaled = CLSProblem(
            Z=base.Z, y=base.y, A_ineq=base.A_ineq, c_eq=base.c_eq, objective_scale=1.0
        )
        a = solve_cls(base)
        b = solve_cls(scaled)
        np.testing.assert_allclose(a.alpha, b.alpha, atol=1e-6)

    def test_warm_starts_agree(self):
        problem = random_instance(13, nonneg_rows=True)
        rng = np.random.default_rng(99)
        objs = []
        for _ in range(5):
            w = rng.dirichlet(np.ones(problem.n_coef))
            x0 = w / problem.c_eq
            x0 /= problem.c_eq @ x0
            sol = solve_cls(problem, x0=x0)
            assert sol.ssr <= objective(problem, x0) + 1e-10
            objs.append(sol.ssr)
        assert max(objs) - min(objs) < 1e-8

    def test_monotone_under_column_growth(self):
        # zero-padding the smaller solution stays feasible, so the optimum
        # cannot get worse when columns are appended
        rng = np.random.default_rng(14)
        m, B1, B2, R = 40, 3, 5, 12
        Z2 = rng.normal(size=(m, B2))
        A2 = np.abs(rng.normal(size=(R, B2)))
        c2 = rng.uniform(0.5, 1.5, size=B2)
        y = rng.normal(size=m)
        p1 = CLSProblem(Z=Z2[:, :B1], y=y, A_ineq=A2[:, :B1], c_eq=c2[:B1])
        p2 = CLSProblem(Z=Z2, y=y, A_ineq=A2, c_eq=c2)
        s1 = solve_cls(p1)
        s2 = solve_cls(p2, x0=np.concatenate([s1.alpha, np.zeros(B2 - B1)]))
        assert s2.ssr <= s1.ssr + 1e-10

    def test_infeasible_raises(self):
        Z = np.ones((5, 2))
        y = np.zeros(5)
        A = np.array([[-1.0, -1.0]])
        c = np.ones(2)
        with pytest.raises(InfeasibleError):
            solve_cls(CLSProblem(Z=Z, y=y, A_ineq=A, c_eq=c))

    def test_nonconvergence_carries_best_iterate(self):
        problem = random_instance(15)
        with pytest.raises(NonConvergenceError) as exc_info:
            solve_cls(problem, max_iter=1)
        best = exc_info.value.best
        assert best.alpha.shape == (problem.n_coef,)
        assert np.isfinite(best.ssr)

    def test_iteration_cap_named(self):
        problem = random_instance(15)
        with pytest.raises(NonConvergenceError, match=r"iteration cap \(max_iter=3\)") as exc_info:
            solve_cls(problem, max_iter=3)
        assert exc_info.value.best.iterations == 3

    def test_overflowing_normal_matrix_is_factorization_failure(self):
        # H = Z'Z / m overflows to inf; the solve must stop at once with its
        # best iterate instead of escaping a finiteness check or iterating
        # on NaN
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(10, 3)) * 1e200
        problem = CLSProblem(
            Z=Z, y=rng.normal(size=10), A_ineq=np.abs(rng.normal(size=(10, 3))),
            c_eq=np.ones(3),
        )
        with np.errstate(all="ignore"):
            with pytest.raises(NonConvergenceError, match="factorization failed") as exc_info:
                solve_cls(problem)
        assert exc_info.value.best.iterations <= 2

    def test_ridge_zero_matches_default(self):
        problem = random_instance(16)
        a = solve_cls(problem)
        b = solve_cls(problem, ridge=0.0)
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_ridge_shrinks_solution_norm(self):
        problem = random_instance(17, nonneg_rows=True)
        plain = solve_cls(problem)
        ridged = solve_cls(problem, ridge=10.0)
        s = problem.c_eq
        assert np.linalg.norm(ridged.alpha * s) <= np.linalg.norm(plain.alpha * s) + 1e-9


class TestThreadedSize:
    """An instance large enough for OpenBLAS to run its level-3 calls threaded."""

    def test_sparse_nonnegative_rows(self):
        rng = np.random.default_rng(30)
        m, B, R = 1500, 300, 3000
        Z = rng.normal(size=(m, B))
        y = Z @ rng.dirichlet(np.ones(B)) + 0.3 * rng.normal(size=m)
        A = np.abs(rng.normal(size=(R, B))) * (rng.random((R, B)) < 0.15)
        c = rng.uniform(0.5, 2.0, size=B)
        problem = CLSProblem(Z=Z, y=y, A_ineq=A, c_eq=c)
        sol = solve_cls(problem)
        chk = check_kkt(problem, sol)
        assert chk["stationarity"] <= 1e-8
        assert chk["primal_ineq"] <= 1e-8
        assert abs(c @ sol.alpha - 1.0) <= 1e-10
        np.testing.assert_array_equal(solve_cls(problem).alpha, sol.alpha)


class TestNonFiniteData:
    @pytest.mark.parametrize(
        "name, index, shown",
        [
            ("Z", (3, 1), "(3, 1)"),
            ("y", (4,), "4"),
            ("A_ineq", (6, 2), "(6, 2)"),
            ("c_eq", (1,), "1"),
        ],
    )
    def test_rejected_naming_array_and_first_index(self, name, index, shown):
        problem = random_instance(3, n_coef=3, n_ineq=8, n_rows=10)
        arrays = {
            "Z": problem.Z, "y": problem.y, "A_ineq": problem.A_ineq, "c_eq": problem.c_eq,
        }
        arrays[name][index] = np.nan
        # a later bad entry must not be the one reported
        arrays[name][(-1,) * len(index)] = np.inf
        message = rf"^{name} must be finite: entry {re.escape(shown)} is nan"
        with pytest.raises(ValueError, match=message):
            CLSProblem(**arrays)


class TestZeroConstraintRow:
    def test_vacuous_row_keeps_certificate_finite(self):
        problem = random_instance(4, n_coef=3, n_rows=20)
        A = np.vstack([np.eye(3), np.zeros((1, 3))])
        problem = CLSProblem(Z=problem.Z, y=problem.y, A_ineq=A, c_eq=problem.c_eq)
        sol = solve_cls(problem)
        assert np.all(np.isfinite(sol.lambda_ineq))
        assert sol.kkt_residual <= 1e-8
        assert check_kkt(problem, sol)["stationarity"] <= 1e-8


def hierarchical_rows(n_draws, dim, level):
    """Hat-basis rows at Halton draws: one nonzero per hierarchical subspace."""
    grid = build_classical_sparse_grid(dim, level)
    domain = Domain.cube(dim)
    draws = halton_draws(n_draws, dim, domain=domain).draws
    return evaluate_basis_columns(grid.points, domain, draws)


class TestBlockedNormalMatrix:
    """The blockwise normal matrix against the dense ``W' W + H``."""

    @staticmethod
    def check(At):
        rng = np.random.default_rng(0)
        R, B = At.shape
        G = rng.uniform(size=(B + 3, B))
        H = G.T @ G
        d = rng.uniform(0.01, 100.0, size=R)
        blocks = clsolver._row_blocks(At)
        rows = np.sort(np.concatenate([r for r, _, _ in blocks]))
        np.testing.assert_array_equal(rows, np.arange(R))
        assert all(r.size <= clsolver.ROW_BLOCK for r, _, _ in blocks)
        W = At * np.sqrt(d)[:, None]
        np.testing.assert_allclose(
            clsolver._normal_matrix(blocks, d, H), W.T @ W + H, rtol=1e-13, atol=0.0
        )

    def test_rows_not_a_multiple_of_the_block(self):
        At = hierarchical_rows(700, 2, 4)
        assert At.shape[0] % clsolver.ROW_BLOCK
        self.check(At)

    def test_single_column(self):
        self.check(np.random.default_rng(1).uniform(size=(300, 1)))

    def test_more_columns_than_the_pattern_key(self):
        At = hierarchical_rows(1000, 3, 4)
        assert At.shape[1] > 62
        self.check(At)

    def test_zero_row(self):
        At = hierarchical_rows(520, 2, 3)
        At[[0, 257, 519]] = 0.0
        self.check(At)

    def test_dense_rows(self):
        At = np.random.default_rng(2).uniform(0.1, 1.0, size=(600, 40))
        blocks = clsolver._row_blocks(At)
        assert all(cols.size == 40 for _, cols, _ in blocks)
        self.check(At)

    def test_blocks_skip_zeros_of_hierarchical_rows(self):
        At = hierarchical_rows(2000, 3, 4)
        touched = np.mean([cols.size for _, cols, _ in clsolver._row_blocks(At)])
        assert touched < 0.6 * At.shape[1]


class TestFeasibleStart:
    def test_prefers_lowest_nonnegative_column(self):
        A = np.array([[1.0, -0.5, 0.2], [0.3, 1.0, 0.1]])
        c = np.array([2.0, 1.0, 4.0])
        problem = CLSProblem(Z=np.ones((4, 3)), y=np.zeros(4), A_ineq=A, c_eq=c)
        x = feasible_start(problem)
        np.testing.assert_allclose(x, [0.5, 0.0, 0.0])

    def test_lp_fallback(self):
        # every column has a negative constraint entry, yet the polytope
        # is nonempty
        A = np.array([[1.0, -0.2], [-0.2, 1.0]])
        c = np.ones(2)
        problem = CLSProblem(Z=np.ones((4, 2)), y=np.zeros(4), A_ineq=A, c_eq=c)
        x = feasible_start(problem)
        assert (A @ x).min() >= -1e-9
        assert abs(c @ x - 1.0) < 1e-9


def enumerate_simplex_optimum(Z, y):
    """Try every support set of the simplex-constrained least squares."""
    m, B = Z.shape
    best = np.inf
    for size in range(1, B + 1):
        for subset in itertools.combinations(range(B), size):
            F = list(subset)
            k = len(F)
            H = Z[:, F].T @ Z[:, F] / m
            b = Z[:, F].T @ y / m
            K = np.zeros((k + 1, k + 1))
            K[:k, :k] = H
            K[:k, k] = 1.0
            K[k, :k] = 1.0
            rhs = np.concatenate([b, [1.0]])
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            w = sol[:k]
            if w.min() < -1e-9:
                continue
            r = y - Z[:, F] @ w
            best = min(best, float(r @ r) / (2.0 * m))
    return best


class TestSimplexSolver:
    def test_single_column(self):
        rng = np.random.default_rng(20)
        Z = rng.normal(size=(10, 1))
        sol = solve_simplex_cls(Z, rng.normal(size=10))
        assert sol.alpha[0] == pytest.approx(1.0, abs=1e-12)

    def test_identical_columns_deterministic_lowest_index(self):
        rng = np.random.default_rng(21)
        col = rng.normal(size=30)
        Z = np.column_stack([col, col, rng.normal(size=30)])
        y = 0.8 * col + 0.1 * rng.normal(size=30)
        a = solve_simplex_cls(Z, y)
        b = solve_simplex_cls(Z, y)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert a.alpha[1] == 0.0  # mass lands on the lower twin index
        assert a.ssr <= enumerate_simplex_optimum(Z, y) + 1e-8

    def test_matches_enumeration_on_random_instances(self):
        for seed in range(12):
            rng = np.random.default_rng(200 + seed)
            B = int(rng.integers(2, 7))
            m = int(rng.integers(15, 50))
            Z = rng.normal(size=(m, B))
            w_true = rng.dirichlet(np.ones(B))
            y = Z @ w_true + 0.2 * rng.normal(size=m)
            sol = solve_simplex_cls(Z, y)
            assert sol.alpha.min() >= -1e-12
            assert abs(sol.alpha.sum() - 1.0) < 1e-10
            assert sol.ssr <= enumerate_simplex_optimum(Z, y) + 1e-7, seed

    def test_kkt_certificate(self):
        rng = np.random.default_rng(22)
        Z = rng.normal(size=(40, 5))
        y = Z @ rng.dirichlet(np.ones(5)) + 0.1 * rng.normal(size=40)
        sol = solve_simplex_cls(Z, y)
        problem = CLSProblem(Z=Z, y=y, A_ineq=np.eye(5), c_eq=np.ones(5))
        chk = check_kkt(problem, sol)
        assert chk["stationarity"] <= 1e-8
        assert chk["complementarity"] <= 1e-8
        assert chk["dual"] == 0.0
