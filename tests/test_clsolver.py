import itertools
import re
import tracemalloc

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from sparserc import clsolver
from sparserc.basis import Domain, evaluate_basis_columns
from sparserc.clsolver import (
    CLSProblem,
    NonConvergenceError,
    check_kkt,
    objective,
    solve_cls,
    solve_cls_stack,
    solve_simplex_cls,
)
from sparserc.hiergrid import build_classical_sparse_grid
from sparserc.quasirand import halton_draws


def random_rows(seed, n_coef=None, n_ineq=None, n_rows=None):
    """The rows ``Z``, outcomes ``y``, constraints and masses of a random
    instance within the tiny-oracle size bounds.

    Constraint rows are nonnegative and masses positive, as for hat-basis
    values, so uniform mass is feasible.
    """
    rng = np.random.default_rng(seed)
    B = n_coef if n_coef is not None else int(rng.integers(2, 5))
    R = n_ineq if n_ineq is not None else int(rng.integers(4, 17 if B == 4 else 33))
    m = n_rows if n_rows is not None else int(rng.integers(10, 61))
    Z = rng.normal(size=(m, B))
    target = rng.dirichlet(np.ones(B))
    y = Z @ target + 0.3 * rng.normal(size=m)
    c = rng.uniform(0.5, 2.0, size=B)
    A = np.abs(rng.normal(size=(R, B)))
    return Z, y, A, c


def random_instance(seed, n_coef=None, n_ineq=None, n_rows=None):
    """The problem of :func:`random_rows`."""
    return CLSProblem.from_rows(*random_rows(seed, n_coef, n_ineq, n_rows))


def enumerate_face_optimum(problem, feas_tol=1e-9):
    """Exhaustive brute force: minimize on every face of the feasible polytope.

    The constrained optimum minimizes the objective on the affine hull of its
    active constraints, so the best feasible face minimizer over all active
    subsets of size <= B is the global optimum.
    """
    H, b, A, c = problem.H, problem.b, problem.A_ineq.toarray(), problem.c_eq
    B, R = problem.n_coef, problem.n_ineq
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
            if (A @ x).min() < -feas_tol:
                continue
            val = objective(problem, x)
            if val < best:
                best = val
                best_x = x
    return best, best_x


def grid_search_optimum(Z, y, A, c, rounds=7, points=31, width=8.0):
    """Multiresolution grid search over the equality-reduced coordinates."""
    B = Z.shape[1]
    pivot = int(np.argmax(c))
    others = [j for j in range(B) if j != pivot]
    # centred on the one-column vertex e_0 / c_0, which is feasible
    start = np.zeros(B)
    start[0] = 1.0 / c[0]
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
        feas = (full @ A.T).min(axis=1) >= -1e-9
        if feas.any():
            resid = y[None, :] - full[feas] @ Z.T
            vals = (resid**2).sum(axis=1) / (2.0 * Z.shape[0])
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
        sol = solve_cls(CLSProblem.from_rows(Z, y, A, c))
        assert sol.alpha[0] == pytest.approx(1 / 3.7, abs=1e-10)

    def test_zero_residual_recovery(self):
        rng = np.random.default_rng(1)
        B, m, R = 4, 50, 20
        Z = rng.normal(size=(m, B))
        A = np.abs(rng.normal(size=(R, B)))
        c = np.ones(B)
        alpha_true = rng.dirichlet(np.ones(B))
        y = Z @ alpha_true
        sol = solve_cls(CLSProblem.from_rows(Z, y, A, c))
        np.testing.assert_allclose(sol.alpha, alpha_true, atol=1e-6)
        assert 0.0 <= sol.ssr < 1e-12
        assert sol.ssr_raw >= 0.0
        # the Gram form of the residual sum rounds below 0 on about half of
        # these exact fits at the true weights
        for seed in range(20):
            Z = np.random.default_rng(seed).normal(size=(m, B))
            assert objective(CLSProblem.from_rows(Z, Z @ alpha_true, A, c), alpha_true) >= 0.0

    def test_ssr_raw_is_the_residual_sum_at_d6_size(self):
        # B and the rows of a D=6 level-4 fit, where the Gram form's residual
        # sum is a small difference of large terms
        rng = np.random.default_rng(3)
        m, B = 6000, 545
        c = rng.uniform(0.001, 0.01, size=B)
        Z = rng.uniform(size=(m, B)) * c
        y = Z @ (rng.dirichlet(np.ones(B)) / c) + 0.1 * rng.normal(size=m)
        sol = solve_cls(CLSProblem.from_rows(Z, y, sp.eye_array(B, format="csr"), c))
        resid = y - Z @ sol.alpha
        assert sol.ssr_raw == pytest.approx(float(resid @ resid), rel=1e-10)

    def test_no_inequalities(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        with pytest.raises(ValueError, match="A_ineq"):
            CLSProblem.from_rows(Z, y, np.zeros((0, 3)), np.ones(3))


class TestBruteForceAgreement:
    def test_fifty_random_instances_match_enumeration_and_grid_search(self):
        for seed in range(50):
            rows = random_rows(seed)
            problem = CLSProblem.from_rows(*rows)
            sol = solve_cls(problem)
            best_enum, _ = enumerate_face_optimum(problem)
            assert sol.ssr <= best_enum + 1e-7, seed
            assert sol.ssr >= best_enum - 1e-7, seed
            best_grid = grid_search_optimum(*rows)
            assert abs(sol.ssr - best_grid) < 1e-5, seed

    def test_literal_fixed_step_grid_search_b3(self):
        # single B=3 instance against a flat 1e-3-step search over the
        # 2-dimensional reduced feasible set
        Z, y, A, c = random_rows(7, n_coef=3, n_ineq=16, n_rows=40)
        sol = solve_cls(CLSProblem.from_rows(Z, y, A, c))
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
        vals = (resid**2).sum(axis=1) / (2.0 * Z.shape[0])
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

    def test_warm_starts_agree(self):
        problem = random_instance(13)
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
        p1 = CLSProblem.from_rows(Z2[:, :B1], y, A2[:, :B1], c2[:B1])
        p2 = CLSProblem.from_rows(Z2, y, A2, c2)
        s1 = solve_cls(p1)
        s2 = solve_cls(p2, x0=np.concatenate([s1.alpha, np.zeros(B2 - B1)]))
        assert s2.ssr <= s1.ssr + 1e-10

    @pytest.mark.parametrize(
        "name, index, value, message",
        [
            ("A_ineq", (3, 1), -0.2, "A_ineq must be >= 0: entry (3, 1) is -0.2"),
            ("c_eq", (1,), 0.0, "c_eq must be > 0: entry 1 is 0.0"),
        ],
        ids=["negative-constraint-entry", "zero-mass"],
    )
    def test_outside_problem_class_rejected(self, name, index, value, message):
        arrays = dict(zip(("Z", "y", "A_ineq", "c_eq"), random_rows(3, 3, 8, 10)))
        arrays[name][index] = value
        # a later bad entry must not be the one reported
        arrays[name][(-1,) * len(index)] = -1.0
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            CLSProblem.from_rows(**arrays)

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
        # H is finite but its mass-scaled normal matrix overflows to inf; the
        # solve must stop at once with its best iterate instead of escaping a
        # finiteness check or iterating on NaN
        with np.errstate(all="ignore"):
            with pytest.raises(NonConvergenceError, match="factorization failed") as exc_info:
                solve_cls(overflowing_instance())
        assert exc_info.value.best.iterations <= 2


class TestThreadedSize:
    """An instance large enough for OpenBLAS to run its level-3 calls threaded."""

    def test_sparse_nonnegative_rows(self):
        rng = np.random.default_rng(30)
        m, B, R = 1500, 300, 3000
        Z = rng.normal(size=(m, B))
        y = Z @ rng.dirichlet(np.ones(B)) + 0.3 * rng.normal(size=m)
        A = np.abs(rng.normal(size=(R, B))) * (rng.random((R, B)) < 0.15)
        c = rng.uniform(0.5, 2.0, size=B)
        problem = CLSProblem.from_rows(Z, y, A, c)
        sol = solve_cls(problem)
        chk = check_kkt(problem, sol)
        assert chk["stationarity"] <= 1e-8
        assert chk["primal_ineq"] <= 1e-8
        assert abs(c @ sol.alpha - 1.0) <= 1e-10
        np.testing.assert_array_equal(solve_cls(problem).alpha, sol.alpha)


class TestNoCopyOfZ:
    """A problem's Gram form is taken from ``Z`` in place, and a solve and
    the KKT check read only the Gram form."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_solve_and_check_kkt_allocate_under_a_quarter_of_z(self):
        rng = np.random.default_rng(31)
        m, B = 40_000, 20
        Z = rng.uniform(size=(m, B))
        y = Z @ rng.dirichlet(np.ones(B)) + 0.1 * rng.normal(size=m)
        c = rng.uniform(0.5, 2.0, size=B)
        problem, peak = self.traced_peak(
            lambda: CLSProblem.from_rows(Z, y, sp.eye_array(B, format="csr"), c)
        )
        assert peak < Z.nbytes / 4
        # with B constraint rows, every other array of the solve is small
        sol, peak = self.traced_peak(lambda: solve_cls(problem))
        assert peak < Z.nbytes / 4
        chk, peak = self.traced_peak(lambda: check_kkt(problem, sol))
        assert peak < Z.nbytes / 4
        assert chk["stationarity"] == sol.kkt_residual <= 1e-8


class TestSparseConstraints:
    """An array ``A_ineq`` is the same problem as its CSR matrix, which the
    problem holds."""

    @pytest.mark.parametrize("seed", [3, 11, 17])
    def test_dense_and_csr_give_the_same_solution_bit_for_bit(self, seed):
        problem = random_instance(seed)
        A = problem.A_ineq.toarray()
        A *= np.random.default_rng(seed).random(A.shape) < 0.6
        dense = dataclasses.replace(problem, A_ineq=A)
        assert isinstance(dense.A_ineq, sp.csr_array)
        sparse = dataclasses.replace(problem, A_ineq=sp.csr_array(A))
        a, b = solve_cls(dense), solve_cls(sparse)
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name
        assert check_kkt(dense, a) == check_kkt(sparse, b)

    @pytest.mark.parametrize("value, rule", [(-0.2, "be >= 0"), (np.nan, "be finite"),
                                             (np.inf, "be finite")])
    def test_bad_stored_entry_named_by_row_and_column(self, value, rule):
        problem = random_instance(3, n_coef=3, n_ineq=8, n_rows=10)
        A = problem.A_ineq.toarray()
        A[:3] = 0.0
        A[3, 1] = value
        # a later bad entry must not be the one reported
        A[-1, -1] = -1.0
        with pytest.raises(ValueError, match=rf"^A_ineq must {rule}: entry \(3, 1\) is "):
            dataclasses.replace(problem, A_ineq=sp.csr_array(A))

    def test_stacked_problems_must_share_sparse_constraints(self):
        problem = random_instance(3, n_coef=3, n_ineq=8, n_rows=10)
        A = sp.csr_array(problem.A_ineq)
        other = problem.A_ineq.toarray()
        other[2, 2] += 1.0
        problems = [dataclasses.replace(problem, A_ineq=a)
                    for a in (A, problem.A_ineq.toarray(), sp.csr_array(other))]
        # the same matrix, dense or sparse, is shared
        assert len(solve_cls_stack(problems[:2])) == 2
        with pytest.raises(ValueError, match="must share A_ineq"):
            solve_cls_stack([problems[0], problems[2]])


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
        arrays = dict(zip(("Z", "y", "A_ineq", "c_eq"), random_rows(3, 3, 8, 10)))
        arrays[name][index] = np.nan
        # a later bad entry must not be the one reported
        arrays[name][(-1,) * len(index)] = np.inf
        message = rf"^{name} must be finite: entry {re.escape(shown)} is nan"
        with pytest.raises(ValueError, match=message):
            CLSProblem.from_rows(**arrays)

    def test_gram_that_overflows_is_rejected(self):
        Z, y, A, c = random_rows(3, 3, 8, 10)
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"^H must be finite: entry \(0, 0\) is inf$"
        ):
            CLSProblem.from_rows(Z * 1e200, y, A, c)


class TestZeroConstraintRow:
    def test_vacuous_row_keeps_certificate_finite(self):
        problem = random_instance(4, n_coef=3, n_rows=20)
        A = np.vstack([np.eye(3), np.zeros((1, 3))])
        problem = dataclasses.replace(problem, A_ineq=A)
        sol = solve_cls(problem)
        assert np.all(np.isfinite(sol.lambda_ineq))
        assert sol.kkt_residual <= 1e-8
        assert check_kkt(problem, sol)["stationarity"] <= 1e-8


def hierarchical_rows(n_draws, dim, level):
    """Hat-basis rows at Halton draws, dense: one nonzero per hierarchical subspace."""
    grid = build_classical_sparse_grid(dim, level)
    domain = Domain.cube(dim)
    draws = halton_draws(n_draws, dim, domain=domain)
    return evaluate_basis_columns(grid.points, domain, draws).toarray()


def first_difference(a, b):
    """First of the leading 62 columns where two boolean rows differ (62 if none)."""
    diff = np.flatnonzero(a[:62] != b[:62])
    return diff[0] if diff.size else 62


def order_and_bounds(spans):
    """The row order of a list of block spans, and the block bounds in it."""
    order = np.concatenate([rows for rows, _ in spans])
    return order, np.cumsum([0] + [rows.size for rows, _ in spans])


class TestPatternBlocks:
    """Rows in zero-pattern order, cut at the coarsest pattern change."""

    def test_no_rows_no_blocks(self):
        assert clsolver.pattern_blocks(np.zeros((0, 5), dtype=bool)) == []

    @pytest.mark.parametrize(
        "dim, level, n_draws", [(1, 2, 700), (2, 4, 700), (3, 4, 1000), (6, 4, 3000)]
    )
    def test_cuts_at_the_coarsest_change_in_range(self, dim, level, n_draws):
        nonzero = hierarchical_rows(n_draws, dim, level) != 0.0
        spans = clsolver.pattern_blocks(nonzero)
        order, bounds = order_and_bounds(spans)
        for rows, cols in spans:
            np.testing.assert_array_equal(cols, np.flatnonzero(nonzero[rows].any(axis=0)))
        np.testing.assert_array_equal(np.sort(order), np.arange(n_draws))
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n_draws
        assert sizes.max() <= clsolver.ROW_BLOCK
        assert sizes[:-1].min() >= clsolver.ROW_BLOCK // 2
        rows = nonzero[order]
        for start, stop in zip(bounds[:-2], bounds[1:-1]):
            # every allowed end of the block, and how early its rows differ
            ends = range(start + clsolver.ROW_BLOCK // 2, start + clsolver.ROW_BLOCK + 1)
            first = [first_difference(rows[e - 1], rows[e]) for e in ends]
            assert first_difference(rows[stop - 1], rows[stop]) == min(first)
            assert stop == max(e for e, f in zip(ends, first) if f == min(first))

    def test_fewer_columns_than_fixed_cuts(self):
        nonzero = hierarchical_rows(12_000, 6, 4) != 0.0
        order, bounds = order_and_bounds(clsolver.pattern_blocks(nonzero))

        def touched(cuts):
            return sum(
                (b - a) * nonzero[order[a:b]].any(axis=0).sum() for a, b in zip(cuts[:-1], cuts[1:])
            )

        fixed = np.append(np.arange(0, 12_000, clsolver.ROW_BLOCK), 12_000)
        assert touched(bounds) < 0.7 * touched(fixed)


class TestBlockedNormalMatrix:
    """The blockwise normal matrix against the dense ``W' W + H``."""

    @staticmethod
    def check(At):
        rng = np.random.default_rng(0)
        R, B = At.shape
        G = rng.uniform(size=(B + 3, B))
        H = G.T @ G
        d = rng.uniform(0.01, 100.0, size=R)
        blocks = clsolver._row_blocks(clsolver.as_csr(At))
        rows = np.sort(np.concatenate([r for r, *_ in blocks]))
        np.testing.assert_array_equal(rows, np.arange(R))
        assert all(r.size <= clsolver.ROW_BLOCK for r, *_ in blocks)
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
        blocks = clsolver._row_blocks(clsolver.as_csr(At))
        assert all(cols.size == 40 for _, cols, *_ in blocks)
        self.check(At)

    def test_blocks_skip_zeros_of_hierarchical_rows(self):
        At = hierarchical_rows(2000, 3, 4)
        touched = np.mean([cols.size for _, cols, *_ in clsolver._row_blocks(clsolver.as_csr(At))])
        assert touched < 0.6 * At.shape[1]


def overflowing(problem):
    """``problem`` with ``H`` scaled to half the largest double: finite, but
    with masses below one its mass-scaled ``H / c_eq / c_eq'``, and so the
    normal matrix, overflow to inf and never factor."""
    assert problem.c_eq.max() < 1.0
    return dataclasses.replace(
        problem, H=problem.H / np.abs(problem.H).max() * (0.5 * np.finfo(float).max)
    )


def overflowing_instance():
    rng = np.random.default_rng(0)
    return overflowing(CLSProblem.from_rows(
        rng.normal(size=(10, 3)), rng.normal(size=10), np.abs(rng.normal(size=(10, 3))),
        np.full(3, 0.5),
    ))


class TestStopReason:
    def test_converged(self):
        Z, y, A, c = random_rows(15)
        assert solve_cls(CLSProblem.from_rows(Z, y, A, c)).stop_reason == "converged"
        assert solve_simplex_cls(Z, y).stop_reason == "converged"

    def test_factorization_failed(self):
        with np.errstate(all="ignore"):
            with pytest.raises(NonConvergenceError) as exc_info:
                solve_cls(overflowing_instance())
            (sol,) = solve_cls_stack([overflowing_instance()])
        assert exc_info.value.best.stop_reason == "factorization_failed"
        assert sol.stop_reason == "factorization_failed"

    def test_iteration_cap(self):
        Z, y, A, c = random_rows(15)
        problem = CLSProblem.from_rows(Z, y, A, c)
        with pytest.raises(NonConvergenceError) as exc_info:
            solve_cls(problem, max_iter=3)
        assert exc_info.value.best.stop_reason == "iteration_cap"
        (sol,) = solve_cls_stack([problem], max_iter=3)
        assert (sol.stop_reason, sol.iterations) == ("iteration_cap", 3)
        with pytest.raises(NonConvergenceError) as exc_info:
            solve_simplex_cls(Z, y, max_iter=1)
        assert exc_info.value.best.stop_reason == "iteration_cap"


def shared_constraint_instances(n, seed=40):
    """``n`` problems on one hat-basis constraint matrix and mass vector,
    like the fold refits of one refinement step."""
    rng = np.random.default_rng(seed)
    A = hierarchical_rows(300, 2, 3)
    c = A.mean(axis=0)
    problems = []
    for i in range(n):
        m = 40 + 7 * i
        Z = rng.uniform(size=(m, A.shape[1])) * c
        y = Z @ (rng.dirichlet(np.ones(A.shape[1])) / c) + 0.05 * rng.normal(size=m)
        problems.append(CLSProblem.from_rows(Z, y, A, c))
    return problems


class TestSolveStack:
    def test_stack_of_one_is_solve_cls(self):
        (problem,) = shared_constraint_instances(1)
        (stacked,) = solve_cls_stack([problem])
        solo = solve_cls(problem)
        np.testing.assert_array_equal(stacked.alpha, solo.alpha)
        np.testing.assert_array_equal(stacked.lambda_ineq, solo.lambda_ineq)
        assert stacked.iterations == solo.iterations

    def check_others(self, problems, sols, x0=None):
        x0 = x0 or [None] * len(problems)
        for problem, sol, a0 in zip(problems, sols, x0):
            solo = solve_cls(problem, x0=a0)
            assert sol.stop_reason == "converged"
            assert sol.iterations == solo.iterations
            np.testing.assert_allclose(sol.alpha, solo.alpha, rtol=0.0, atol=1e-12)
            assert check_kkt(problem, sol)["stationarity"] <= 1e-8

    def test_failed_factorization_leaves_the_others(self):
        problems = shared_constraint_instances(3)
        problems[1] = overflowing(problems[1])
        with np.errstate(all="ignore"):
            sols = solve_cls_stack(problems)
        assert sols[1].stop_reason == "factorization_failed"
        assert sols[1].iterations == 1
        self.check_others(problems[::2], sols[::2])

    def test_iteration_cap_leaves_the_others(self):
        problems = shared_constraint_instances(3)
        counts = [solve_cls(p).iterations for p in problems]
        slowest = int(np.argmax(counts))
        cap = max(counts) - 1
        assert sorted(counts)[-2] <= cap, counts
        sols = solve_cls_stack(problems, max_iter=cap)
        assert (sols[slowest].stop_reason, sols[slowest].iterations) == ("iteration_cap", cap)
        others = [i for i in range(3) if i != slowest]
        self.check_others([problems[i] for i in others], [sols[i] for i in others])

    def test_mixed_cold_and_warm_starts(self):
        problems = shared_constraint_instances(4)
        warm = solve_cls(problems[2]).alpha
        B = problems[1].n_coef
        # a zero start has no mass to rescale to one
        x0 = [None, np.full(B, np.nan), warm, np.zeros(B)]
        sols = solve_cls_stack(problems, x0=x0)
        assert sols[1].warnings == sols[3].warnings == ["malformed warm start ignored"]
        assert sols[2].iterations < sols[0].iterations
        self.check_others(problems, sols, x0)

    @pytest.mark.parametrize("name", ["A_ineq", "c_eq"])
    def test_problems_must_share_constraints(self, name):
        first, second = shared_constraint_instances(2)
        other = dataclasses.replace(second, **{name: getattr(second, name) * 2.0})
        with pytest.raises(ValueError, match=name):
            solve_cls_stack([first, other])


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

    @pytest.mark.parametrize("Z", [np.ones(3), 1.0], ids=["1-d", "scalar"])
    def test_design_that_is_not_a_matrix_is_named(self, Z):
        with pytest.raises(ValueError, match=r"^Z must be \(m, B\)"):
            solve_simplex_cls(Z, np.ones(3))

    def test_identical_columns_deterministic(self):
        rng = np.random.default_rng(21)
        col = rng.normal(size=30)
        Z = np.column_stack([col, col, rng.normal(size=30)])
        y = 0.8 * col + 0.1 * rng.normal(size=30)
        a = solve_simplex_cls(Z, y)
        b = solve_simplex_cls(Z, y)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert a.ssr <= enumerate_simplex_optimum(Z, y) + 1e-8

    @pytest.mark.parametrize(
        "solve",
        [
            solve_simplex_cls,
            lambda Z, y: solve_cls(CLSProblem.from_rows(Z, y, np.eye(2), np.ones(2))),
        ],
        ids=["solve_simplex_cls", "solve_cls"],
    )
    def test_two_weights_converge(self, solve):
        # from the one-column vertex (1, 0) the interior point stalls at the
        # iteration cap on this instance; the uniform-mass start reaches the
        # optimum in a few steps
        H = np.array([[0.0963567, 0.01030278], [0.01030278, 0.1244384]])
        b = np.array([0.05103921, 0.06901823])
        L = np.linalg.cholesky(H)
        # two rows with Z'Z / 2 = H and Z'y / 2 = b
        Z = np.sqrt(2.0) * L.T
        y = np.sqrt(2.0) * np.linalg.solve(L, b)
        sol = solve(Z, y)
        assert sol.stop_reason == "converged"
        assert sol.iterations <= 10
        np.testing.assert_allclose(sol.alpha, [0.4803278, 0.5196722], atol=1e-6)
        assert sol.ssr <= enumerate_simplex_optimum(Z, y) + 1e-8

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
        problem = CLSProblem.from_rows(Z, y, np.eye(5), np.ones(5))
        chk = check_kkt(problem, sol)
        assert chk["stationarity"] <= 1e-8
        assert chk["complementarity"] <= 1e-8
        assert chk["dual"] == 0.0
