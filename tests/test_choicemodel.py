import math

import numpy as np
import pytest

from sparserc.basis import BasisSet, Domain
from sparserc.choicemodel import (
    KERNEL_TILE_BYTES,
    ChoiceDataset,
    DeadColumnError,
    build_design_matrix,
    choice_probabilities,
    incremental_columns,
    logit_kernel,
    read_dataset_csv,
    write_dataset_csv,
)
from sparserc.clsolver import CLSProblem, solve_cls
from sparserc.hiergrid import GridPoint, SparseGrid, build_classical_sparse_grid, refine
from sparserc.quasirand import DrawSet, halton_draws


class TestLogitKernel:
    def test_symmetric_utilities(self):
        x = np.zeros((5, 3))
        g = logit_kernel(x, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(g, 1 / 6)

    def test_saturation(self):
        x = np.array([[50.0], [0.0], [0.0]])
        g = logit_kernel(x, np.array([1.0]))
        assert g[0] == pytest.approx(1.0, abs=1e-12)
        assert g[1] == pytest.approx(0.0, abs=1e-12)

    def test_two_alternative_arithmetic(self):
        x = np.array([[1.0], [0.0]])
        g = logit_kernel(x, np.array([1.0]))
        e = math.exp(1.0)
        np.testing.assert_allclose(g, [e / (2 + e), 1 / (2 + e)], atol=1e-15)
        assert g[0] == pytest.approx(0.5761, abs=1e-4)
        assert g[1] == pytest.approx(0.2119, abs=1e-4)

    def test_overflow_safe(self):
        x = np.array([[1.0], [2.0]])
        g = logit_kernel(x, np.array([500.0]))
        assert np.all(np.isfinite(g))
        assert g[1] == pytest.approx(1.0, abs=1e-12)

    def test_outside_option_completes_total_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=(5, 3))
            beta = rng.normal(size=3) * 5
            g = logit_kernel(x, beta)
            outside = 1.0 / (1.0 + np.exp(x @ beta).sum())
            assert abs(g.sum() + outside - 1.0) < 1e-12


class TestChoiceProbabilities:
    def test_matches_single_point_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3, 2))
        betas = rng.normal(size=(6, 2))
        probs = choice_probabilities(x, betas)
        for n in range(4):
            for m in range(6):
                np.testing.assert_allclose(
                    probs[n, :, m], logit_kernel(x[n], betas[m]), atol=1e-14
                )

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 5, 2)) * 8
        betas = rng.uniform(-4, 4, size=(50, 2))
        probs = choice_probabilities(x, betas)
        assert probs.min() >= 0.0
        assert probs.max() <= 1.0
        assert (probs.sum(axis=1) < 1.0 + 1e-12).all()

    def test_overflow_safe(self):
        x = np.array([[[1.0], [2.0]], [[-1.0], [0.5]]])
        betas = np.array([[250.0], [-500.0], [500.0]])
        probs = choice_probabilities(x, betas)
        assert np.all(np.isfinite(probs))
        assert probs.min() >= 0.0
        assert probs.max() <= 1.0
        assert probs[0, 1, 2] == pytest.approx(1.0, abs=1e-12)
        assert probs[1, 0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_inputs_left_untouched(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3, 2))
        betas = rng.normal(size=(5, 2))
        x_before, betas_before = x.copy(), betas.copy()
        choice_probabilities(x, betas)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(betas, betas_before)


class TestKernelTiles:
    """``choice_probabilities`` fills its output in tiles of whole units."""

    def test_unit_independent_of_other_units(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(600, 3, 2))
        betas = rng.normal(size=(100, 2)) * 3
        units_per_tile = KERNEL_TILE_BYTES // (8 * 3 * 100)
        assert 1 < units_per_tile < 600
        k = units_per_tile + 64
        full = choice_probabilities(x, betas)
        np.testing.assert_array_equal(choice_probabilities(x[:k], betas), full[:k])
        # every unit moves to another position in its tile
        np.testing.assert_array_equal(choice_probabilities(x[1:], betas), full[1:])
        np.testing.assert_allclose(full[k - 1, :, 7], logit_kernel(x[k - 1], betas[7]), atol=1e-14)

    def test_single_unit_and_single_draw(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 4, 3))
        beta = rng.normal(size=(1, 3))
        probs = choice_probabilities(x, beta)
        assert probs.shape == (1, 4, 1)
        np.testing.assert_allclose(probs[0, :, 0], logit_kernel(x[0], beta[0]), atol=1e-15)

    def test_unit_larger_than_a_tile(self):
        rng = np.random.default_rng(6)
        j = 5
        m = KERNEL_TILE_BYTES // (8 * j) + 1
        x = rng.normal(size=(3, j, 2))
        betas = rng.normal(size=(m, 2))
        probs = choice_probabilities(x, betas)
        for n in range(3):
            np.testing.assert_array_equal(choice_probabilities(x[n:n + 1], betas)[0], probs[n])
        for col in (0, m // 2, m - 1):
            np.testing.assert_allclose(probs[2, :, col], logit_kernel(x[2], betas[col]), atol=1e-14)

    def test_large_utilities_finite_in_every_tile(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, size=(400, 5, 2))
        betas = rng.uniform(-250.0, 250.0, size=(300, 2))
        assert np.abs(x @ betas.T).max() > 400.0
        assert 8 * 5 * 300 * 400 > 2 * KERNEL_TILE_BYTES
        probs = choice_probabilities(x, betas)
        assert np.all(np.isfinite(probs))
        assert probs.min() >= 0.0
        assert (probs.sum(axis=1) <= 1.0 + 1e-12).all()


class TestChoiceDataset:
    def test_row_sum_validation(self):
        x = np.zeros((2, 3, 1))
        y = np.zeros((2, 3))
        y[0, 0] = 0.5
        with pytest.raises(ValueError, match="sum to 0 or 1"):
            ChoiceDataset(x, y)

    @pytest.mark.parametrize(
        "row", [[0.3, 0.7], [1.0, 1.0], [2.0, -1.0], [np.nan, 0.0]]
    )
    def test_non_one_hot_row_names_unit(self, row):
        y = np.zeros((3, 2))
        y[1] = row
        with pytest.raises(ValueError, match="unit 1 has"):
            ChoiceDataset(np.zeros((3, 2, 1)), y)

    def test_nonfinite_covariate_names_unit_and_alternative(self):
        x = np.zeros((3, 2, 2))
        x[2, 1, 0] = np.nan
        x[1, 0, 1] = np.inf
        with pytest.raises(ValueError, match="x must be finite: unit 1, alternative 0"):
            ChoiceDataset(x, np.zeros((3, 2)))

    def test_outside_option_rows_allowed(self):
        x = np.zeros((2, 3, 1))
        y = np.zeros((2, 3))
        data = ChoiceDataset(x, y)
        assert data.n_rows == 6

    def test_subset_keeps_unit_ids(self):
        x = np.arange(24, dtype=float).reshape(4, 3, 2)
        y = np.zeros((4, 3))
        y[:, 0] = 1.0
        data = ChoiceDataset(x, y, unit_ids=np.array([10, 11, 12, 13]))
        sub = data.subset([2, 0])
        np.testing.assert_array_equal(sub.unit_ids, [12, 10])
        np.testing.assert_array_equal(sub.x[0], x[2])

    def test_row_slice(self):
        x = np.zeros((3, 2, 1))
        y = np.zeros((3, 2))
        data = ChoiceDataset(x, y)
        np.testing.assert_array_equal(data.row_slice([1, 2]), [2, 3, 4, 5])


def _tiny_data(n=3, j=2, d=1, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, j, d))
    y = np.zeros((n, j))
    y[np.arange(n), rng.integers(0, j, size=n)] = 1.0
    return ChoiceDataset(x, y)


def _root_basis(dim=1):
    grid = SparseGrid(dim, [GridPoint((1,) * dim, (1,) * dim)], max_level=5)
    return BasisSet(grid, Domain.cube(dim))


class TestBuildDesignMatrix:
    def test_root_column_positive(self):
        data = _tiny_data()
        draws = halton_draws(64, 1, domain=Domain.cube(1))
        design = build_design_matrix(data, draws, _root_basis())
        assert design.Z.shape == (6, 1)
        assert (design.Z > 0).all()
        assert design.column_mass[0] > 0

    def test_constant_kernel_factors_out(self):
        data = _tiny_data()
        draws = halton_draws(32, 1, domain=Domain.cube(1))
        basis = BasisSet(build_classical_sparse_grid(1, 2), Domain.cube(1))

        def ones_kernel(x, betas):
            return np.ones((x.shape[0], x.shape[1], betas.shape[0]))

        design = build_design_matrix(data, draws, basis, kernel=ones_kernel)
        for row in design.Z:
            np.testing.assert_allclose(row, design.column_mass, atol=1e-12)

    def test_two_draw_hand_sum(self):
        # root hat at unit coords 0.25, 0.75 evaluates to 0.5; with kernel
        # values 0.3 and 0.6 the single entry is 0.3*0.5 + 0.6*0.5 = 0.45
        data = ChoiceDataset(np.zeros((1, 1, 1)), np.zeros((1, 1)))
        dom = Domain.cube(1, 0.0, 1.0)
        draws = DrawSet(draws=np.array([[0.25], [0.75]]), domain=dom, burn_in=0)
        basis = BasisSet(SparseGrid(1, [GridPoint((1,), (1,))]), dom)

        def stub_kernel(x, betas):
            vals = {0.25: 0.3, 0.75: 0.6}
            return np.array([[[vals[b[0]] for b in betas]]])

        design = build_design_matrix(data, draws, basis, kernel=stub_kernel)
        assert design.Z[0, 0] == pytest.approx(0.45, abs=1e-15)
        assert design.column_mass[0] == pytest.approx(1.0, abs=1e-15)

    def test_dead_column_error_names_point(self):
        data = _tiny_data()
        dom = Domain.cube(1, 0.0, 1.0)
        # all draws in the left half: the (2, 3) basis function sees none
        draws = DrawSet(draws=np.linspace(0.05, 0.45, 10)[:, None], domain=dom, burn_in=0)
        basis = BasisSet(build_classical_sparse_grid(1, 2), dom)
        with pytest.raises(DeadColumnError, match=r"levels=\(2,\), indices=\(3,\)"):
            build_design_matrix(data, draws, basis)

    def test_entries_bounded_by_column_mass(self):
        data = _tiny_data(n=20, j=3, d=2, seed=3)
        draws = halton_draws(500, 2, domain=Domain.cube(2))
        basis = BasisSet(build_classical_sparse_grid(2, 3), Domain.cube(2))
        design = build_design_matrix(data, draws, basis)
        assert (design.Z >= 0).all()
        assert (design.Z <= design.column_mass[None, :] + 1e-12).all()

    def test_row_order_matches_outcome_flattening(self):
        data = _tiny_data(n=4, j=3, d=1, seed=4)
        draws = halton_draws(100, 1, domain=Domain.cube(1))
        design = build_design_matrix(data, draws, _root_basis())
        assert design.row_of(2, 1) == 7
        assert design.n_rows == data.n_rows


class _CountingKernel:
    """The default kernel, recording the draws of every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, x, betas):
        self.calls.append(np.array(betas))
        return choice_probabilities(x, betas)


class TestKernelSeesLiveDraws:
    # sorted draws, so each DESIGN_CHUNK block covers its own part of [0, 1]
    def _setup(self):
        data = _tiny_data(n=4, j=2, d=1, seed=8)
        dom = Domain.cube(1, 0.0, 1.0)
        draws = DrawSet(draws=np.linspace(0.0001, 0.9999, 5000)[:, None], domain=dom, burn_in=0)
        return data, dom, draws

    def test_root_design_passes_every_draw(self):
        data, _, draws = self._setup()
        kernel = _CountingKernel()
        build_design_matrix(data, draws, _root_basis(), kernel=kernel)
        assert len(kernel.calls) == 3
        np.testing.assert_array_equal(np.concatenate(kernel.calls), draws.draws)

    def test_new_columns_pass_only_their_live_draws(self):
        data, dom, draws = self._setup()
        root = SparseGrid(1, [GridPoint((1,), (1,))], max_level=5)
        design = build_design_matrix(data, draws, BasisSet(root, dom))
        kernel = _CountingKernel()
        # support (0, 0.5): the first block is all live, the second partly,
        # the third not at all
        inc = incremental_columns(design, [GridPoint((2,), (1,))], draws, data, kernel=kernel)
        live = inc.basis_at_draws[:, 1] != 0.0
        assert 0 < live.sum() < draws.n_draws
        assert len(kernel.calls) == 2
        np.testing.assert_array_equal(np.concatenate(kernel.calls), draws.draws[live])

    def test_incremental_columns_on_halton_draws(self):
        data, draws, design = TestIncrementalColumns()._design()
        grid = design.basis.grid
        new_grid, _ = refine(grid, [grid.points[1]])
        added = new_grid.points[len(grid):]
        kernel = _CountingKernel()
        inc = incremental_columns(design, added, draws, data, kernel=kernel)
        live = (inc.basis_at_draws[:, len(grid):] != 0.0).any(axis=1)
        assert live.sum() < draws.n_draws
        np.testing.assert_array_equal(np.concatenate(kernel.calls), draws.draws[live])


class TestDesignSparsity:
    def test_nonzero_basis_values_bounded_by_level_combinations(self):
        # within one level multi-index the supports are disjoint, so a draw
        # can touch at most one function per level combination
        grid = build_classical_sparse_grid(2, 4)
        basis = BasisSet(grid, Domain.cube(2))
        draws = halton_draws(300, 2, domain=Domain.cube(2))
        vals = basis.evaluate(draws.draws)
        n_level_vectors = len({p.levels for p in grid.points})
        nnz_per_draw = (vals > 0).sum(axis=1)
        assert (nnz_per_draw <= n_level_vectors).all()


class TestIncrementalColumns:
    def _design(self):
        data = _tiny_data(n=10, j=2, d=2, seed=5)
        draws = halton_draws(400, 2, domain=Domain.cube(2))
        grid = build_classical_sparse_grid(2, 2)
        basis = BasisSet(grid, Domain.cube(2))
        return data, draws, build_design_matrix(data, draws, basis)

    def test_empty_addition_is_identity(self):
        data, draws, design = self._design()
        out = incremental_columns(design, [], draws, data)
        assert out is design

    def test_matches_full_rebuild(self):
        data, draws, design = self._design()
        grid = design.basis.grid
        new_grid, _ = refine(grid, [grid.points[1]])
        added = new_grid.points[len(grid):]
        inc = incremental_columns(design, added, draws, data)
        full = build_design_matrix(data, draws, BasisSet(new_grid, Domain.cube(2)))
        np.testing.assert_array_equal(inc.Z[:, : len(grid)], design.Z)
        # new columns may differ from a monolithic rebuild by summation
        # order inside the matrix product, nothing more
        np.testing.assert_allclose(inc.Z, full.Z, rtol=1e-12)
        np.testing.assert_array_equal(inc.column_mass, full.column_mass)
        np.testing.assert_array_equal(inc.basis_at_draws, full.basis_at_draws)

    def test_duplicate_point_rejected(self):
        data, draws, design = self._design()
        with pytest.raises(ValueError, match="already in design"):
            incremental_columns(design, [design.basis.grid.points[0]], draws, data)

    def test_dead_new_column_rejected(self):
        data = _tiny_data(n=5, j=2, d=1, seed=6)
        dom = Domain.cube(1, 0.0, 1.0)
        # all draws in the right half: the (2, 1) child's support (0, 0.5)
        # holds none of them
        draws = DrawSet(draws=np.linspace(0.55, 0.95, 9)[:, None], domain=dom, burn_in=0)
        grid = SparseGrid(1, [GridPoint((1,), (1,))], max_level=5)
        design = build_design_matrix(data, draws, BasisSet(grid, dom))
        with pytest.raises(DeadColumnError):
            incremental_columns(
                design,
                [GridPoint((2,), (1,)), GridPoint((2,), (3,))],
                draws,
                data,
            )


class TestPredictedProbabilityBound:
    def test_feasible_fit_predicts_probabilities(self):
        rng = np.random.default_rng(7)
        n, j, d = 60, 3, 2
        x = rng.normal(size=(n, j, d))
        y = np.zeros((n, j))
        y[np.arange(n), rng.integers(0, j, size=n)] = 1.0
        data = ChoiceDataset(x, y)
        draws = halton_draws(800, d, domain=Domain.cube(d))
        basis = BasisSet(build_classical_sparse_grid(d, 2), Domain.cube(d))
        design = build_design_matrix(data, draws, basis)
        sol = solve_cls(
            CLSProblem(
                Z=design.Z,
                y=data.y_flat,
                A_ineq=design.basis_at_draws,
                c_eq=design.column_mass,
            )
        )
        predicted = design.Z @ sol.alpha
        assert predicted.min() >= -1e-8
        assert predicted.max() <= 1.0 + 1e-8


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        data = _tiny_data(n=5, j=3, d=2, seed=8)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)
        np.testing.assert_array_equal(back.unit_ids, data.unit_ids)

    def test_outside_option_round_trip(self, tmp_path):
        x = np.ones((2, 2, 1))
        y = np.array([[0.0, 0.0], [1.0, 0.0]])
        path = tmp_path / "data.csv"
        write_dataset_csv(ChoiceDataset(x, y), path)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.y, y)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "unit_id,alt_id,chosen,x_1\n0,1,0,0.5\n0,2,not-a-number,0.1\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_nonfinite_covariate_names_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"unit_id,alt_id,chosen,x_1\n0,1,0,0.5\n0,2,1,{value}\n")
        with pytest.raises(ValueError, match="line 3: covariates must be finite"):
            read_dataset_csv(path)

    def test_out_of_order_alternative_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit_id,alt_id,chosen,x_1\n0,2,0,0.5\n")
        with pytest.raises(ValueError, match="line 2"):
            read_dataset_csv(path)
