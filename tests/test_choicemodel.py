import csv
import math
import re
import tracemalloc

import numpy as np
import pytest

from sparserc import choicemodel
from sparserc.basis import BasisSet, Domain
from sparserc.choicemodel import (
    UNIT_TILE,
    ChoiceDataset,
    DeadColumnError,
    build_design_matrix,
    choice_probabilities,
    incremental_columns,
    kernel_sweep,
    logit_kernel,
    read_dataset_csv,
    write_dataset_csv,
)
from sparserc.clsolver import ROW_BLOCK, CLSProblem, pattern_blocks, solve_cls
from sparserc.hiergrid import GridPoint, SparseGrid, build_classical_sparse_grid, refine
from sparserc.quasirand import halton_draws


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
    """A unit's kernel values do not depend on the size of the call."""

    def test_unit_independent_of_other_units(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(600, 3, 2))
        betas = rng.normal(size=(100, 2)) * 3
        k = 500
        full = choice_probabilities(x, betas)
        np.testing.assert_array_equal(choice_probabilities(x[:k], betas), full[:k])
        # every unit moves to another row of the product
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
        m = 26_215  # one unit's J * M values exceed 1 MB
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
        assert 8 * 5 * 300 * 400 > 2 << 20
        probs = choice_probabilities(x, betas)
        assert np.all(np.isfinite(probs))
        assert probs.min() >= 0.0
        assert (probs.sum(axis=1) <= 1.0 + 1e-12).all()


class TestOverflowBound:
    """Units whose utility bound keeps ``exp`` and the row sum finite skip the
    max shift; every other unit keeps it."""

    # the bound for J = 2 alternatives
    LIMIT = choicemodel._LOG_MAX - math.log(3.0)

    @pytest.mark.parametrize("sign", ["positive", "mixed"])
    def test_utilities_far_above_the_bound(self, sign):
        rng = np.random.default_rng(10)
        low = 0.5 if sign == "positive" else -1.0
        x = rng.uniform(low, 1.0, size=(300, 5, 2))
        betas = rng.uniform(800.0 if sign == "positive" else -2500.0, 2500.0, size=(200, 2))
        u = x @ betas.T
        assert np.abs(u).max() <= 5000.0 and (u > 800.0).any()
        if sign == "positive":
            assert u.min() >= 800.0
        probs = choice_probabilities(x, betas)
        assert np.all(np.isfinite(probs))
        assert probs.min() >= 0.0
        assert (probs.sum(axis=1) <= 1.0 + 1e-12).all()

    def test_shifted_path_above_the_bound(self):
        # exact utilities from just above the bound, past exp's overflow at
        # 709.78, to 5000, one coefficient per call (the bound is over the
        # call's box): the output is logit_kernel's max-shift formula bit
        # for bit
        x = np.array([[[1.0], [0.5]]])
        above = np.ceil(self.LIMIT * 8.0) / 8.0 + np.arange(48) / 8.0
        assert above[0] < self.LIMIT + 0.25 and above[-1] > 712.0
        for beta in np.concatenate([above, np.linspace(800.0, 5000.0, 22)]):
            probs = choice_probabilities(x, [[beta]])[0, :, 0]
            np.testing.assert_array_equal(probs, logit_kernel(x[0], [beta]))
            assert np.all(np.isfinite(probs)) and probs.sum() <= 1.0

    def test_formulas_agree_just_below_the_bound(self):
        # dyadic utilities, so both formulas exponentiate exact numbers
        x = np.array([[[1.0], [0.5]]])
        top = np.floor(self.LIMIT * 8.0) / 8.0 - 0.125
        betas = (top - np.arange(16) / 8.0)[:, None]
        assert self.LIMIT - 0.25 < top < self.LIMIT
        probs = choice_probabilities(x, betas)[0]
        e = np.exp(x[0] @ betas.T)
        np.testing.assert_array_equal(probs, e / (1.0 + e.sum(axis=0)))
        shifted = np.column_stack([logit_kernel(x[0], b) for b in betas])
        np.testing.assert_array_max_ulp(probs, shifted, maxulp=4)

    def test_over_bound_unit_among_under_bound_units(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(200, 3, 2))
        x[77] *= 400.0
        betas = rng.uniform(-4.0, 4.0, size=(100, 2))
        assert (x[77] @ betas.T).max() > 800.0
        assert np.abs(np.delete(x, 77, axis=0) @ betas.T).max() < 100.0
        probs = choice_probabilities(x, betas)
        assert np.all(np.isfinite(probs)) and probs.min() >= 0.0
        for n in range(200):
            np.testing.assert_array_equal(choice_probabilities(x[n:n + 1], betas)[0], probs[n])


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

    @pytest.mark.parametrize("ids, shown", [
        ([1.2, 1.7, 3.0, 4.0], "unit 0 has 1.2"),
        ([1.0, 2.0, np.nan, 4.0], "unit 2 has nan"),
        ([1.0, 2.0, 3.0, np.inf], "unit 3 has inf"),
        (["a", "b", "c", "d"], "unit 0 has 'a'"),
        ([True, False, True, False], "unit 0 has True"),
        (np.array([1, 2, 3, 2**63], dtype=np.uint64), "unit 3 has 9223372036854775808"),
    ], ids=["fraction", "nan", "inf", "string", "bool", "past-int64"])
    def test_non_integer_unit_id_named(self, ids, shown):
        with pytest.raises(ValueError, match="^unit_ids must be integers: " + re.escape(shown)):
            ChoiceDataset(np.zeros((4, 2, 1)), np.zeros((4, 2)), unit_ids=ids)

    def test_whole_number_unit_ids_held_as_int64(self, tmp_path):
        data = ChoiceDataset(np.zeros((4, 2, 1)), np.zeros((4, 2)), unit_ids=[3.0, -1.0, 7.0, 2.0])
        assert data.unit_ids.dtype == np.int64
        assert data.unit_ids.tolist() == [3, -1, 7, 2]
        largest = ChoiceDataset(np.zeros((1, 2, 1)), np.zeros((1, 2)), [2**63 - 1])
        assert largest.unit_ids.tolist() == [2**63 - 1]
        write_dataset_csv(data, tmp_path / "data.csv")
        np.testing.assert_array_equal(read_dataset_csv(tmp_path / "data.csv").unit_ids,
                                      data.unit_ids)

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

    def test_constant_kernel_factors_out(self, monkeypatch):
        data = _tiny_data()
        draws = halton_draws(32, 1, domain=Domain.cube(1))
        basis = BasisSet(build_classical_sparse_grid(1, 2), Domain.cube(1))

        def ones_kernel(x, betas, out=None):
            return np.ones((x.shape[0], x.shape[1], betas.shape[0]))

        monkeypatch.setattr(choicemodel, "choice_probabilities", ones_kernel)
        design = build_design_matrix(data, draws, basis)
        for row in design.Z:
            np.testing.assert_allclose(row, design.column_mass, atol=1e-12)

    def test_two_draw_hand_sum(self, monkeypatch):
        # root hat at unit coords 0.25, 0.75 evaluates to 0.5; with kernel
        # values 0.3 and 0.6 the single entry is 0.3*0.5 + 0.6*0.5 = 0.45
        data = ChoiceDataset(np.zeros((1, 1, 1)), np.zeros((1, 1)))
        dom = Domain.cube(1, 0.0, 1.0)
        draws = np.array([[0.25], [0.75]])
        basis = BasisSet(SparseGrid(1, [GridPoint((1,), (1,))]), dom)

        def stub_kernel(x, betas, out=None):
            vals = {0.25: 0.3, 0.75: 0.6}
            return np.array([[[vals[b[0]] for b in betas]]])

        monkeypatch.setattr(choicemodel, "choice_probabilities", stub_kernel)
        design = build_design_matrix(data, draws, basis)
        assert design.Z[0, 0] == pytest.approx(0.45, abs=1e-15)
        assert design.column_mass[0] == pytest.approx(1.0, abs=1e-15)

    def test_dead_column_error_names_point(self):
        data = _tiny_data()
        dom = Domain.cube(1, 0.0, 1.0)
        # all draws in the left half: the (2, 3) basis function sees none
        draws = np.linspace(0.05, 0.45, 10)[:, None]
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
        assert data.row_slice([2])[1] == 7
        assert data.y_flat[7] == data.y[2, 1]
        assert design.Z.shape[0] == data.n_rows


class TestKernelOut:
    def test_out_is_filled_and_returned(self):
        rng = np.random.default_rng(26)
        x, betas = rng.normal(size=(4, 3, 2)), rng.normal(size=(5, 2))
        out = np.full((4, 3, 5), np.nan)
        assert choice_probabilities(x, betas, out=out) is out
        np.testing.assert_array_equal(out, choice_probabilities(x, betas))

    @pytest.mark.parametrize(
        "out", [np.empty((4, 3, 4)), np.empty((4, 5, 3)).transpose(0, 2, 1)]
    )
    def test_out_of_wrong_shape_or_layout_is_refused(self, out):
        rng = np.random.default_rng(27)
        x, betas = rng.normal(size=(4, 3, 2)), rng.normal(size=(5, 2))
        with pytest.raises(ValueError, match="C-contiguous"):
            choice_probabilities(x, betas, out=out)


class _CountingKernel:
    """The default kernel, recording the draws of every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, x, betas, out=None):
        self.calls.append(np.array(betas))
        return choice_probabilities(x, betas, out=out)


@pytest.fixture
def counting_kernel(monkeypatch):
    kernel = _CountingKernel()
    monkeypatch.setattr(choicemodel, "choice_probabilities", kernel)
    return kernel


def assert_each_live_point_once(calls, points, weights):
    """One kernel call per pattern block of the live rows, on the block's
    points: every point with a nonzero weight reaches the kernel exactly
    once, and no point with an all-zero weight row reaches it."""
    nonzero = weights != 0.0
    live = np.flatnonzero(nonzero.any(axis=1))
    blocks = pattern_blocks(nonzero[live])
    assert len(calls) == len(blocks)
    for betas, (rows, _) in zip(calls, blocks):
        assert betas.shape[0] <= ROW_BLOCK
        np.testing.assert_array_equal(betas, points[live[rows]])
    position = {p.tobytes(): r for r, p in enumerate(points)}
    assert len(position) == points.shape[0]
    seen = sorted(position[p.tobytes()] for p in np.concatenate(calls))
    assert seen == live.tolist()


class TestKernelSweep:
    def test_matches_logit_kernel_oracle_over_blocks(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 2, 2))
        points = rng.uniform(-4, 4, size=(2 * ROW_BLOCK + 1, 2))
        weights = rng.uniform(size=(points.shape[0], 2))
        out = kernel_sweep(x, points, weights)
        expected = np.zeros((6, 2))
        for r in range(points.shape[0]):
            g = np.concatenate([logit_kernel(x[n], points[r]) for n in range(3)])
            expected += np.outer(g, weights[r])
        assert out.shape == (6, 2)
        np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-14)

    def test_zero_weight_rows_reach_no_kernel_call(self, counting_kernel):
        x = np.random.default_rng(22).normal(size=(2, 3, 1))
        points = np.linspace(-3, 3, 8 * ROW_BLOCK + 1)[:, None]
        weights = np.zeros((points.shape[0], 1))
        live = np.append(np.arange(10, 6 * ROW_BLOCK, 5), 8 * ROW_BLOCK)
        weights[live, 0] = 1.0
        out = kernel_sweep(x, points, weights)
        assert len(counting_kernel.calls) > 1
        assert_each_live_point_once(counting_kernel.calls, points, weights)
        expected = choice_probabilities(x, points[live]).reshape(6, -1).sum(axis=1)
        np.testing.assert_allclose(out[:, 0], expected, rtol=1e-12)

    @pytest.mark.parametrize("weights", [np.zeros((5, 0)), np.zeros((5, 2))])
    def test_nothing_live_makes_no_call(self, counting_kernel, weights):
        x = np.random.default_rng(24).normal(size=(2, 3, 1))
        out = kernel_sweep(x, np.linspace(-1, 1, 5)[:, None], weights)
        assert counting_kernel.calls == []
        np.testing.assert_array_equal(out, np.zeros((6, weights.shape[1])))

    @pytest.mark.parametrize("n_live", [1, 3 * ROW_BLOCK + 5])
    def test_calls_write_into_one_block_sized_buffer(self, monkeypatch, n_live):
        outs = []

        def kernel(x, betas, out=None):
            outs.append(out)
            return choice_probabilities(x, betas, out=out)

        monkeypatch.setattr(choicemodel, "choice_probabilities", kernel)
        rng = np.random.default_rng(25)
        x = rng.normal(size=(2, 3, 1))
        points = rng.uniform(-2, 2, size=(3 * ROW_BLOCK + 5, 1))
        weights = rng.uniform(size=(points.shape[0], 2))
        weights[n_live:] = 0.0
        out = kernel_sweep(x, points, weights)
        assert sum(o.shape[2] for o in outs) == n_live
        assert all(o.shape[:2] == (2, 3) and o.base is outs[0].base for o in outs)
        # the buffer's size does not depend on how many points are live
        assert outs[0].base.size == 6 * ROW_BLOCK
        g = choice_probabilities(x, points).reshape(6, -1)
        np.testing.assert_allclose(out, g @ weights, rtol=1e-12)

    def test_patterns_spanning_several_calls(self, counting_kernel):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3, 2, 2))
        points = rng.uniform(-4, 4, size=(3 * ROW_BLOCK + 5, 2))
        weights = rng.uniform(size=(points.shape[0], 70)) * (rng.uniform(size=(1, 70)) < 0.3)
        weights[rng.uniform(size=points.shape[0]) < 0.2] = 0.0
        out = kernel_sweep(x, points, weights)
        assert len(counting_kernel.calls) > 1
        assert_each_live_point_once(counting_kernel.calls, points, weights)
        g = choice_probabilities(x, points).reshape(6, -1)
        np.testing.assert_allclose(out, g @ weights, rtol=1e-12)
        assert out.flags.c_contiguous


class TestUnitTiles:
    """``kernel_sweep`` takes the units in tiles of ``UNIT_TILE``."""

    def test_tile_boundaries_match_the_oracle(self, monkeypatch):
        calls = []

        def kernel(x, betas, out=None):
            calls.append((x.shape[0], np.array(betas)))
            return choice_probabilities(x, betas, out=out)

        monkeypatch.setattr(choicemodel, "choice_probabilities", kernel)
        rng = np.random.default_rng(28)
        n = 2 * UNIT_TILE + 1
        x = rng.normal(size=(n, 2, 2))
        points = rng.uniform(-4, 4, size=(ROW_BLOCK + 40, 2))
        weights = rng.uniform(size=(points.shape[0], 3)) * (rng.uniform(size=(points.shape[0], 3)) < 0.6)
        out = kernel_sweep(x, points, weights)
        assert out.shape == (2 * n, 3)
        # each tile makes one call per block, and so passes every live point once
        blocks = len(pattern_blocks(weights[(weights != 0.0).any(axis=1)]))
        assert blocks > 1
        assert [units for units, _ in calls] == [UNIT_TILE] * 2 * blocks + [1] * blocks
        for tile in range(3):
            assert_each_live_point_once(
                [betas for _, betas in calls[tile * blocks:(tile + 1) * blocks]], points, weights
            )
        edges = (UNIT_TILE - 1, UNIT_TILE, 2 * UNIT_TILE - 1, 2 * UNIT_TILE)
        for unit in (0, UNIT_TILE // 2, UNIT_TILE + 5) + edges:
            g = np.array([logit_kernel(x[unit], p) for p in points])
            np.testing.assert_allclose(out[2 * unit:2 * unit + 2], g.T @ weights, rtol=1e-14, atol=1e-14)

    def test_allocates_its_output_and_tile_sized_buffers(self):
        rng = np.random.default_rng(29)
        j, k = 3, 200
        x = rng.normal(size=(4 * UNIT_TILE, j, 2))
        points = rng.uniform(-4, 4, size=(600, 2))
        weights = rng.uniform(size=(600, k))
        weights[rng.uniform(size=600) < 0.2] = 0.0

        def beyond_output(units):
            tracemalloc.start()
            try:
                out = kernel_sweep(x[:units], points, weights)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.nbytes == 8 * units * j * k
            return peak - out.nbytes

        one_tile = beyond_output(UNIT_TILE)
        # the kernel buffer, the tile's sums with a block product and its
        # gathered entries, and the weights' CSR copies and dense slabs
        assert one_tile <= 8 * UNIT_TILE * j * (ROW_BLOCK + 3 * k) + 4 * weights.nbytes
        # four times the units: only the output grows
        assert beyond_output(4 * UNIT_TILE) <= one_tile + (1 << 16)


class TestGramConsumer:
    """With outcomes, the sweep reduces each unit tile into the Gram sums."""

    def test_sweep_returns_the_sums_of_its_output(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(UNIT_TILE + 7, 2, 2))
        y = rng.uniform(size=2 * x.shape[0])
        points = rng.uniform(-4, 4, size=(ROW_BLOCK + 40, 2))
        weights = rng.uniform(size=(points.shape[0], 4))
        weights[rng.uniform(size=weights.shape) < 0.4] = 0.0
        Z = kernel_sweep(x, points, weights)
        G, g = kernel_sweep(x, points, weights, y)
        np.testing.assert_allclose(G, Z.T @ Z, rtol=1e-13, atol=0)
        np.testing.assert_allclose(g, Z.T @ y, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(G, G.T)

    def test_reduced_design_keeps_phi_and_masses(self):
        data = _tiny_data(n=2 * UNIT_TILE + 3, j=3, d=2, seed=30)
        draws = halton_draws(800, 2, domain=Domain.cube(2))
        basis = BasisSet(build_classical_sparse_grid(2, 3), Domain.cube(2))
        rows = build_design_matrix(data, draws, basis)
        reduced = build_design_matrix(data, draws, basis, gram=True)
        assert reduced.Z is None
        assert reduced.n_columns == rows.n_columns == len(basis.grid)
        np.testing.assert_array_equal(reduced.column_mass, rows.column_mass)
        assert (reduced.basis_at_draws != rows.basis_at_draws).nnz == 0
        G, g = reduced.gram
        np.testing.assert_allclose(G, rows.Z.T @ rows.Z, rtol=1e-13, atol=0)
        np.testing.assert_allclose(g, rows.Z.T @ data.y_flat, rtol=1e-13, atol=0)


class TestKernelSeesLiveDraws:
    def _setup(self):
        data = _tiny_data(n=4, j=2, d=1, seed=8)
        dom = Domain.cube(1, 0.0, 1.0)
        draws = np.linspace(0.0001, 0.9999, 5000)[:, None]
        return data, dom, draws

    def test_root_design_passes_every_draw(self, counting_kernel):
        data, _, draws = self._setup()
        design = build_design_matrix(data, draws, _root_basis())
        phi = design.basis_at_draws.toarray()
        assert (phi != 0.0).all()
        assert_each_live_point_once(counting_kernel.calls, draws, phi)

    def test_new_columns_pass_only_their_live_draws(self, monkeypatch):
        data, dom, draws = self._setup()
        root = SparseGrid(1, [GridPoint((1,), (1,))], max_level=5)
        design = build_design_matrix(data, draws, BasisSet(root, dom))
        kernel = _CountingKernel()
        monkeypatch.setattr(choicemodel, "choice_probabilities", kernel)
        # support (0, 0.5): about half the draws are live
        grid = SparseGrid(1, [*root.points, GridPoint((2,), (1,))], max_level=5)
        inc = incremental_columns(design, grid, draws, data)
        phi = inc.basis_at_draws.toarray()
        live = phi[:, 1] != 0.0
        assert 0 < live.sum() < len(draws)
        assert_each_live_point_once(kernel.calls, draws, phi[:, 1:])

    def test_incremental_columns_on_halton_draws(self, monkeypatch):
        data, draws, design = TestIncrementalColumns()._design()
        grid = design.basis.grid
        new_grid, _ = refine(grid, [grid.points[1]])
        kernel = _CountingKernel()
        monkeypatch.setattr(choicemodel, "choice_probabilities", kernel)
        inc = incremental_columns(design, new_grid, draws, data)
        new = inc.basis_at_draws.toarray()[:, len(grid):]
        assert (new != 0.0).any(axis=1).sum() < len(draws)
        assert_each_live_point_once(kernel.calls, draws, new)


class TestDesignSparsity:
    def test_nonzero_basis_values_bounded_by_level_combinations(self):
        # within one level multi-index the supports are disjoint, so a draw
        # can touch at most one function per level combination
        grid = build_classical_sparse_grid(2, 4)
        basis = BasisSet(grid, Domain.cube(2))
        draws = halton_draws(300, 2, domain=Domain.cube(2))
        vals = basis.evaluate(draws).toarray()
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
        out = incremental_columns(design, design.basis.grid, draws, data)
        assert out is design

    def test_matches_full_rebuild(self):
        data, draws, design = self._design()
        grid = design.basis.grid
        new_grid, _ = refine(grid, [grid.points[1]])
        inc = incremental_columns(design, new_grid, draws, data)
        assert inc.basis.grid is new_grid
        full = build_design_matrix(data, draws, BasisSet(new_grid, Domain.cube(2)))
        np.testing.assert_array_equal(inc.Z[:, : len(grid)], design.Z)
        # new columns may differ from a monolithic rebuild by summation
        # order inside the matrix product, nothing more
        np.testing.assert_allclose(inc.Z, full.Z, rtol=1e-12)
        np.testing.assert_array_equal(inc.column_mass, full.column_mass)
        # the same CSR matrix, stored entries and layout alike
        for name in ("indptr", "indices", "data"):
            a, b = getattr(inc.basis_at_draws, name), getattr(full.basis_at_draws, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert inc.basis_at_draws.indices.dtype == np.int32

    def test_column_mass_is_the_dense_column_sum_bit_for_bit(self):
        data, draws, design = self._design()
        grid = design.basis.grid
        new_grid, _ = refine(grid, [grid.points[1], grid.points[2]])
        inc = incremental_columns(design, new_grid, draws, data)
        for d in (design, inc):
            np.testing.assert_array_equal(d.column_mass, d.basis_at_draws.toarray().sum(axis=0))

    def test_duplicate_point_rejected(self):
        # a grid that does not start with the design's points: reordered, or
        # missing one of them
        data, draws, design = self._design()
        grid = design.basis.grid
        new_grid, _ = refine(grid, [grid.points[1]])
        for points in (new_grid.points[1:2] + new_grid.points[:1] + new_grid.points[2:],
                       new_grid.points[:1] + new_grid.points[2:]):
            other = SparseGrid(grid.dim, points, max_level=grid.max_level, validate=False)
            with pytest.raises(ValueError, match="must start with the design's points"):
                incremental_columns(design, other, draws, data)

    def test_dead_new_column_rejected(self):
        data = _tiny_data(n=5, j=2, d=1, seed=6)
        dom = Domain.cube(1, 0.0, 1.0)
        # all draws in the right half: the (2, 1) child's support (0, 0.5)
        # holds none of them
        draws = np.linspace(0.55, 0.95, 9)[:, None]
        grid = SparseGrid(1, [GridPoint((1,), (1,))], max_level=5)
        design = build_design_matrix(data, draws, BasisSet(grid, dom))
        new_grid = SparseGrid(
            1, [*grid.points, GridPoint((2,), (1,)), GridPoint((2,), (3,))], max_level=5
        )
        with pytest.raises(DeadColumnError):
            incremental_columns(design, new_grid, draws, data)


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
            CLSProblem.from_rows(design.Z, data.y_flat, design.basis_at_draws, design.column_mass)
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

    def test_bytes_match_csv_writer_rows(self, tmp_path):
        x = np.random.default_rng(3).normal(size=(6, 3, 2))
        x[0, 0] = [-0.0, 1e22]
        y = np.zeros((6, 3))
        y[[0, 2, 3, 5], [1, 0, 2, 2]] = 1.0
        data = ChoiceDataset(x, y, unit_ids=[7, -2, 2**62, 0, 5, 1])
        write_dataset_csv(data, tmp_path / "fast.csv")
        # the writer it replaced
        with open(tmp_path / "rows.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["unit_id", "alt_id", "chosen"] + [f"x_{d + 1}" for d in range(data.dim)]
            )
            for n in range(data.n_units):
                for j in range(data.n_alts):
                    writer.writerow(
                        [int(data.unit_ids[n]), j + 1, int(round(data.y[n, j]))]
                        + [repr(float(v)) for v in data.x[n, j]]
                    )
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_regrouped_unit_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit_id,alt_id,chosen,x_1\n1,1,0,0.5\n2,1,1,0.1\n1,1,1,0.3\n")
        with pytest.raises(ValueError, match=(
            f"^{re.escape(str(path))}: line 4: unit 1 reappears: rows must be grouped by unit$"
        )):
            read_dataset_csv(path)

    @pytest.mark.parametrize("rows", [1, 3], ids=["fewer", "more"])
    def test_unit_of_another_width_names_its_first_line(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        unit_1 = "".join(f"1,{a},0,0.{a}\n" for a in range(1, rows + 1))
        path.write_text("unit_id,alt_id,chosen,x_1\n0,1,0,0.5\n0,2,1,0.1\n"
                        + unit_1 + "2,1,0,0.2\n2,2,1,0.4\n")
        with pytest.raises(ValueError, match=(
            f"^{re.escape(str(path))}: line 4: unit 1 has {rows} alternatives, expected 2$"
        )):
            read_dataset_csv(path)

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
