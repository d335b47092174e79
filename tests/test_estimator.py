import json
import math

import numpy as np
import pytest

from sparserc.basis import BasisSet, Domain
from sparserc.choicemodel import ChoiceDataset, build_design_matrix
from sparserc.estimator import (
    RefineOptions,
    _column_scores,
    aic,
    criterion_local_error,
    criterion_surplus,
    fit_asg,
    fit_fkrb,
    fit_from_json,
    fit_sg,
    fit_to_json,
    fkrb_grid,
    fold_assignments,
    heldout_loglik,
    kfold_cv,
    predict_probabilities,
)
from sparserc.hiergrid import CapacityError, build_classical_sparse_grid
from sparserc.quasirand import halton_draws
from sparserc.simulate import simulate_choices, two_normal_mixture


def _data(n=80, j=3, d=2, seed=0, betas=None):
    rng = np.random.default_rng(seed)
    if betas is None:
        betas = two_normal_mixture(d).sample(n, rng)
    return simulate_choices(betas, j, rng)


class TestFitSg:
    def test_parameter_counts(self):
        data = _data(n=60, d=2, seed=1)
        fit = fit_sg(data, Domain.cube(2), 3, r_draws=600)
        assert fit.n_parameters == 17
        assert fit.diagnostics["n_parameters"] == 17

    def test_five_dim_level_four_count(self):
        # combinatorics only: the classical grid drives the column count
        assert len(build_classical_sparse_grid(5, 4)) == 351

    def test_density_is_probability_vector(self):
        data = _data(n=60, d=2, seed=2)
        fit = fit_sg(data, Domain.cube(2), 2, r_draws=500)
        assert fit.density_at_draws.min() >= -1e-8
        assert fit.density_at_draws.sum() == pytest.approx(1.0, abs=1e-8)
        assert fit.support.shape == (500, 2)

    def test_point_mass_concentrates_density(self):
        rng = np.random.default_rng(3)
        betas = np.zeros((6000, 2))
        data = simulate_choices(betas, 5, rng)
        fit = fit_sg(data, Domain.cube(2), 3, r_draws=2000)
        mode = fit.support[int(np.argmax(fit.density_at_draws))]
        assert np.abs(mode).max() <= 1.0

    def test_kkt_within_tolerance(self):
        data = _data(n=100, d=2, seed=4)
        fit = fit_sg(data, Domain.cube(2), 3, r_draws=800)
        assert fit.diagnostics["kkt_residual"] <= 1e-8
        assert abs(fit.diagnostics["eq_violation"]) <= 1e-10


class TestFitFkrb:
    def test_grid_sizes(self):
        assert fkrb_grid(Domain.cube(2), 15).shape == (225, 2)
        assert fkrb_grid(Domain.cube(6), 3).shape == (729, 6)

    def test_grid_midpoint_placement(self):
        pts = fkrb_grid(Domain.cube(1), 7)[:, 0]
        width = 8.0 / 7
        np.testing.assert_allclose(pts, -4.0 + (np.arange(7) + 0.5) * width)
        assert 0.0 in pts

    def test_parameter_counts(self):
        data = _data(n=50, j=5, d=2, seed=5)
        fit = fit_fkrb(data, Domain.cube(2), 15)
        assert fit.n_parameters == 225

    def test_six_dim_three_point_grid(self):
        data = _data(n=200, j=5, d=6, seed=6)
        fit = fit_fkrb(data, Domain.cube(6), 3)
        assert fit.n_parameters == 729
        assert fit.density_at_draws.sum() == pytest.approx(1.0, abs=1e-8)

    def test_capacity_guard(self):
        data = _data(n=100, j=5, d=4, seed=7)  # 500 rows < 15**4
        with pytest.raises(CapacityError):
            fit_fkrb(data, Domain.cube(4), 15)

    def test_weights_equal_density(self):
        data = _data(n=50, d=2, seed=8)
        fit = fit_fkrb(data, Domain.cube(2), 3)
        np.testing.assert_array_equal(fit.alpha, fit.density_at_draws)


class TestCriteria:
    def _fitted(self, seed=9):
        data = _data(n=60, d=2, seed=seed)
        domain = Domain.cube(2)
        fit = fit_sg(data, domain, 2, r_draws=500)
        draws = halton_draws(500, 2, domain=domain)
        design = build_design_matrix(data, draws, BasisSet(fit.grid, domain))
        return data, fit, draws, design

    def test_surplus_scores_are_coefficient_magnitudes(self):
        _, fit, _, _ = self._fitted()
        scores = criterion_surplus(fit)
        for p, v in scores.items():
            assert v == abs(float(fit.alpha[fit.grid.position(p)]))

    def test_surplus_requires_grid_fit(self):
        data = _data(n=40, d=2, seed=10)
        fk = fit_fkrb(data, Domain.cube(2), 3)
        with pytest.raises(ValueError):
            criterion_surplus(fk)

    def test_local_error_zero_for_zero_coefficient(self):
        data, fit, draws, design = self._fitted()
        scores = criterion_local_error(fit, data, draws, design=design)
        for p, v in scores.items():
            if fit.alpha[fit.grid.position(p)] == 0.0:
                assert v == 0.0

    def test_local_error_single_observation_hand_check(self):
        data, fit, draws, design = self._fitted()
        one = ChoiceDataset(data.x[:1], data.y[:1], data.unit_ids[:1])
        one_design = build_design_matrix(one, draws, design.basis)
        scores = criterion_local_error(fit, one, draws, design=one_design)
        resid_sq = float((one.y_flat - one_design.Z @ fit.alpha) ** 2 @ np.ones(one.n_rows))
        for p, v in scores.items():
            b = fit.grid.position(p)
            expected = abs(fit.alpha[b]) * float(
                one_design.Z[:, b] @ (one.y_flat - one_design.Z @ fit.alpha) ** 2
            )
            assert v == pytest.approx(expected, rel=1e-12)
        assert resid_sq >= 0  # hand identity exercised above

    def test_local_error_perfect_fit_scores_zero(self):
        # outcomes equal to the fitted predictions leave no residual to share
        _, fit, _, design = self._fitted()
        assert np.any(fit.alpha != 0.0)
        scores = _column_scores("local_error", fit.alpha, design, design.Z @ fit.alpha)
        assert scores.shape == fit.alpha.shape
        assert np.all(scores == 0.0)


class TestAic:
    def test_hand_value(self):
        data = _data(n=5, j=2, d=1, seed=11)  # 10 rows
        fit = fit_sg(data, Domain.cube(1), 2, r_draws=200)
        fit.alpha = fit.alpha[:3]
        fit.diagnostics["ssr_raw"] = 2.5
        fit.diagnostics["n_parameters"] = 3
        value = aic(fit, data)
        assert value == pytest.approx(10 * math.log(0.25) + 6, abs=1e-9)
        assert value == pytest.approx(-7.863, abs=1e-3)

    def test_extra_parameter_costs_two(self):
        data = _data(n=5, j=2, d=1, seed=12)
        fit = fit_sg(data, Domain.cube(1), 2, r_draws=200)
        base = aic(fit, data)
        fit.diagnostics["n_parameters"] += 1
        fit.alpha = np.concatenate([fit.alpha, [0.0]])
        assert aic(fit, data) == pytest.approx(base + 2.0, abs=1e-9)

    def test_zero_ssr_sentinel(self):
        data = _data(n=5, j=2, d=1, seed=13)
        fit = fit_sg(data, Domain.cube(1), 2, r_draws=200)
        fit.diagnostics["ssr_raw"] = 0.0
        with pytest.warns(UserWarning):
            assert aic(fit, data) < -1e200


class TestFoldAssignments:
    def test_partition_sizes(self):
        folds = fold_assignments(np.arange(23), 5, seed=0)
        counts = np.bincount(list(folds.values()), minlength=5)
        assert counts.sum() == 23
        assert counts.max() - counts.min() <= 1

    def test_invariant_to_unit_order(self):
        ids = np.array([5, 3, 9, 1, 7, 2])
        a = fold_assignments(ids, 3, seed=4)
        b = fold_assignments(ids[::-1], 3, seed=4)
        assert a == b

    def test_seed_changes_assignment(self):
        ids = np.arange(40)
        assert fold_assignments(ids, 5, 0) != fold_assignments(ids, 5, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            fold_assignments(np.arange(10), 1)
        with pytest.raises(ValueError):
            fold_assignments(np.arange(3), 5)


class TestHeldoutMetrics:
    def test_loglik_inside_and_outside(self):
        pred = np.array([[0.3, 0.2], [0.1, 0.4]])
        y = np.array([[1.0, 0.0], [0.0, 0.0]])
        ll, clamped = heldout_loglik(pred, y)
        assert clamped == 0
        assert ll == pytest.approx(math.log(0.3) + math.log(0.5), abs=1e-12)

    def test_loglik_clamps_nonpositive(self):
        pred = np.array([[1.0, 0.0]])  # outside probability exactly 0
        y = np.array([[0.0, 0.0]])
        ll, clamped = heldout_loglik(pred, y)
        assert clamped == 1
        assert ll == pytest.approx(math.log(1e-12), abs=1e-9)


class TestKfoldCv:
    def test_leave_one_unit_out_runs(self):
        data = _data(n=6, j=2, d=1, seed=14)
        result = kfold_cv(
            data, 6, lambda d: fit_sg(d, Domain.cube(1), 1, r_draws=200), metric="mse"
        )
        assert len(result.per_fold) == 6
        assert result.mean == pytest.approx(np.mean(result.per_fold))

    def test_metric_validation(self):
        data = _data(n=6, j=2, d=1, seed=15)
        with pytest.raises(ValueError):
            kfold_cv(data, 2, lambda d: None, metric="mae")

    def test_approaches_irreducible_bernoulli_variance(self):
        # truth equal to the root-hat density is inside the level-1 span,
        # so held-out MSE converges to mean P(1-P), not to zero
        from scipy import integrate

        rng = np.random.default_rng(16)
        n, j = 3000, 2
        u1 = rng.uniform(-4, 4, n)
        u2 = rng.uniform(-4, 4, n)
        betas = ((u1 + u2) / 2)[:, None]
        data = simulate_choices(betas, j, rng)
        ts = np.linspace(-4, 4, 1501)
        dens = (1 - np.abs(ts) / 4) / 4
        acc = 0.0
        for i in range(n):
            util = data.x[i][:, 0:1] * ts[None, :]
            m = np.maximum(util.max(axis=0, keepdims=True), 0.0)
            e = np.exp(util - m)
            g = e / (np.exp(-m) + e.sum(axis=0, keepdims=True))
            p = integrate.trapezoid(g * dens[None, :], ts, axis=1)
            acc += float(np.sum(p * (1 - p)))
        irreducible = acc / (n * j)
        result = kfold_cv(
            data, 4, lambda d: fit_sg(d, Domain.cube(1), 1, r_draws=1500), metric="mse",
        )
        assert result.mean == pytest.approx(irreducible, rel=0.05)
        assert result.mean > 0.1

    def test_loglik_metric_runs(self):
        data = _data(n=30, j=3, d=2, seed=17)
        result = kfold_cv(
            data, 3, lambda d: fit_sg(d, Domain.cube(2), 2, r_draws=400), metric="loglik"
        )
        assert np.isfinite(result.mean)


class TestFitAsg:
    def _asg(self, selection="cv_mse", steps=3, seed=18, criterion="local_error"):
        data = _data(n=120, j=3, d=2, seed=seed)
        opts = RefineOptions(
            steps=steps, criterion=criterion, selection=selection, k_folds=3
        )
        return data, fit_asg(data, Domain.cube(2), 2, r_draws=600, refine_opts=opts)

    def test_zero_steps_equals_sg(self):
        data = _data(n=80, d=2, seed=19)
        opts = RefineOptions(steps=0, selection="aic")
        asg = fit_asg(data, Domain.cube(2), 2, r_draws=500, refine_opts=opts)
        sg = fit_sg(data, Domain.cube(2), 2, r_draws=500)
        np.testing.assert_array_equal(asg.alpha, sg.alpha)
        np.testing.assert_array_equal(asg.density_at_draws, sg.density_at_draws)
        assert asg.grid.points == sg.grid.points
        assert asg.diagnostics == sg.diagnostics
        assert asg.trace.selected_step == 0
        assert asg.n_parameters == sg.n_parameters

    def test_zero_step_cv_matches_kfold_cv_of_sg(self):
        # the adaptive search's fold refits and kfold_cv share one fold map
        data = _data(n=90, d=2, seed=26)
        domain = Domain.cube(2)
        opts = RefineOptions(steps=0, selection="cv_mse", k_folds=3, cv_seed=7)
        asg = fit_asg(data, domain, 2, r_draws=500, refine_opts=opts)
        step0 = asg.trace.records[0]

        def sg(d):
            return fit_sg(d, domain, 2, r_draws=500)

        mse = kfold_cv(data, 3, sg, metric="mse", seed=7)
        ll = kfold_cv(data, 3, sg, metric="loglik", seed=7)
        np.testing.assert_allclose(step0.oos_mse_folds, mse.per_fold, rtol=1e-12)
        np.testing.assert_allclose(step0.oos_loglik_folds, ll.per_fold, rtol=1e-12)

    def test_grids_nest_across_steps(self):
        _, fit = self._asg(selection="aic")
        sizes = [r.n_parameters for r in fit.trace.records]
        assert sizes == sorted(sizes)
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_in_sample_mse_nonincreasing(self):
        _, fit = self._asg(selection="aic")
        mse = [r.in_sample_mse for r in fit.trace.records]
        assert all(b <= a + 1e-10 for a, b in zip(mse, mse[1:]))

    def test_selected_step_minimizes_criterion(self):
        _, fit = self._asg(selection="cv_mse")
        means = [r.oos_mse_mean for r in fit.trace.records]
        assert fit.trace.selected_step == int(np.argmin(means))
        assert fit.n_parameters == fit.trace.records[fit.trace.selected_step].n_parameters

    def test_aic_selection_skips_cv(self):
        _, fit = self._asg(selection="aic")
        aics = [r.aic for r in fit.trace.records]
        assert fit.trace.selected_step == int(np.argmin(aics))
        assert all(r.oos_mse_mean is None for r in fit.trace.records)

    def test_cv_ll_selection(self):
        _, fit = self._asg(selection="cv_ll")
        lls = [r.oos_loglik_mean for r in fit.trace.records]
        assert fit.trace.selected_step == int(np.argmax(lls))

    def test_surplus_criterion_runs(self):
        _, fit = self._asg(selection="aic", criterion="surplus")
        assert len(fit.trace.records) == 4

    def test_refined_points_recorded(self):
        _, fit = self._asg(selection="aic")
        for r in fit.trace.records[1:]:
            assert len(r.refined_points) == 1
            assert len(r.added_points) >= 1

    def test_max_level_respected(self):
        data = _data(n=60, d=1, seed=20)
        opts = RefineOptions(steps=10, selection="aic", max_level=2)
        fit = fit_asg(data, Domain.cube(1), 1, r_draws=300, refine_opts=opts)
        assert fit.trace.terminated_early
        assert max(max(p.levels) for p in fit.grid.points) <= 2

    def test_level_above_cap_rejected(self):
        data = _data(n=20, d=1, seed=21)
        with pytest.raises(ValueError, match="max_level"):
            fit_asg(data, Domain.cube(1), 4, refine_opts=RefineOptions(max_level=3))


class TestPredictProbabilities:
    def test_matches_design_product(self):
        data = _data(n=50, j=3, d=2, seed=22)
        domain = Domain.cube(2)
        fit = fit_sg(data, domain, 2, r_draws=400)
        draws = halton_draws(400, 2, domain=domain)
        design = build_design_matrix(data, draws, BasisSet(fit.grid, domain))
        direct = (design.Z @ fit.alpha).reshape(data.n_units, data.n_alts)
        via_density = predict_probabilities(fit, data)
        np.testing.assert_allclose(via_density, direct, atol=1e-10)


class TestFitSerialization:
    def test_sg_round_trip(self):
        data = _data(n=60, d=2, seed=23)
        fit = fit_sg(data, Domain.cube(2), 3, r_draws=500)
        blob = json.dumps(fit_to_json(fit))
        back = fit_from_json(json.loads(blob))
        np.testing.assert_array_equal(back.alpha, fit.alpha)
        np.testing.assert_array_equal(back.support, fit.support)
        np.testing.assert_allclose(back.density_at_draws, fit.density_at_draws, atol=1e-15)
        assert back.grid.points == fit.grid.points

    def test_fkrb_round_trip(self):
        data = _data(n=60, d=2, seed=24)
        fit = fit_fkrb(data, Domain.cube(2), 3)
        back = fit_from_json(json.loads(json.dumps(fit_to_json(fit))))
        np.testing.assert_array_equal(back.alpha, fit.alpha)
        np.testing.assert_array_equal(back.fixed_grid, fit.fixed_grid)

    def test_asg_round_trip_keeps_trace(self):
        data = _data(n=80, d=2, seed=25)
        opts = RefineOptions(steps=2, selection="cv_mse", k_folds=3)
        fit = fit_asg(data, Domain.cube(2), 2, r_draws=400, refine_opts=opts)
        back = fit_from_json(json.loads(json.dumps(fit_to_json(fit))))
        assert back.trace.selected_step == fit.trace.selected_step
        assert len(back.trace.records) == len(fit.trace.records)
        np.testing.assert_array_equal(back.alpha, fit.alpha)
        assert back.grid.points == fit.grid.points

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            fit_from_json({"schema_version": 2})
