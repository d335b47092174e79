import copy
import json
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparserc import estimator
from sparserc.basis import BasisSet, Domain, evaluate_basis_columns
from sparserc.choicemodel import UNIT_TILE, ChoiceDataset, DeadColumnError, build_design_matrix
from sparserc.clsolver import CLSProblem, NonConvergenceError, check_kkt, solve_cls
from sparserc.distribution import DiscreteDistribution
from sparserc.estimator import (
    RefineOptions,
    SolverOptions,
    _aic_value,
    _column_scores,
    _refinable_scores,
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
from sparserc.quasirand import DEFAULT_BURN_IN, halton_draws
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

    def test_holds_no_design_of_its_rows(self):
        # 10,000 units of 5 alternatives on 300 draws at level 3: the
        # (N * J, B) design, 6.8 MB, would be the largest array of the fit
        # (its traced peak is about 1.8 MB without it)
        data = _data(n=10000, j=5, d=2, seed=5)
        design_bytes = 8 * data.n_rows * len(build_classical_sparse_grid(2, 3))
        tracemalloc.start()
        try:
            fit = fit_sg(data, Domain.cube(2), 3, r_draws=300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.diagnostics["stop_reason"] == "converged"
        assert peak < design_bytes

    def test_dead_points_raise_naming_them(self):
        data = _data(n=40, d=2, seed=6)
        domain = Domain.cube(2)
        grid = build_classical_sparse_grid(2, 4)
        draws = halton_draws(6, 2, burn_in=DEFAULT_BURN_IN, domain=domain)
        mass = evaluate_basis_columns(grid.points, domain, draws).sum(axis=0)
        dead = [p for p, m in zip(grid.points, mass) if m <= 0.0]
        assert dead
        with pytest.raises(DeadColumnError) as err:
            fit_sg(data, domain, 4, r_draws=6)
        assert err.value.points == dead
        for p in dead:
            assert f"(levels={p.levels}, indices={p.indices})" in str(err.value)


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
        assert fit.diagnostics["stop_reason"] == "converged"
        assert fit.diagnostics["kkt_residual"] <= 1e-8

    def test_six_dim_three_point_grid(self):
        data = _data(n=200, j=5, d=6, seed=6)
        fit = fit_fkrb(data, Domain.cube(6), 3)
        assert fit.n_parameters == 729
        assert fit.density_at_draws.sum() == pytest.approx(1.0, abs=1e-8)
        assert fit.diagnostics["stop_reason"] == "converged"
        assert fit.diagnostics["kkt_residual"] <= 1e-8

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
        scores = _refinable_scores(fit.grid, _column_scores("surplus", fit.alpha))
        assert scores
        for p, v in scores.items():
            assert v == abs(float(fit.alpha[fit.grid.position(p)]))

    def test_local_error_zero_for_zero_coefficient(self):
        data, fit, draws, design = self._fitted()
        scores = _refinable_scores(
            fit.grid, _column_scores("local_error", fit.alpha, design, data.y_flat)
        )
        for p, v in scores.items():
            if fit.alpha[fit.grid.position(p)] == 0.0:
                assert v == 0.0

    def test_local_error_single_observation_hand_check(self):
        data, fit, draws, design = self._fitted()
        one = ChoiceDataset(data.x[:1], data.y[:1], data.unit_ids[:1])
        one_design = build_design_matrix(one, draws, design.basis)
        scores = _refinable_scores(
            fit.grid, _column_scores("local_error", fit.alpha, one_design, one.y_flat)
        )
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
        value = _aic_value(2.5, 10, 3)  # 10 rows, 3 parameters
        assert value == pytest.approx(10 * math.log(0.25) + 6, abs=1e-9)
        assert value == pytest.approx(-7.863, abs=1e-3)

    def test_extra_parameter_costs_two(self):
        data = _data(n=5, j=2, d=1, seed=12)
        fit = fit_asg(data, Domain.cube(1), 2, r_draws=200,
                      refine_opts=RefineOptions(steps=1, selection="aic"))
        record = fit.trace.records[fit.trace.selected_step]
        base = _aic_value(fit.diagnostics["ssr_raw"], data.n_rows, fit.n_parameters)
        assert record.aic == base
        assert _aic_value(fit.diagnostics["ssr_raw"], data.n_rows, fit.n_parameters + 1) == (
            pytest.approx(base + 2.0, abs=1e-9)
        )

    def test_zero_ssr_sentinel(self):
        with pytest.warns(UserWarning):
            assert _aic_value(0.0, 10, 3) < -1e200


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

    def test_each_id_keeps_its_own_entry(self):
        folds = fold_assignments([1.2, 1.7, 3.0, 4.0], 2)
        assert sorted(folds) == [1.2, 1.7, 3.0, 4.0]
        assert np.bincount(list(folds.values())).tolist() == [2, 2]


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

    def test_clamps_counted_under_loglik_only(self):
        # one coefficient far out makes each unit's choice near certain, so
        # outcomes the truth drew otherwise get probabilities below the clamp
        data = _data(n=30, j=3, d=2, seed=18)
        far = types.SimpleNamespace(support=np.array([[80.0, -80.0]]), density_at_draws=np.ones(1))
        assert kfold_cv(data, 3, lambda d: far, metric="loglik").n_clamped > 0
        assert kfold_cv(data, 3, lambda d: far, metric="mse").n_clamped == 0


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
        assert ll.n_clamped == asg.trace.n_clamped_loglik
        assert mse.n_clamped == 0

    def test_refinement_path_does_not_depend_on_selection(self):
        # fold refits never feed the full-data chain of grids and solves
        traces = {s: self._asg(selection=s)[1].trace.records for s in ("cv_mse", "cv_ll", "aic")}
        path = ("refined_points", "added_points", "n_parameters", "in_sample_mse", "aic")
        for records in traces.values():
            assert [[getattr(r, k) for k in path] for r in records] == [
                [getattr(r, k) for k in path] for r in traces["aic"]
            ]
        for a, b in zip(traces["cv_mse"], traces["cv_ll"]):
            assert a.oos_mse_folds == b.oos_mse_folds
            assert a.oos_loglik_folds == b.oos_loglik_folds

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


class _Recorder:
    """Stands in for a function of the ``estimator`` namespace (a solver
    entry point, a design builder) and records each call's arguments and
    result."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args, **kwargs):
        out = self.fn(*args, **kwargs)
        self.calls.append((args, kwargs, out))
        return out


def _record_solvers(monkeypatch):
    solo = _Recorder(estimator.solve_cls)
    stack = _Recorder(estimator.solve_cls_stack)
    monkeypatch.setattr(estimator, "solve_cls", solo)
    monkeypatch.setattr(estimator, "solve_cls_stack", stack)
    return solo, stack


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [50, 2 * UNIT_TILE + 3], ids=["one-tile", "partial-last-tile"])
def test_sg_problem_is_the_problem_of_the_rows(monkeypatch, dim, n):
    # the sg fit solves the Gram its sweep reduced; this forms it from the rows
    solo, _ = _record_solvers(monkeypatch)
    data = _data(n=n, j=3, d=dim, seed=40 + dim)
    domain = Domain.cube(dim)
    fit = fit_sg(data, domain, 3, r_draws=400 * dim)
    [((problem,), _, _)] = solo.calls
    design = build_design_matrix(data, fit.support, BasisSet(fit.grid, domain))
    direct = CLSProblem.from_rows(design.Z, data.y_flat, design.basis_at_draws, design.column_mass)
    assert problem.m == direct.m == data.n_rows
    for name in ("H", "b", "yy"):
        np.testing.assert_allclose(
            getattr(problem, name), getattr(direct, name), rtol=1e-13, atol=0.0
        )
    np.testing.assert_array_equal(problem.H, problem.H.T)
    np.testing.assert_array_equal(problem.c_eq, direct.c_eq)
    assert (problem.A_ineq != direct.A_ineq).nnz == 0


class TestFoldRefits:
    def test_every_fold_refit_is_certified(self, monkeypatch):
        _, stack = _record_solvers(monkeypatch)
        data = _data(n=120, j=3, d=2, seed=18)
        opts = RefineOptions(steps=3, selection="cv_mse", k_folds=3)
        fit_asg(data, Domain.cube(2), 2, r_draws=600, refine_opts=opts)
        assert len(stack.calls) == 4
        for (problems,), kwargs, sols in stack.calls:
            x0 = kwargs["x0"] or [None] * len(problems)
            for problem, a0, sol in zip(problems, x0, sols):
                assert sol.stop_reason == "converged"
                assert check_kkt(problem, sol)["stationarity"] <= 1e-8
                assert abs(problem.c_eq @ sol.alpha - 1.0) <= 1e-8
                assert (problem.A_ineq @ sol.alpha).min() >= -1e-8
                solo = solve_cls(problem, x0=a0)
                assert sol.iterations == solo.iterations
                np.testing.assert_allclose(sol.alpha, solo.alpha, rtol=0.0, atol=1e-12)

    def test_fold_problems_are_their_training_rows(self, monkeypatch):
        # the fit sums each fold's Gram terms; this builds every fold's problem
        # from its training rows of the design the fit solved at each step
        _, stack = _record_solvers(monkeypatch)
        designs = []
        for name in ("build_design_matrix", "incremental_columns"):
            designs.append(_Recorder(getattr(estimator, name)))
            monkeypatch.setattr(estimator, name, designs[-1])
        data = _data(n=120, j=3, d=2, seed=18)
        opts = RefineOptions(steps=2, selection="cv_mse", k_folds=3)
        fit_asg(data, Domain.cube(2), 2, r_draws=600, refine_opts=opts)
        steps = [out for recorder in designs for _, _, out in recorder.calls]
        assert len(steps) == len(stack.calls) == 3
        folds = list(estimator._folds(data, 3, opts.cv_seed))
        for design, ((problems,), _, sols) in zip(steps, stack.calls):
            for (train, _), problem, sol in zip(folds, problems, sols):
                rows = data.row_slice(train)
                direct = CLSProblem.from_rows(
                    design.Z[rows], data.y_flat[rows], design.basis_at_draws, design.column_mass
                )
                assert problem.m == direct.m == rows.size
                for name in ("H", "b", "yy"):
                    np.testing.assert_allclose(
                        getattr(problem, name), getattr(direct, name), rtol=1e-13, atol=0.0
                    )
                assert check_kkt(direct, sol)["stationarity"] <= 1e-8

    def test_warm_starts_follow_each_fold(self, monkeypatch):
        _, stack = _record_solvers(monkeypatch)
        data = _data(n=90, j=3, d=2, seed=26)
        opts = RefineOptions(steps=2, selection="cv_ll", k_folds=3)
        fit_asg(data, Domain.cube(2), 2, r_draws=500, refine_opts=opts)
        assert stack.calls[0][1]["x0"] is None
        for before, after in zip(stack.calls, stack.calls[1:]):
            for sol, warm in zip(before[2], after[1]["x0"]):
                n = sol.alpha.shape[0]
                np.testing.assert_array_equal(warm[:n], sol.alpha)
                assert not warm[n:].any()


class TestSolverEntryPoints:
    """``perfbench``'s tracer counts solves by wrapping ``estimator.solve_cls``;
    the fold refits reach the solver through ``estimator.solve_cls_stack``."""

    def test_asg_solves_full_data_alone_and_folds_stacked(self, monkeypatch):
        solo, stack = _record_solvers(monkeypatch)
        data = _data(n=80, d=2, seed=25)
        opts = RefineOptions(steps=2, selection="cv_mse", k_folds=3)
        fit = fit_asg(data, Domain.cube(2), 2, r_draws=400, refine_opts=opts)
        steps = len(fit.trace.records) - 1
        assert steps == 2
        assert len(solo.calls) == steps + 1
        assert [len(args[0]) for args, _, _ in stack.calls] == [3] * (steps + 1)

    def test_sg_solves_once(self, monkeypatch):
        solo, stack = _record_solvers(monkeypatch)
        fit_sg(_data(n=60, d=2, seed=1), Domain.cube(2), 2, r_draws=400)
        assert len(solo.calls) == 1
        assert stack.calls == []


class TestStopReason:
    def test_recorded_in_diagnostics_and_json(self):
        data = _data(n=60, d=2, seed=23)
        fit = fit_sg(data, Domain.cube(2), 2, r_draws=400)
        assert fit.diagnostics["stop_reason"] == "converged"
        back = fit_from_json(json.loads(json.dumps(fit_to_json(fit))))
        assert back.diagnostics["stop_reason"] == "converged"
        capped = fit_sg(
            data, Domain.cube(2), 2, r_draws=400,
            solver=SolverOptions(max_iter=3, strict=False),
        )
        assert capped.diagnostics["stop_reason"] == "iteration_cap"
        assert capped.diagnostics["warnings"] == ["nonconvergence: best iterate returned"]

    def test_strict_applies_to_each_problem_of_a_stack(self):
        data = _data(n=60, d=2, seed=23)
        design = build_design_matrix(
            data, halton_draws(400, 2, domain=Domain.cube(2)),
            BasisSet(build_classical_sparse_grid(2, 2), Domain.cube(2)),
        )
        rows = [np.arange(0, 90), np.arange(90, 180)]
        problems = [
            CLSProblem.from_rows(design.Z[r], data.y_flat[r], design.basis_at_draws,
                                 design.column_mass)
            for r in rows
        ]
        lenient = estimator._solve(
            estimator.solve_cls_stack, SolverOptions(max_iter=3, strict=False), problems
        )
        assert [s.stop_reason for s in lenient] == ["iteration_cap"] * 2
        assert all(s.warnings == ["nonconvergence: best iterate returned"] for s in lenient)
        with pytest.raises(NonConvergenceError, match=r"iteration cap \(max_iter=3\)$"):
            estimator._solve(estimator.solve_cls_stack, SolverOptions(max_iter=3), problems)


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

    def test_sg_round_trip_keeps_level_cap(self):
        data = _data(n=60, d=2, seed=23)
        fit = fit_sg(data, Domain.cube(2), 2, r_draws=400, max_level=2)
        obj = json.loads(json.dumps(fit_to_json(fit)))
        assert fit_from_json(obj).grid.max_level == 2
        # fit JSON that predates the recorded cap loads with the default one
        del obj["config"]["max_level"]
        assert fit_from_json(obj).grid.max_level == 5

    def test_fkrb_round_trip(self):
        data = _data(n=60, d=2, seed=24)
        fit = fit_fkrb(data, Domain.cube(2), 3)
        back = fit_from_json(json.loads(json.dumps(fit_to_json(fit))))
        np.testing.assert_array_equal(back.alpha, fit.alpha)
        np.testing.assert_array_equal(back.support, fit.support)

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

    @pytest.fixture(scope="class")
    def saved(self):
        data = _data(n=60, d=2, seed=23)
        opts = RefineOptions(steps=1, selection="aic")
        fits = {"sg": fit_sg(data, Domain.cube(2), 2, r_draws=300),
                "asg": fit_asg(data, Domain.cube(2), 1, r_draws=300, refine_opts=opts),
                "fkrb": fit_fkrb(data, Domain.cube(2), 3)}
        return {kind: json.loads(json.dumps(fit_to_json(fit))) for kind, fit in fits.items()}

    # each field a fit loads by is checked as its option is; a value of the
    # wrong type used to load as another fit (q, level) or raise a TypeError
    @pytest.mark.parametrize("kind, path, value, message", [
        ("fkrb", ("q",), 1.5, "fit config q must be a 64-bit integer >= 1, got 1.5"),
        ("sg", ("level",), "3", "fit config level must be a 64-bit integer >= 1, got '3'"),
        ("sg", ("max_level",), 2.0, "fit config max_level must be a 64-bit integer >= 1, got 2.0"),
        ("asg", ("refinement", "max_level"), 0,
         "fit config refinement max_level must be a 64-bit integer >= 1, got 0"),
        ("sg", ("draws",), [300], "fit config draws must be a JSON object, got [300]"),
        ("sg", ("draws", "r"), 300.5, "fit config draws r must be a 64-bit integer >= 1, got 300.5"),
        ("sg", ("draws", "burn_in"), True,
         "fit config draws burn_in must be a 64-bit integer >= 0, got True"),
        # a 64-bit burn-in whose last point index overflows
        ("sg", ("draws", "burn_in"), 2**63 - 1,
         "burn_in must be <= 9223372036854775507 for 300 draws, got 9223372036854775807"),
    ], ids=["q", "level", "max_level", "refinement-max_level", "draws", "draws-r",
            "draws-burn_in", "draws-burn_in-int64-max"])
    def test_config_field_checked_as_its_option(self, saved, kind, path, value, message):
        obj = copy.deepcopy(saved[kind])
        target = obj["config"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            fit_from_json(obj)

    @pytest.mark.parametrize("kind, key, value, message", [
        ("sg", "grid", 3, "grid must be a list of points with levels and indices: TypeError"),
        ("sg", "grid", [{"levels": [1.0, 1], "indices": [1, 1]}],
         "grid levels and indices must be integers"),
        ("asg", "trace", {"records": 2, "selected_step": 0},
         "fit trace is malformed: 'int' object is not iterable"),
        ("sg", "alpha", {"a": 1}, "fit alpha must hold finite numbers, got {'a': 1}"),
        ("sg", "config", {"domain": [0.0]}, "fit config domain must be a JSON object"),
        ("sg", "config", {"domain": {"lower": [-4.0, -4.0], "upper": [4.0, math.inf]}},
         "fit config domain upper must hold finite numbers, got [4.0, inf]"),
        ("asg", "trace", {"records": []}, "fit trace lacks selected_step"),
    ], ids=["grid", "grid-entry", "trace", "alpha", "domain", "domain-inf", "trace-key"])
    def test_malformed_value_names_its_key(self, saved, kind, key, value, message):
        obj = copy.deepcopy(saved[kind])
        obj[key] = value
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            fit_from_json(obj)


@st.composite
def _tiny_fit(draw):
    """A call that fits a random small sg, asg or fkrb configuration on
    simulated data."""
    kind = draw(st.sampled_from(["sg", "asg", "fkrb"]))
    dim, n, j = draw(st.integers(1, 2)), draw(st.integers(6, 40)), draw(st.integers(1, 3))
    data = _data(n=n, j=j, d=dim, seed=draw(st.integers(0, 2**32 - 1)))
    domain = Domain.cube(dim)
    if kind == "fkrb":
        q = draw(st.integers(1, 7).filter(lambda q: q**dim <= n * j))
        return lambda: fit_fkrb(data, domain, q)
    r = draw(st.integers(100, 300))
    if kind == "sg":
        level = draw(st.integers(1, 3))
        return lambda: fit_sg(data, domain, level, r_draws=r)
    opts = RefineOptions(
        steps=draw(st.integers(0, 3)),
        points_per_step=draw(st.integers(1, 2)),
        criterion=draw(st.sampled_from(["surplus", "local_error"])),
        selection=draw(st.sampled_from(["cv_mse", "cv_ll", "aic"])),
        k_folds=draw(st.integers(2, 3)),
    )
    level = draw(st.integers(1, 2))
    return lambda: fit_asg(data, domain, level, r_draws=r, refine_opts=opts)


@settings(max_examples=25)
@given(make_fit=_tiny_fit())
def test_pipeline_contracts_hold_on_random_configs(make_fit):
    """Every fit, whatever its estimator and size, keeps the library's
    contracts, and so does every solve behind it: each refinement step's
    full-data solve and every fold refit, not only the selected one."""
    solutions = []

    def recording(solve):
        def wrapper(*args, **kwargs):
            out = solve(*args, **kwargs)
            solutions.extend(out if isinstance(out, list) else [out])
            return out
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("solve_cls", "solve_cls_stack", "solve_simplex_cls"):
            mp.setattr(estimator, name, recording(getattr(estimator, name)))
        fit = make_fit()
    back = fit_from_json(json.loads(json.dumps(fit_to_json(fit))))
    np.testing.assert_array_equal(back.density_at_draws, fit.density_at_draws)
    assert abs(fit.density_at_draws.sum() - 1.0) <= 1e-8
    assert fit.density_at_draws.min() >= -1e-8
    assert fit.diagnostics["kkt_residual"] <= 1e-8
    assert solutions
    for sol in solutions:
        assert sol.stop_reason == "converged"
        assert sol.kkt_residual <= 1e-8
        assert abs(sol.eq_violation) <= 1e-10
        assert sol.max_ineq_violation <= 1e-8


@settings(max_examples=15)
@given(
    dim=st.integers(1, 2),
    n=st.integers(6, 2 * UNIT_TILE + 64),
    j=st.integers(1, 3),
    level=st.integers(1, 3),
    r=st.integers(100, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_sg_fit_does_not_depend_on_unit_order(dim, n, j, level, r, seed):
    """Permuting the units leaves an sg fit unchanged to 1e-9 in every
    weight and density value.  Not bit for bit: a unit's design row can
    differ in the last bits with its place in the ``gemm`` of its unit tile
    and the solver's row chunks, and the interior point carries that into
    the last digits of the solution.  Over 40 random configurations of up to
    1,200 units, most of them past one unit tile, the largest change was
    4.7e-12 in a weight, with equal iteration counts."""
    data = _data(n=n, j=j, d=dim, seed=seed)
    perm = np.random.default_rng(seed).permutation(n)
    fit = fit_sg(data, Domain.cube(dim), level, r_draws=r)
    permuted = fit_sg(data.subset(perm), Domain.cube(dim), level, r_draws=r)
    np.testing.assert_allclose(permuted.alpha, fit.alpha, rtol=0, atol=1e-9)
    np.testing.assert_allclose(permuted.density_at_draws, fit.density_at_draws, rtol=0, atol=1e-9)


class TestFitResultContracts:
    @pytest.mark.parametrize("field", ["alpha", "density_at_draws"])
    def test_nan_fit_rejected(self, field):
        fit = fit_fkrb(_data(n=60, d=2, seed=24), Domain.cube(2), 3)
        arrays = {"alpha": fit.alpha.copy(), "density_at_draws": fit.density_at_draws.copy()}
        arrays[field][0] = np.nan
        with pytest.raises(ValueError):
            estimator.FitResult(
                kind=fit.kind, domain=fit.domain, support=fit.support,
                diagnostics=fit.diagnostics, config=fit.config, **arrays,
            )


    @pytest.mark.parametrize(
        "weights", [[1.0, np.nan, 0.0], [1.001, -1e-3, 0.0], [0.6, 0.3, 0.0]],
        ids=["nan", "below-floor", "mass"],
    )
    def test_bad_density_raises_the_distribution_message(self, weights):
        fit = fit_fkrb(_data(n=60, d=1, seed=24), Domain.cube(1), 3)
        with pytest.raises(ValueError) as expected:
            DiscreteDistribution(support=fit.support, weights=np.array(weights))
        with pytest.raises(ValueError) as got:
            estimator.FitResult(
                kind=fit.kind, domain=fit.domain, alpha=fit.alpha, support=fit.support,
                density_at_draws=np.array(weights), diagnostics=fit.diagnostics,
                config=fit.config,
            )
        assert str(got.value) == str(expected.value)


class TestOptionChecks:
    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (SolverOptions, "tol", 0.0),
            (SolverOptions, "tol", -1.0),
            (SolverOptions, "tol", float("nan")),
            (SolverOptions, "tol", "1e-8"),
            (SolverOptions, "tol", 10**400),
            (SolverOptions, "max_iter", 0),
            (SolverOptions, "max_iter", 10.0),
            (SolverOptions, "max_iter", True),
            (SolverOptions, "max_iter", 2**63),
            (SolverOptions, "strict", 1),
            (RefineOptions, "steps", -1),
            (RefineOptions, "points_per_step", 0),
            (RefineOptions, "k_folds", 1),
            (RefineOptions, "max_level", 0),
            (RefineOptions, "cv_seed", -1),
            (RefineOptions, "criterion", "largest"),
            (RefineOptions, "selection", None),
        ],
    )
    def test_bad_value_names_its_field(self, cls, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            cls(**{field: value})

    def test_numbers_stored_as_python_numbers(self):
        opts = SolverOptions(tol=np.float32(1e-6), max_iter=np.int64(50))
        assert type(opts.tol) is float
        assert type(opts.max_iter) is int and opts.max_iter == 50
        assert type(RefineOptions(k_folds=np.int32(3)).k_folds) is int

    def test_defaults_come_from_the_layers(self):
        from sparserc.clsolver import DEFAULT_MAX_ITER, DEFAULT_TOL
        from sparserc.hiergrid import DEFAULT_MAX_LEVEL

        assert SolverOptions().tol == DEFAULT_TOL
        assert SolverOptions().max_iter == DEFAULT_MAX_ITER
        assert RefineOptions().max_level == DEFAULT_MAX_LEVEL
