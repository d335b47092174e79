import csv
import json
import math

import numpy as np
import pytest

from sparserc.choicemodel import logit_kernel
from sparserc.distribution import ise
from sparserc.estimator import RefineOptions
from sparserc.simulate import (
    McConfig,
    MixtureComponent,
    MixtureDgp,
    dgp_from_json,
    dgp_to_json,
    four_normal_mixture,
    make_dataset,
    report_to_json,
    run_experiment,
    simulate_choices,
    two_normal_mixture,
    write_table_csv,
)


class TestMixtureDgp:
    @pytest.mark.parametrize("make", [two_normal_mixture, four_normal_mixture])
    @pytest.mark.parametrize("dim", [2, 6])
    def test_sample_equals_one_gathered_transform_bit_for_bit(self, make, dim):
        # the draws once came from one einsum over the whole call, with every
        # draw's Cholesky factor gathered; the sample is taken in slices
        dgp = make(dim)
        n = 3 * 4096 + 17
        rng = np.random.default_rng(0)
        weights = np.array([c.weight for c in dgp.components])
        which = rng.choice(len(dgp.components), size=n, p=weights)
        z = rng.standard_normal((n, dim))
        chols = np.stack([np.linalg.cholesky(c.cov) for c in dgp.components])
        means = np.stack([c.mean for c in dgp.components])
        expected = means[which] + np.einsum("nij,nj->ni", chols[which], z)
        assert np.array_equal(dgp.sample(n, np.random.default_rng(0)), expected)

    def test_two_normal_parameters(self):
        dgp = two_normal_mixture(3)
        means = [c.mean for c in dgp.components]
        np.testing.assert_allclose(means[0], -1.5)
        np.testing.assert_allclose(means[1], 1.5)
        cov = dgp.components[0].cov
        np.testing.assert_allclose(np.diag(cov), 0.4)
        assert cov[0, 1] == 0.1

    def test_four_normal_parameters(self):
        dgp = four_normal_mixture(2)
        means = sorted(c.mean[0] for c in dgp.components)
        np.testing.assert_allclose(means, [-2.5, -0.8, 0.8, 2.5])
        cov = dgp.components[0].cov
        np.testing.assert_allclose(np.diag(cov), 0.1)
        assert cov[0, 1] == pytest.approx(0.025)
        assert all(c.weight == 0.25 for c in dgp.components)

    def test_rejects_non_spd_covariance(self):
        with pytest.raises(np.linalg.LinAlgError):
            MixtureComponent(1.0, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize(
        "field, weight, mean, cov",
        [
            ("weight", "1", [0.0], [[1.0]]),
            ("weight", float("nan"), [0.0], [[1.0]]),
            ("weight", True, [0.0], [[1.0]]),
            ("mean", 1.0, [0.0, None], np.eye(2)),
            ("mean", 1.0, [0.0, float("inf")], np.eye(2)),
            ("mean", 1.0, [0.0, [1.0]], np.eye(2)),
            ("cov", 1.0, [0.0, 0.0], [[1.0, float("nan")], [0.0, 1.0]]),
            ("cov", 1.0, [0.0], [["1"]]),
        ],
        ids=["weight-string", "weight-nan", "weight-bool", "mean-null", "mean-inf",
             "mean-ragged", "cov-nan", "cov-string"],
    )
    def test_rejects_non_finite_or_non_numeric_field(self, field, weight, mean, cov):
        with pytest.raises(ValueError, match=f"^component {field} must hold finite numbers"):
            MixtureComponent(weight, mean, cov)

    def test_rejects_bad_weights(self):
        comp = MixtureComponent(0.6, np.zeros(1), np.eye(1))
        with pytest.raises(ValueError, match="sum"):
            MixtureDgp(components=(comp, comp))

    def test_json_round_trip(self):
        dgp = four_normal_mixture(3)
        back = dgp_from_json(json.loads(json.dumps(dgp_to_json(dgp))))
        for a, b in zip(dgp.components, back.components):
            assert a.weight == b.weight
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.cov, b.cov)


class TestDrawCoefficients:
    def test_degenerate_component(self):
        dgp = MixtureDgp(
            components=(MixtureComponent(1.0, np.array([2.0, -1.0]), np.eye(2) * 1e-18),)
        )
        draws = dgp.sample(100, np.random.default_rng(0))
        np.testing.assert_allclose(draws, np.tile([2.0, -1.0], (100, 1)), atol=1e-6)

    def test_symmetric_means_average_to_zero(self):
        dgp = two_normal_mixture(2)
        draws = dgp.sample(1_000_000, np.random.default_rng(1))
        # per-dimension variance is 0.4 + 1.5^2, so 3 SE is ~0.0049
        se = np.sqrt((0.4 + 1.5**2) / 1_000_000)
        assert np.abs(draws.mean(axis=0)).max() < 3 * se

    def test_component_covariance_recovered(self):
        comp = two_normal_mixture(3).components[0]
        dgp = MixtureDgp(components=(MixtureComponent(1.0, comp.mean, comp.cov),))
        draws = dgp.sample(1_000_000, np.random.default_rng(2))
        cov = np.cov(draws.T)
        # moment SEs at this sample size are below 0.002
        np.testing.assert_allclose(cov, comp.cov, atol=0.006)

    def test_coverage_of_estimation_box(self):
        for dgp in (two_normal_mixture(2), four_normal_mixture(2)):
            draws = dgp.sample(1_000_000, np.random.default_rng(3))
            inside = (np.abs(draws) <= 4.0).all(axis=1).mean()
            assert inside >= 0.998


class TestSimulateChoices:
    def test_zero_coefficients_uniform_choice(self):
        rng = np.random.default_rng(4)
        data = simulate_choices(np.zeros((120_000, 2)), 5, rng)
        freq_inside = data.y.mean(axis=0)
        se = np.sqrt((1 / 6) * (5 / 6) / 120_000)
        np.testing.assert_allclose(freq_inside, 1 / 6, atol=3 * se)
        outside = 1 - data.y.sum(axis=1).mean()
        assert outside == pytest.approx(1 / 6, abs=3 * se)

    def test_dominant_alternative_saturates(self):
        rng = np.random.default_rng(5)
        betas = np.ones((4000, 1))
        data = simulate_choices(betas, 3, rng)
        data.x[:, 0, 0] += 10.0
        util = data.x[:, :, 0]  # beta = 1
        assert (util.argmax(axis=1) == 0).mean() > 0.99

    def test_gumbel_race_matches_logit_probabilities(self):
        # fixed covariates and coefficient: empirical choice frequencies
        # match the analytic kernel within Monte Carlo error
        rng = np.random.default_rng(6)
        x_row = rng.normal(size=(3, 2))
        beta = np.array([0.8, -0.5])
        n = 1_000_000
        g = logit_kernel(x_row, beta)
        u = x_row @ beta + rng.gumbel(size=(n, 3))
        u0 = rng.gumbel(size=n)
        winner = np.argmax(np.column_stack([u, u0]), axis=1)
        freq = np.bincount(winner, minlength=4)[:3] / n
        se = np.sqrt(g * (1 - g) / n)
        assert (np.abs(freq - g) <= 3 * se + 1e-12).all()

    def test_outside_option_rows_all_zero(self):
        rng = np.random.default_rng(7)
        data = simulate_choices(np.zeros((5000, 1)), 2, rng)
        outside = data.y.sum(axis=1) == 0
        assert outside.any()
        assert (data.y.sum(axis=1)[~outside] == 1).all()


def _tiny_config(**kwargs):
    base = dict(
        dgp=two_normal_mixture(2),
        n_units=120,
        replicates=2,
        seed=77,
        sg_levels=(2,),
        r_draws=300,
        truth_samples=100_000,
        workers=1,
    )
    base.update(kwargs)
    return McConfig(**base)


class TestRunExperiment:
    def test_single_replicate_report_shape(self):
        report = run_experiment(_tiny_config(replicates=1))
        assert len(report.runs) == 1
        run = report.runs[0]
        assert run.kind == "sg"
        assert run.parameters == [5]
        assert len(run.ise) == 1
        assert run.rmise is not None and np.isfinite(run.rmise)

    def test_same_seed_identical_reports(self):
        a = report_to_json(run_experiment(_tiny_config()))
        b = report_to_json(run_experiment(_tiny_config()))
        assert a == b

    def test_worker_count_does_not_change_results(self):
        serial = report_to_json(run_experiment(_tiny_config()))
        parallel = report_to_json(run_experiment(_tiny_config(workers=2)))
        assert serial == parallel

    def test_multiple_estimators_and_table(self, tmp_path):
        report = run_experiment(_tiny_config(fkrb_q=(3,)))
        assert {r.kind for r in report.runs} == {"sg", "fkrb"}
        path = tmp_path / "table.csv"
        write_table_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("n_units,level,fkrb_parameters")
        assert len(lines) == 2  # q=3 pairs with level 2

    def test_table_bytes_match_csv_writer_rows(self, tmp_path):
        # q=3 pairs with level 2, q=5 has no level and sg level 3 no q: a
        # labelled row and empty cells
        report = run_experiment(_tiny_config(replicates=1, sg_levels=(2, 3), fkrb_q=(3, 5)))
        write_table_csv(report, tmp_path / "fast.csv")
        # the writer it replaced
        rows: dict = {}
        for run in report.runs:
            q_level = math.log2(run.setting + 1)
            lab = (run.setting if run.kind in ("sg", "asg")
                   else int(q_level) if q_level.is_integer() else f"q{run.setting}")
            rows.setdefault((report.config["n_units"], lab), {})[run.kind] = run
        with open(tmp_path / "rows.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["n_units", "level", "fkrb_parameters", "sg_parameters", "asg_parameters",
                 "fkrb_rmise", "sg_rmise", "asg_rmise"]
            )
            for (n, lab), by_kind in sorted(rows.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
                def cell(kind, attr):
                    run = by_kind.get(kind)
                    if run is None:
                        return ""
                    v = getattr(run, attr)
                    return "" if v is None else repr(v)

                writer.writerow(
                    [n, lab,
                     cell("fkrb", "mean_parameters"), cell("sg", "mean_parameters"),
                     cell("asg", "mean_parameters"), cell("fkrb", "rmise"),
                     cell("sg", "rmise"), cell("asg", "rmise")]
                )
        text = (tmp_path / "fast.csv").read_text()
        assert ",q5," in text and ",," in text
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_report_json_round_trip(self):
        report = run_experiment(_tiny_config())
        obj = report_to_json(report)
        assert json.loads(json.dumps(obj)) == obj
        assert obj["runs"][0]["rmise"] == report.runs[0].rmise

    def test_every_lattice_point_is_scored(self):
        report = run_experiment(_tiny_config(replicates=1, eval_points_per_dim=4))
        assert report.eval_points == 4**2
        assert "eval_subsample" not in report_to_json(report)["config"]
        with pytest.raises(TypeError, match="eval_subsample"):
            _tiny_config(eval_subsample=20)

    def test_failed_replicates_flagged(self):
        from sparserc.estimator import SolverOptions

        # one solver iteration cannot converge: every replicate must fail
        # loudly in the report rather than vanish
        cfg = _tiny_config(solver=SolverOptions(max_iter=1))
        report = run_experiment(cfg)
        run = report.runs[0]
        assert run.n_failed == 2
        assert run.success_rate == 0.0
        assert run.rmise is None
        assert all("NonConvergenceError" in e for e in run.errors)

    def test_rmise_matches_definition(self):
        report = run_experiment(_tiny_config())
        zeros = np.zeros(report.eval_points)
        ises = [ise(np.full(report.eval_points, np.sqrt(i)), zeros) for i in (1, 2)]
        # rmise of constant per-replicate errors sqrt(1), sqrt(2) is sqrt(1.5)
        assert np.sqrt(np.mean(ises)) == pytest.approx(np.sqrt(1.5), abs=1e-12)
        run = report.runs[0]
        assert run.rmise == pytest.approx(np.sqrt(np.mean(run.ise)), abs=1e-15)

    def test_no_estimators_rejected(self):
        with pytest.raises(ValueError, match="no estimators"):
            run_experiment(_tiny_config(sg_levels=()))


class TestMakeDataset:
    def test_shapes(self):
        data = make_dataset(two_normal_mixture(2), 50, 4, np.random.default_rng(8))
        assert data.x.shape == (50, 4, 2)
        assert data.y.shape == (50, 4)


class TestMcConfigChecks:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_units", 0), ("replicates", 0), ("n_alts", 0), ("seed", -1),
            ("r_draws", 0), ("burn_in", -1), ("eval_points_per_dim", 0),
            ("workers", -1), ("truth_samples", 0), ("workers", 0),
            ("n_units", 10.0), ("replicates", True), ("truth_samples", "100"),
            ("n_units", 10**400), ("replicates", 2**63),
            ("sg_levels", (0,)), ("sg_levels", (2.0,)), ("fkrb_q", 3),
            ("solver", {"tol": 1e-8}), ("dgp", None),
            # above refine.max_level (5), or more fkrb points than the 600 rows
            ("sg_levels", (6,)), ("asg_levels", (2, 6)), ("fkrb_q", (25,)),
        ],
    )
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}"):
            _tiny_config(**{field: value})

    def test_more_folds_than_units_rejected_under_cv(self):
        with pytest.raises(ValueError, match=r"^refine\.k_folds must be <= n_units = 4"):
            _tiny_config(n_units=4, asg_levels=(1,), refine=RefineOptions(k_folds=5))
        # AIC selection makes no folds, and neither does a config without asg
        _tiny_config(n_units=4, asg_levels=(1,), refine=RefineOptions(k_folds=5, selection="aic"))
        _tiny_config(n_units=4, refine=RefineOptions(k_folds=5))

    def test_lists_and_numpy_ints_normalized(self):
        config = _tiny_config(sg_levels=[np.int64(2)], n_units=np.int32(50))
        assert config.sg_levels == (2,) and type(config.sg_levels[0]) is int
        assert type(config.n_units) is int

    def test_none_keeps_its_meaning(self):
        config = _tiny_config(r_draws=None, workers=None)
        assert config.r_draws is None and config.workers is None
