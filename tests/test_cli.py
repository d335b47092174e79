import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparserc import cli, quasirand
from sparserc.basis import Domain
from sparserc.choicemodel import read_dataset_csv
from sparserc.cli import EXIT_OK, EXIT_USAGE, main
from sparserc.distribution import (
    DiscreteDistribution,
    ise,
    joint_cdf,
    joint_cdf_lattice,
    lattice_points,
    marginal_cdf,
    mixture_cdf_lattice,
)
from sparserc.estimator import fit_from_json
from sparserc.simulate import dgp_from_json, dgp_to_json, two_normal_mixture


# one valid mixture component, for configs that spell out their dgp
UNIT_NORMAL = {"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}


def write_config(path, obj):
    obj = {"schema_version": 1, **obj}
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def simulated(tmp_path):
    cfg = write_config(
        tmp_path / "sim.json",
        {
            "preset": "two-normals-d2",
            "n_units": 80,
            "n_alts": 3,
            "seed": 5,
            "out_data": str(tmp_path / "data.csv"),
            "out_truth": str(tmp_path / "truth.json"),
        },
    )
    assert main(["simulate", cfg]) == EXIT_OK
    return tmp_path


@pytest.fixture
def fitted(simulated):
    cfg = write_config(
        simulated / "est.json",
        {"estimator": "sg", "level": 2, "draws": {"r": 300}},
    )
    out = simulated / "fit.json"
    assert main(["estimate", cfg, str(simulated / "data.csv"), "--out", str(out)]) == EXIT_OK
    return simulated


def read_table(path):
    """A CSV the CLI wrote, without its header, as a 2-D array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestSimulateCommand:
    def test_writes_parseable_outputs(self, simulated):
        data = read_dataset_csv(simulated / "data.csv")
        assert data.n_units == 80
        assert data.n_alts == 3
        assert data.dim == 2
        truth = json.loads((simulated / "truth.json").read_text())
        assert truth["schema_version"] == 1
        assert len(truth["dgp"]["components"]) == 2

    def test_byte_identical_on_same_seed(self, tmp_path):
        out = []
        for tag in ("a", "b"):
            cfg = write_config(
                tmp_path / f"sim_{tag}.json",
                {
                    "preset": "two-normals-d2",
                    "n_units": 30,
                    "seed": 9,
                    "out_data": str(tmp_path / f"data_{tag}.csv"),
                    "out_truth": str(tmp_path / f"truth_{tag}.json"),
                },
            )
            assert main(["simulate", cfg]) == EXIT_OK
            out.append((tmp_path / f"data_{tag}.csv").read_bytes())
        assert out[0] == out[1]

    def test_four_component_preset_means(self, tmp_path):
        cfg = write_config(
            tmp_path / "sim.json",
            {
                "preset": "four-normals-d4",
                "n_units": 10,
                "seed": 1,
                "out_data": str(tmp_path / "d.csv"),
                "out_truth": str(tmp_path / "t.json"),
            },
        )
        assert main(["simulate", cfg]) == EXIT_OK
        truth = json.loads((tmp_path / "t.json").read_text())
        comps = truth["dgp"]["components"]
        assert len(comps) == 4
        means = sorted(c["mean"][0] for c in comps)
        assert means == [-2.5, -0.8, 0.8, 2.5]
        assert all(len(c["mean"]) == 4 for c in comps)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "sim.json", {"preset": "two-normals-d2", "bogus": 1})
        assert main(["simulate", cfg]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "key, value", [("n_units", 0), ("n_alts", 2.5), ("seed", True), ("n_units", 10**400)]
    )
    def test_bad_count_exits_one_naming_it(self, tmp_path, capsys, key, value):
        out = tmp_path / "d.csv"
        cfg = write_config(
            tmp_path / "sim.json",
            {"preset": "two-normals-d2", key: value, "out_data": str(out),
             "out_truth": str(tmp_path / "t.json")},
        )
        assert main(["simulate", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("out_data", 0), ("out_truth", True)])
    def test_output_path_must_be_a_file_name(self, tmp_path, capsys, key, value):
        # an integer (a bool too) would name an open file descriptor
        config = {"preset": "two-normals-d2", "n_units": 20, "out_data": str(tmp_path / "d.csv"),
                  "out_truth": str(tmp_path / "t.json"), key: value}
        assert main(["simulate", write_config(tmp_path / "sim.json", config)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {key} must be a string, got {value!r}\n"
        assert not (tmp_path / "d.csv").exists()

    def test_non_finite_mixture_mean_exits_one_naming_it(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        dgp = {"components": [{"weight": 1.0, "mean": [0.0, None], "cov": [[1, 0], [0, 1]]}]}
        cfg = write_config(
            tmp_path / "sim.json",
            {"dgp": dgp, "n_units": 200, "out_data": str(out),
             "out_truth": str(tmp_path / "t.json")},
        )
        assert main(["simulate", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "component mean must hold finite numbers" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "dgp, message",
        [
            ([1], "dgp must be a JSON object, got [1]"),
            ({}, "dgp lacks components"),
            ({"components": {"weight": 1.0}}, "dgp components must be a list, got {'weight': 1.0}"),
            ({"components": [1]}, "dgp component 0 must be a JSON object, got 1"),
            ({"components": [UNIT_NORMAL], "bogus": 1}, "unknown keys in dgp: bogus"),
            ({"components": [{**UNIT_NORMAL, "weight": 0.5}, {**UNIT_NORMAL, "skew": 0}]},
             "unknown keys in dgp component 1: skew"),
            ({"components": [{"weight": 1.0, "mean": [0.0]}]}, "dgp component 0 lacks cov"),
        ],
        ids=["list", "empty", "components-object", "component-int", "dgp-key",
             "component-key", "missing-cov"],
    )
    def test_malformed_dgp_exits_one_naming_the_field(self, tmp_path, capsys, dgp, message):
        out = tmp_path / "d.csv"
        cfg = write_config(
            tmp_path / "sim.json",
            {"dgp": dgp, "n_units": 20, "out_data": str(out),
             "out_truth": str(tmp_path / "t.json")},
        )
        assert main(["simulate", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: invalid dgp: {message}\n"
        assert not out.exists()

    def test_missing_schema_version(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"preset": "two-normals-d2"}))
        assert main(["simulate", str(path)]) == EXIT_USAGE

    def test_unknown_preset(self, tmp_path):
        cfg = write_config(tmp_path / "sim.json", {"preset": "five-normals-d2"})
        assert main(["simulate", cfg]) == EXIT_USAGE


class TestEstimateCommand:
    def test_sg_parameter_count_and_fit_json(self, simulated):
        cfg = write_config(
            simulated / "est.json",
            {"estimator": "sg", "level": 3, "draws": {"r": 400, "burn_in": 10}},
        )
        out = simulated / "fit.json"
        code = main(["estimate", cfg, str(simulated / "data.csv"), "--out", str(out)])
        assert code == EXIT_OK
        fit = fit_from_json(json.loads(out.read_text()))
        assert fit.n_parameters == 17
        assert fit.kind == "sg"

    def test_fkrb_parameter_count(self, simulated):
        cfg = write_config(simulated / "est.json", {"estimator": "fkrb", "q": 7})
        out = simulated / "fit_fkrb.json"
        assert main(["estimate", cfg, str(simulated / "data.csv"), "--out", str(out)]) == EXIT_OK
        fit = fit_from_json(json.loads(out.read_text()))
        assert fit.n_parameters == 49

    def test_asg_zero_steps_matches_sg(self, simulated):
        sg_cfg = write_config(
            simulated / "sg.json",
            {"estimator": "sg", "level": 2, "draws": {"r": 300}},
        )
        asg_cfg = write_config(
            simulated / "asg.json",
            {
                "estimator": "asg",
                "level": 2,
                "draws": {"r": 300},
                "refinement": {"steps": 0, "selection": "aic"},
            },
        )
        sg_out = simulated / "sg_fit.json"
        asg_out = simulated / "asg_fit.json"
        assert main(["estimate", sg_cfg, str(simulated / "data.csv"), "--out", str(sg_out)]) == EXIT_OK
        assert main(["estimate", asg_cfg, str(simulated / "data.csv"), "--out", str(asg_out)]) == EXIT_OK
        sg = json.loads(sg_out.read_text())
        asg = json.loads(asg_out.read_text())
        assert sg["alpha"] == asg["alpha"]

    def test_weights_csv(self, simulated):
        cfg = write_config(
            simulated / "est.json",
            {"estimator": "sg", "level": 2, "draws": {"r": 300}},
        )
        weights = simulated / "weights.csv"
        assert (
            main(
                ["estimate", cfg, str(simulated / "data.csv"),
                 "--out", str(simulated / "f.json"), "--weights-csv", str(weights)]
            )
            == EXIT_OK
        )
        table = read_table(weights)
        assert weights.read_text().splitlines()[0] == "beta_1,beta_2,weight"
        assert table.shape == (300, 3)
        assert table[:, 2].sum() == pytest.approx(1.0, abs=1e-8)

    def test_fkrb_requires_q(self, simulated):
        cfg = write_config(simulated / "est.json", {"estimator": "fkrb"})
        assert main(["estimate", cfg, str(simulated / "data.csv")]) == EXIT_USAGE

    def test_unknown_estimator(self, simulated):
        cfg = write_config(simulated / "est.json", {"estimator": "ols"})
        assert main(["estimate", cfg, str(simulated / "data.csv")]) == EXIT_USAGE

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"estimator": "sg", "level": 2})
        bad = tmp_path / "bad.csv"
        bad.write_text("unit_id,alt_id,chosen,x_1\n0,1,0,0.5\n0,2,oops,0.1\n")
        assert main(["estimate", cfg, str(bad)]) == EXIT_USAGE
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, expected",
        [("", "unexpected header []"), ("unit_id,alt_id,chosen,x_1\n", "no data rows")],
        ids=["zero-byte", "header-only"],
    )
    def test_empty_csv_exits_one_naming_it(self, tmp_path, capsys, content, expected):
        cfg = write_config(tmp_path / "est.json", {"estimator": "sg", "level": 2})
        empty = tmp_path / "empty.csv"
        empty.write_text(content)
        code = main(["estimate", cfg, str(empty), "--out", str(tmp_path / "fit.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {empty}: {expected}\n"
        assert not (tmp_path / "fit.json").exists()

    def test_regrouped_unit_exits_one_naming_its_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"estimator": "sg", "level": 2})
        bad = tmp_path / "bad.csv"
        bad.write_text("unit_id,alt_id,chosen,x_1\n1,1,0,0.5\n2,1,1,0.1\n1,1,1,0.3\n")
        code = main(["estimate", cfg, str(bad), "--out", str(tmp_path / "fit.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {bad}: line 4: unit 1 reappears: rows must be grouped by unit\n"
        )
        assert not (tmp_path / "fit.json").exists()

    def test_unit_with_fewer_alternatives_exits_one_naming_its_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"estimator": "sg", "level": 2})
        bad = tmp_path / "bad.csv"
        bad.write_text("unit_id,alt_id,chosen,x_1\n0,1,0,0.5\n0,2,1,0.1\n1,1,1,0.3\n"
                       "2,1,0,0.2\n2,2,1,0.4\n")
        code = main(["estimate", cfg, str(bad), "--out", str(tmp_path / "fit.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {bad}: line 4: unit 1 has 1 alternatives, expected 2\n"
        )
        assert not (tmp_path / "fit.json").exists()

    def test_nonconvergence_exits_with_warning_code(self, simulated, capsys):
        cfg = write_config(
            simulated / "est.json",
            {
                "estimator": "sg",
                "level": 2,
                "draws": {"r": 300},
                "solver": {"max_iter": 1},
            },
        )
        out = simulated / "fit_warn.json"
        code = main(["estimate", cfg, str(simulated / "data.csv"), "--out", str(out)])
        assert code == 2
        assert "nonconvergence" in capsys.readouterr().err
        fit = fit_from_json(json.loads(out.read_text()))  # best iterate still usable
        assert fit.n_parameters == 5


class TestEvaluateCommand:
    def test_outputs_parse_and_are_consistent(self, fitted):
        code = main(
            ["evaluate", str(fitted / "fit.json"),
             "--truth", str(fitted / "truth.json"),
             "--truth-samples", "100000",
             "--out-cdf", str(fitted / "cdf.csv"),
             "--out-marginals", str(fitted / "marg.csv"),
             "--out-summary", str(fitted / "summary.json")]
        )
        assert code == EXIT_OK
        assert (fitted / "cdf.csv").read_text().splitlines()[0] == "beta_1,beta_2,F_hat"
        cdf = read_table(fitted / "cdf.csv")
        assert cdf.shape == (100, 3)
        vals = cdf[:, 2]
        assert vals.min() >= -1e-9 and vals.max() <= 1 + 1e-9
        marg = read_table(fitted / "marg.csv")
        assert set(marg[:, 0]) == {1, 2}
        for d in (1, 2):
            assert (np.diff(marg[marg[:, 0] == d, 2]) >= -1e-12).all()
        summary = json.loads((fitted / "summary.json").read_text())
        assert summary["n_parameters"] == 5
        assert summary["ise"] is not None and summary["ise"] >= 0
        assert len(summary["mean"]) == 2

    def test_lattice_with_ties_matches_pointwise(self, simulated):
        # the fkrb q=5 cell midpoints lie on the 11-point lattice's coordinates
        cfg = write_config(simulated / "est.json", {"estimator": "fkrb", "q": 5})
        fit_path = simulated / "fit.json"
        assert main(["estimate", cfg, str(simulated / "data.csv"), "--out", str(fit_path)]) == 0
        code = main(
            ["evaluate", str(fit_path), "--points-per-dim", "11",
             "--truth", str(simulated / "truth.json"), "--truth-samples", "100000",
             "--out-cdf", str(simulated / "cdf.csv"),
             "--out-marginals", str(simulated / "marg.csv"),
             "--out-summary", str(simulated / "summary.json")]
        )
        assert code == EXIT_OK
        fit = fit_from_json(json.loads(fit_path.read_text()))
        dist = DiscreteDistribution.from_fit(fit)
        axes = fit.domain.axes(11)
        cdf = read_table(simulated / "cdf.csv")
        np.testing.assert_array_equal(cdf[:, :2], lattice_points(axes))
        assert np.abs(cdf[:, 2] - joint_cdf(dist, lattice_points(axes))).max() <= 1e-14
        dgp = dgp_from_json(json.loads((simulated / "truth.json").read_text())["dgp"])
        truth = mixture_cdf_lattice(dgp, axes, n_samples=100_000, seed=0)
        expected = ise(joint_cdf_lattice(dist, axes).reshape(-1), truth.reshape(-1))
        assert json.loads((simulated / "summary.json").read_text())["ise"] == expected

    def test_points_csv_input(self, fitted, tmp_path):
        pts_file = tmp_path / "pts.csv"
        pts_file.write_text("beta_1,beta_2\n0.0,0.0\n4.0,4.0\n")
        code = main(
            ["evaluate", str(fitted / "fit.json"),
             "--points", str(pts_file),
             "--out-cdf", str(tmp_path / "cdf.csv"),
             "--out-marginals", str(tmp_path / "marg.csv"),
             "--out-summary", str(tmp_path / "s.json")]
        )
        assert code == EXIT_OK
        cdf = read_table(tmp_path / "cdf.csv")
        assert cdf.shape == (2, 3)
        assert cdf[1, 2] == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch_rejected(self, fitted, tmp_path):
        pts_file = tmp_path / "pts.csv"
        pts_file.write_text("beta_1,beta_2,beta_3\n0.0,0.0,0.0\n")
        assert (
            main(["evaluate", str(fitted / "fit.json"), "--points", str(pts_file)])
            == EXIT_USAGE
        )

    @pytest.mark.parametrize(
        "content, expected",
        [("", "no data rows"), ("beta_1,beta_2\n", "no data rows"),
         ("beta_1,beta_2\n0.0,x\n", "line 2"), ("beta_1,beta_2\n0.0,nan\n", "line 2: NaN")],
        ids=["zero-byte", "header-only", "not-a-number", "nan"],
    )
    def test_malformed_points_csv(self, fitted, tmp_path, capsys, content, expected):
        pts_file = tmp_path / "pts.csv"
        pts_file.write_text(content)
        code = main(
            ["evaluate", str(fitted / "fit.json"), "--points", str(pts_file),
             "--out-cdf", str(tmp_path / "cdf.csv"),
             "--out-marginals", str(tmp_path / "marg.csv"),
             "--out-summary", str(tmp_path / "s.json")]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "pts.csv" in err and expected in err

    def test_missing_fit_file(self, tmp_path):
        assert main(["evaluate", str(tmp_path / "nope.json")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value", [("--truth-samples", "0"), ("--points-per-dim", "-1")]
    )
    def test_nonpositive_count_is_usage_error(self, fitted, capsys, flag, value):
        code = main(
            ["evaluate", str(fitted / "fit.json"),
             "--truth", str(fitted / "truth.json"), flag, value,
             "--out-cdf", str(fitted / "cdf.csv"),
             "--out-marginals", str(fitted / "marg.csv"),
             "--out-summary", str(fitted / "summary.json")]
        )
        assert code == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not (fitted / "summary.json").exists()


class TestPointsCsv:
    @pytest.mark.parametrize("chunk", [5, quasirand._CSV_CHUNK_ROWS])
    def test_bytes_match_one_csv_writer_row_per_point(self, tmp_path, monkeypatch, chunk):
        # write_csv_columns, the writer of every CSV file, against the
        # csv.writer rows it replaced: floats, ints and strings
        monkeypatch.setattr(quasirand, "_CSV_CHUNK_ROWS", chunk)
        points = lattice_points(Domain.cube(2).axes(7))
        rng = np.random.default_rng(0)
        values = rng.uniform(-1.0, 1.0, size=points.shape[0])
        values[:10] = [-0.0, 0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e22, 3.0, np.nan, np.inf, -np.inf]
        ids = rng.integers(-(2**62), 2**62, size=points.shape[0])
        labels = [f"q{k % 4}" if k % 3 else "" for k in range(points.shape[0])]
        header = ["beta_1", "beta_2", "F_hat", "id", "label"]
        quasirand.write_csv_columns(tmp_path / "fast.csv", header, [*points.T, values, ids, labels])
        # the writer it replaced
        with open(tmp_path / "rows.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row, v, i, lab in zip(points, values, ids, labels):
                writer.writerow([repr(float(x)) for x in row] + [repr(float(v)), int(i), lab])
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestMarginalsCsv:
    def test_bytes_match_csv_writer_rows(self, fitted):
        fit = fit_from_json(json.loads((fitted / "fit.json").read_text()))
        cli.write_marginals_csv(fit, fitted / "fast.csv")
        # the writer it replaced
        dist = DiscreteDistribution.from_fit(fit)
        with open(fitted / "rows.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dim", "t", "F_hat"])
            for d, grid in enumerate(fit.domain.axes(cli._MARGINAL_POINTS)):
                vals = marginal_cdf(dist, d, grid)
                for t, v in zip(grid, vals):
                    writer.writerow([d + 1, repr(float(t)), repr(float(v))])
        assert (fitted / "fast.csv").read_bytes() == (fitted / "rows.csv").read_bytes()


class TestReplicateCommand:
    def test_smoke_preset_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "rep.json", {"preset": "smoke"})
        report_path = tmp_path / "report.json"
        table_path = tmp_path / "table.csv"
        code = main(
            ["replicate", cfg, "--report", str(report_path), "--table", str(table_path)]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["runs"][0]["kind"] == "sg"
        assert report["runs"][0]["rmise"] is not None
        lines = table_path.read_text().splitlines()
        assert len(lines) == 2

    def test_explicit_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "rep.json",
            {
                "preset_dgp": "two-normals-d2",
                "n_units": 60,
                "replicates": 2,
                "seed": 3,
                "sg_levels": [2],
                "r_draws": 200,
                "truth_samples": 50000,
                "workers": 1,
            },
        )
        assert main(["replicate", cfg, "--report", str(tmp_path / "r.json"),
                     "--table", str(tmp_path / "t.csv")]) == EXIT_OK

    def test_deterministic_across_runs(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            cfg = write_config(
                tmp_path / f"rep_{tag}.json",
                {
                    "preset": "smoke",
                    "replicates": 1,
                },
            )
            report_path = tmp_path / f"report_{tag}.json"
            assert main(["replicate", cfg, "--report", str(report_path),
                         "--table", str(tmp_path / f"t_{tag}.csv")]) == EXIT_OK
            blobs.append(report_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "rep.json", {"preset": "smoke", "nope": True})
        assert main(["replicate", cfg, "--report", str(tmp_path / "r.json"),
                     "--table", str(tmp_path / "t.csv")]) == EXIT_USAGE

    def test_no_estimators_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "rep.json",
            {"preset_dgp": "two-normals-d2", "n_units": 10, "replicates": 1, "seed": 0},
        )
        assert main(["replicate", cfg, "--report", str(tmp_path / "r.json"),
                     "--table", str(tmp_path / "t.csv")]) == EXIT_USAGE


class TestUsage:
    def test_bad_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == EXIT_USAGE


# Bad values that only the library detects (ValueError, CapacityError, OSError):
# (command, config); the evaluate case writes its CDF into a missing directory.
LIBRARY_ERRORS = {
    "n_units-not-a-number": ("simulate", {"preset": "two-normals-d2", "n_units": "abc"}),
    "level-not-a-number": ("estimate", {"estimator": "sg", "level": "x"}),
    "tol-not-a-number": ("estimate", {"estimator": "sg", "level": 2, "solver": {"tol": "x"}}),
    "zero-draws": ("estimate", {"estimator": "sg", "level": 2, "draws": {"r": 0}}),
    "more-folds-than-units": (
        "estimate",
        {"estimator": "asg", "level": 2, "draws": {"r": 300},
         "refinement": {"steps": 0, "k_folds": 1000}},
    ),
    "fkrb-over-capacity": ("estimate", {"estimator": "fkrb", "q": 40}),
    "unwritable-cdf": ("evaluate", None),
}


@pytest.mark.parametrize(
    "command, config", LIBRARY_ERRORS.values(), ids=list(LIBRARY_ERRORS)
)
def test_library_error_exits_one_without_traceback(fitted, capsys, command, config):
    out = fitted / "out"
    out.mkdir()
    if command == "simulate":
        config = {**config, "out_data": str(out / "d.csv"), "out_truth": str(out / "t.json")}
        argv = [command, write_config(out / "bad.json", config)]
    elif command == "estimate":
        argv = [command, write_config(out / "bad.json", config),
                str(fitted / "data.csv"), "--out", str(out / "fit.json")]
    else:
        argv = [command, str(fitted / "fit.json"),
                "--out-cdf", str(out / "missing" / "cdf.csv"),
                "--out-marginals", str(out / "marg.csv"),
                "--out-summary", str(out / "summary.json")]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


# A replicate config small enough that a valid run takes a fraction of a second.
TINY_REPLICATE = {
    "preset_dgp": "two-normals-d2",
    "n_units": 60,
    "replicates": 1,
    "seed": 3,
    "sg_levels": [2],
    "r_draws": 200,
    "truth_samples": 5000,
    "workers": 1,
}

# Values that earlier meant a default, failed every replicate or crashed:
# (command, key path, value).
BAD_SETTINGS = {
    "replicates-zero": ("replicate", "replicates", 0),
    "truth_samples-zero": ("replicate", "truth_samples", 0),
    "r_draws-zero": ("replicate", "r_draws", 0),
    # not a setting: an unknown key
    "eval_subsample-zero": ("replicate", "eval_subsample", 0),
    "workers-zero": ("replicate", "workers", 0),
    "n_units-zero": ("replicate", "n_units", 0),
    "eval_points_per_dim-zero": ("replicate", "eval_points_per_dim", 0),
    "burn_in-negative": ("replicate", "burn_in", -1),
    "sg_levels-zero": ("replicate", "sg_levels", [0]),
    "n_alts-zero": ("replicate", "n_alts", 0),
    # every replicate failed with the same error and the run exited 2
    "sg_levels-above-max_level": ("replicate", "sg_levels", [6]),
    "fkrb_q-beyond-rows": ("replicate", "fkrb_q", [18]),
    "tol-negative": ("estimate", "solver.tol", -1),
    "max_iter-zero": ("estimate", "solver.max_iter", 0),
    # too large for a float or a 64-bit integer (OverflowError tracebacks)
    "tol-huge": ("estimate", "solver.tol", 10**400),
    "n_units-huge": ("replicate", "n_units", 10**400),
    # read by every estimator, so checked for sg too
    "seed-negative": ("estimate", "seed", -1),
    "seed-string": ("estimate", "seed", "abc"),
    # truncated or coerced by int(...) before
    "level-bool": ("estimate", "level", True),
    "r-float": ("estimate", "draws.r", 300.9),
    "burn_in-negative-estimate": ("estimate", "draws.burn_in", -1),
    # a 64-bit burn-in whose last point index overflows
    "burn_in-int64-max": ("estimate", "draws.burn_in", 2**63 - 1),
}


def _set(config: dict, path: str, value) -> dict:
    """A copy of ``config`` with the dotted key ``path`` set to ``value``."""
    config = copy.deepcopy(config)
    *blocks, key = path.split(".")
    obj = config
    for block in blocks:
        obj = obj.setdefault(block, {})
    obj[key] = value
    return config


@pytest.mark.parametrize(
    "command, path, value", BAD_SETTINGS.values(), ids=list(BAD_SETTINGS)
)
def test_bad_setting_exits_one_naming_it(simulated, capsys, command, path, value):
    out = simulated / "out"
    out.mkdir()
    if command == "replicate":
        config = _set(TINY_REPLICATE, path, value)
        argv = [command, write_config(out / "bad.json", config),
                "--report", str(out / "r.json"), "--table", str(out / "t.csv")]
    else:
        config = _set({"estimator": "sg", "level": 2, "draws": {"r": 300}}, path, value)
        argv = [command, write_config(out / "bad.json", config),
                str(simulated / "data.csv"), "--out", str(out / "fit.json")]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path.split(".")[-1] in err
    assert "Traceback" not in err
    assert not (out / "r.json").exists() and not (out / "fit.json").exists()


def test_more_folds_than_units_exits_one(tmp_path, capsys):
    config = {**TINY_REPLICATE, "n_units": 4, "asg_levels": [1], "refinement": {"k_folds": 5}}
    cfg = write_config(tmp_path / "rep.json", config)
    code = main(["replicate", cfg, "--report", str(tmp_path / "r.json"),
                 "--table", str(tmp_path / "t.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: invalid replicate config: ") and "k_folds" in err
    assert not (tmp_path / "r.json").exists()


def test_eval_subsample_is_an_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "rep.json", {**TINY_REPLICATE, "eval_subsample": 20})
    code = main(["replicate", cfg, "--report", str(tmp_path / "r.json"),
                 "--table", str(tmp_path / "t.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown keys in replicate config: eval_subsample\n"
    assert not (tmp_path / "r.json").exists()


def test_estimate_more_folds_than_units_names_k_folds(tmp_path, capsys):
    sim = write_config(tmp_path / "sim.json", {
        "preset": "two-normals-d2", "n_units": 4, "n_alts": 3, "seed": 5,
        "out_data": str(tmp_path / "data.csv"), "out_truth": str(tmp_path / "truth.json"),
    })
    assert main(["simulate", sim]) == EXIT_OK
    cfg = write_config(tmp_path / "est.json", {
        "estimator": "asg", "level": 1, "refinement": {"steps": 1, "k_folds": 5},
    })
    capsys.readouterr()
    code = main(["estimate", cfg, str(tmp_path / "data.csv"),
                 "--out", str(tmp_path / "fit.json")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k_folds" in err
    assert not (tmp_path / "fit.json").exists()


def test_zero_workers_flag_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "rep.json", TINY_REPLICATE)
    code = main(["replicate", cfg, "--workers", "0", "--report", str(tmp_path / "r.json"),
                 "--table", str(tmp_path / "t.csv")])
    assert code == EXIT_USAGE
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"estimator": "sg", "level": 2, "refinement": {"max_level": 0}}, "refinement"),
        ({"estimator": "sg", "level": 2, "q": 3}, "q"),
        ({"estimator": "asg", "level": 2, "q": 3}, "q"),
        ({"estimator": "fkrb", "q": 3, "level": 2}, "level"),
        ({"estimator": "fkrb", "q": 3, "draws": {"r": 300}}, "draws"),
    ],
    ids=["sg-refinement", "sg-q", "asg-q", "fkrb-level", "fkrb-draws"],
)
def test_estimate_rejects_keys_its_estimator_ignores(simulated, capsys, config, key):
    cfg = write_config(simulated / "est.json", config)
    code = main(["estimate", cfg, str(simulated / "data.csv"),
                 "--out", str(simulated / "never.json")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (simulated / "never.json").exists()


@pytest.mark.parametrize("draws", ["r", ["rule"]], ids=["string", "list"])
def test_estimate_draws_not_an_object_exits_one(simulated, capsys, draws):
    cfg = write_config(simulated / "est.json", {"estimator": "sg", "level": 2, "draws": draws})
    code = main(["estimate", cfg, str(simulated / "data.csv"),
                 "--out", str(simulated / "never.json")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: draws ") and "Traceback" not in err
    assert not (simulated / "never.json").exists()


def test_evaluate_truth_not_an_object_exits_one(fitted, capsys):
    (fitted / "bad_truth.json").write_text("[1]")
    code = main(["evaluate", str(fitted / "fit.json"), "--truth", str(fitted / "bad_truth.json"),
                 "--out-cdf", str(fitted / "cdf.csv"),
                 "--out-marginals", str(fitted / "marg.csv"),
                 "--out-summary", str(fitted / "summary.json")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truth" in err and "Traceback" not in err
    assert not (fitted / "summary.json").exists()


@pytest.mark.parametrize("dim", [None, 3], ids=["not-an-object", "other-dimension"])
def test_evaluate_bad_truth_writes_no_csv(fitted, tmp_path, dim):
    # the truth is checked before the CDF is evaluated and the CSVs written
    truth = [1] if dim is None else {
        "schema_version": 1, "dgp": dgp_to_json(two_normal_mixture(dim))
    }
    (tmp_path / "truth.json").write_text(json.dumps(truth))
    code = main(["evaluate", str(fitted / "fit.json"), "--truth", str(tmp_path / "truth.json"),
                 "--out-cdf", str(tmp_path / "cdf.csv"),
                 "--out-marginals", str(tmp_path / "marginals.csv"),
                 "--out-summary", str(tmp_path / "summary.json")])
    assert code == EXIT_USAGE
    assert not any((tmp_path / name).exists()
                   for name in ("cdf.csv", "marginals.csv", "summary.json"))


def _without(path: str):
    """An edit of a JSON document that deletes its dotted key ``path``."""
    def edit(doc):
        doc = copy.deepcopy(doc)
        *blocks, key = path.split(".")
        target = doc
        for block in blocks:
            target = target[block]
        del target[key]
        return doc
    return edit


# Bad inputs whose message once named no key: (command, the config entries
# or the fit or truth edit, message).
NAMED_ERRORS = {
    "domain-list": ("estimate", {"domain": ["lower"]},
                    "domain must be a JSON object, got ['lower']"),
    "domain-string": ("estimate", {"domain": "x"}, "domain must be a JSON object, got 'x'"),
    # JSON 1e400 parses to an infinite float
    "domain-1e400": ("estimate", {"domain": {"lower": [-4, -4], "upper": [4, math.inf]}},
                     "domain upper must hold finite numbers, got [4, inf]"),
    "draws-list": ("estimate", {"draws": [0]}, "draws must be a JSON object, got [0]"),
    "preset-list": ("replicate", {"preset": ["smoke"]},
                    "preset must be one of adaptive-d2-n1000-scaled, smoke, "
                    "table2-d2-n1000-scaled, got ['smoke']"),
    "fit-estimator": ("fit", _without("estimator"), "cannot load fit: fit lacks estimator"),
    "fit-alpha": ("fit", _without("alpha"), "cannot load fit: fit lacks alpha"),
    "fit-domain-upper": ("fit", _without("config.domain.upper"),
                         "cannot load fit: fit config domain lacks upper"),
    "truth-dgp": ("truth", _without("dgp"), "cannot load truth: truth lacks dgp"),
}


@pytest.mark.parametrize("command, edit, message", NAMED_ERRORS.values(), ids=list(NAMED_ERRORS))
def test_bad_input_message_names_its_key(fitted, capsys, command, edit, message):
    out = fitted / "out"
    out.mkdir()
    if command == "estimate":
        cfg = out / "bad.json"
        write_config(cfg, {"estimator": "sg", "level": 2, **edit})
        cfg.write_text(cfg.read_text().replace("Infinity", "1e400"))
        argv = [command, str(cfg), str(fitted / "data.csv"), "--out", str(out / "fit.json")]
    elif command == "replicate":
        argv = [command, write_config(out / "bad.json", {**TINY_REPLICATE, **edit}),
                "--report", str(out / "r.json"), "--table", str(out / "t.csv")]
    else:
        for name in ("fit", "truth"):
            doc = json.loads((fitted / f"{name}.json").read_text())
            (out / f"{name}.json").write_text(json.dumps(edit(doc) if name == command else doc))
        argv = ["evaluate", str(out / "fit.json"), "--truth", str(out / "truth.json"),
                "--truth-samples", "1000", "--out-cdf", str(out / "cdf.csv"),
                "--out-marginals", str(out / "marg.csv"), "--out-summary", str(out / "s.json")]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


# Valid levels and grid sizes of each estimator.
SG_LEVEL, ASG_LEVEL, FKRB_Q = st.integers(1, 2), st.just(1), st.integers(1, 3)
# Valid values of the fuzzed replicate, solver and refinement keys: at most
# 60 units, 300 draws and 200 solver iterations.
VALID_SETTINGS = {
    "n_units": st.integers(20, 60),
    "replicates": st.integers(1, 2),
    "seed": st.integers(0, 5),
    "n_alts": st.integers(1, 4),
    "r_draws": st.integers(50, 300),
    "burn_in": st.integers(0, 30),
    "sg_levels": st.lists(SG_LEVEL, min_size=1, max_size=2),
    "asg_levels": st.lists(ASG_LEVEL, max_size=1),
    "fkrb_q": st.lists(FKRB_Q, max_size=1),
    "eval_points_per_dim": st.integers(1, 6),
    "truth_samples": st.integers(1, 5000),
    "workers": st.just(1),
    "solver.tol": st.floats(1e-10, 1e-4),
    "solver.max_iter": st.integers(1, 200),
    "refinement.steps": st.integers(0, 2),
    "refinement.points_per_step": st.integers(1, 2),
    "refinement.criterion": st.sampled_from(["surplus", "local_error"]),
    "refinement.selection": st.sampled_from(["cv_mse", "cv_ll", "aic"]),
    "refinement.k_folds": st.integers(2, 4),
    "refinement.max_level": st.integers(1, 4),
}
# Zero, negatives, strings, bools, nulls, floats for ints, non-finite numbers,
# an integer too large for a float, and lists, one of them naming a key.
BAD_VALUES = st.sampled_from(
    [0, -1, -2.5, "3", "", True, False, None, 2.0, 1.5, math.nan, math.inf, 10**400, [], [0],
     ["r"]]
)


@st.composite
def fuzzed_replicate_configs(draw):
    config = {"preset_dgp": "two-normals-d2"}
    for path, valid in VALID_SETTINGS.items():
        config = _set(config, path, draw(valid))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(sorted(VALID_SETTINGS) + ["domain", "preset"]))
        # a null means "all cores" for workers, which this property does not spawn
        bad = BAD_VALUES.filter(lambda v: v is not None) if path == "workers" else BAD_VALUES
        config = _set(config, path, draw(bad))
    return config


@settings(max_examples=100)
@given(config=fuzzed_replicate_configs())
def test_fuzzed_replicate_config_never_crashes(config):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        tmp = Path(tmp)
        argv = ["replicate", write_config(tmp / "rep.json", config),
                "--report", str(tmp / "r.json"), "--table", str(tmp / "t.csv")]
        # an exception escaping main fails the property with its traceback
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    """One simulated dataset of 30 units and 3 alternatives, shared by the
    examples of the estimate fuzz."""
    tmp = tmp_path_factory.mktemp("tiny")
    cfg = write_config(tmp / "sim.json", {
        "preset": "two-normals-d2", "n_units": 30, "n_alts": 3, "seed": 7,
        "out_data": str(tmp / "data.csv"), "out_truth": str(tmp / "truth.json"),
    })
    assert main(["simulate", cfg]) == EXIT_OK
    return tmp / "data.csv"


@st.composite
def fuzzed_estimate_configs(draw):
    """An estimate config: the keys its estimator reads, each drawn from the
    strategy of the matching replicate key, then up to two of these keys or
    of the blocks replaced by bad values."""
    estimator = draw(st.sampled_from(["sg", "asg", "fkrb"]))
    size_key, size = {"sg": ("level", SG_LEVEL), "asg": ("level", ASG_LEVEL),
                      "fkrb": ("q", FKRB_Q)}[estimator]
    config = {"estimator": estimator, size_key: draw(size)}
    paths = {"solver.tol": "solver.tol", "solver.max_iter": "solver.max_iter"}
    if estimator != "fkrb":
        paths["draws.r"] = "r_draws"
    if estimator == "asg":
        paths.update({path: path for path in VALID_SETTINGS if path.startswith("refinement.")})
    for path, key in paths.items():
        config = _set(config, path, draw(VALID_SETTINGS[key]))
    targets = sorted(paths) + ["draws", "domain", "solver", "refinement"]
    for _ in range(draw(st.integers(0, 2))):
        config = _replace(config, draw(st.sampled_from(targets)), draw(BAD_VALUES))
    return config


@settings(max_examples=25)
@given(config=fuzzed_estimate_configs())
def test_fuzzed_estimate_config_never_crashes(tiny_data, config):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        out = Path(tmp) / "fit.json"
        argv = ["estimate", write_config(Path(tmp) / "est.json", config),
                str(tiny_data), "--out", str(out)]
        # an exception escaping main fails the property with its traceback
        code = main(argv)
        if code in (0, 2):
            fit_from_json(json.loads(out.read_text()))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize(
    "edit, message",
    [(lambda fit: [], "fit must be a JSON object, got []"),
     (lambda fit: {**fit, "diagnostics": []}, "fit diagnostics must be a JSON object, got []"),
     (lambda fit: {**fit, "config": [1]}, "fit config must be a JSON object, got [1]")],
    ids=["list", "diagnostics-list", "config-list"],
)
def test_evaluate_malformed_fit_json_exits_one_naming_it(fitted, capsys, edit, message):
    fit = json.loads((fitted / "fit.json").read_text())
    (fitted / "bad.json").write_text(json.dumps(edit(fit)))
    code = main(["evaluate", str(fitted / "bad.json"),
                 "--out-cdf", str(fitted / "cdf.csv"),
                 "--out-marginals", str(fitted / "marg.csv"),
                 "--out-summary", str(fitted / "summary.json")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: cannot load fit: {message}\n"
    assert not (fitted / "summary.json").exists()


def _slot(obj, step: str):
    """The key or position ``step`` names in JSON container ``obj``, or None."""
    if isinstance(obj, dict):
        return step
    if isinstance(obj, list) and step.isdigit() and int(step) < len(obj):
        return int(step)
    return None


def _replace(obj, path: str, value):
    """A copy of JSON value ``obj`` with the dotted ``path`` (list entries by
    position) set to ``value``; unchanged when the path does not resolve."""
    obj = copy.deepcopy(obj)
    *steps, last = path.split(".")
    target = obj
    for step in steps:
        slot = _slot(target, step)
        if slot is None or (isinstance(target, dict) and step not in target):
            return obj
        target = target[slot]
    slot = _slot(target, last)
    if slot is not None:
        target[slot] = value
    return obj


def _run_fuzzed(argv) -> tuple[int, str]:
    """Run ``main(argv)`` and check it exits 0, 1 or 2 without a traceback;
    returns the exit code and the standard error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        # an exception escaping main fails the property with its traceback
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")
    return code, err.getvalue()


@pytest.fixture(scope="module")
def tiny_fits(tiny_data):
    """The fit JSON of an sg, an asg and an fkrb fit to the tiny dataset,
    for the examples of the evaluate fuzz."""
    fits = {}
    for name, config in [("sg", {"estimator": "sg", "level": 2, "draws": {"r": 200}}),
                         ("asg", {"estimator": "asg", "level": 1, "draws": {"r": 200},
                                  "refinement": {"steps": 1, "k_folds": 2}}),
                         ("fkrb", {"estimator": "fkrb", "q": 2})]:
        out = tiny_data.parent / f"{name}.json"
        cfg = write_config(tiny_data.parent / f"{name}-est.json", config)
        assert main(["estimate", cfg, str(tiny_data), "--out", str(out)]) in (0, 2)
        fits[name] = json.loads(out.read_text())
    return fits


# Keys of a fit JSON, and the nested ones its loader reads.
FIT_PATHS = [
    "schema_version", "estimator", "config", "grid", "alpha", "diagnostics", "trace",
    "config.domain", "config.domain.lower", "config.domain.upper", "config.domain.lower.0",
    "config.draws", "config.draws.r", "config.draws.burn_in", "config.level",
    "config.max_level", "config.q", "config.refinement", "config.refinement.max_level",
    "grid.0", "grid.0.levels", "grid.0.indices", "grid.1.indices.0", "alpha.0",
    "trace.records", "trace.records.0", "trace.records.0.added_points",
]


@st.composite
def fuzzed_fit_documents(draw, fits):
    """A fit JSON with up to three entries replaced by bad values, or a bad
    value in place of the whole document."""
    if draw(st.integers(0, 9)) == 0:
        return draw(BAD_VALUES)
    fit = fits[draw(st.sampled_from(sorted(fits)))]
    for _ in range(draw(st.integers(0, 3))):
        fit = _replace(fit, draw(st.sampled_from(FIT_PATHS)), draw(BAD_VALUES))
    return fit


@settings(max_examples=100, deadline=None)
@given(data=st.data(), points_per_dim=st.integers(-1, 4), truth_samples=st.integers(-1, 2000),
       with_truth=st.booleans())
def test_fuzzed_evaluate_never_crashes(tiny_fits, tiny_data, data, points_per_dim,
                                       truth_samples, with_truth):
    fit = data.draw(fuzzed_fit_documents(tiny_fits))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "fit.json").write_text(json.dumps(fit))
        argv = ["evaluate", str(tmp / "fit.json"),
                "--points-per-dim", str(points_per_dim),
                "--truth-samples", str(truth_samples),
                "--out-cdf", str(tmp / "cdf.csv"),
                "--out-marginals", str(tmp / "marg.csv"),
                "--out-summary", str(tmp / "summary.json")]
        if with_truth:
            # the truth document as simulate wrote it, or with the document
            # itself, its dgp or the dgp's components replaced by a bad value
            truth = json.loads((tiny_data.parent / "truth.json").read_text())
            path = data.draw(st.sampled_from([None, "", "dgp", "dgp.components"]))
            if path is not None:
                bad = data.draw(BAD_VALUES)
                truth = _replace(truth, path, bad) if path else bad
            (tmp / "truth.json").write_text(json.dumps(truth))
            argv += ["--truth", str(tmp / "truth.json")]
        code, err = _run_fuzzed(argv)
    # a malformed fit or truth is reported as one that cannot load, never
    # with the text of a TypeError from deep inside the loader
    if code == 1:
        assert err.startswith(("error: cannot load fit: ", "error: cannot load truth: ",
                               "error: --points-per-dim", "error: --truth-samples")), err


# Valid values of the simulate keys, a dgp given in full among them.
VALID_SIMULATE = {
    "preset": st.sampled_from(["two-normals-d1", "two-normals-d2", "four-normals-d2", None]),
    "dgp": st.sampled_from([None, {"components": [UNIT_NORMAL]},
                            {"components": [{**UNIT_NORMAL, "weight": 0.5},
                                            {**UNIT_NORMAL, "mean": [1.0], "weight": 0.5}]}]),
    "n_units": st.integers(1, 40),
    "n_alts": st.integers(1, 4),
    "seed": st.integers(0, 5),
}
SIMULATE_PATHS = sorted(VALID_SIMULATE) + [
    "out_data", "out_truth", "dgp.components", "dgp.components.0",
    "dgp.components.0.weight", "dgp.components.0.mean", "dgp.components.0.mean.0",
    "dgp.components.0.cov", "dgp.components.0.cov.0", "dgp.components.0.cov.0.0",
]


@st.composite
def fuzzed_simulate_configs(draw):
    config = {key: draw(valid) for key, valid in VALID_SIMULATE.items()}
    if config["preset"] is None and config["dgp"] is None:
        config["preset"] = "two-normals-d2"
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(SIMULATE_PATHS))
        # a null or a string output path names a file in the working directory
        bad = BAD_VALUES.filter(lambda v: v is not None and not isinstance(v, str))
        config = _replace(config, path, draw(bad if path.startswith("out_") else BAD_VALUES))
    return config


@settings(max_examples=100, deadline=None)
@given(config=fuzzed_simulate_configs())
def test_fuzzed_simulate_config_never_crashes(config):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = {"out_data": str(tmp / "d.csv"), "out_truth": str(tmp / "t.json"), **config}
        _run_fuzzed(["simulate", write_config(tmp / "sim.json", config)])
