import math

import numpy as np
import pytest
from scipy.stats import norm

from sparserc.basis import Domain
from sparserc.distribution import (
    DiscreteDistribution,
    ise,
    joint_cdf,
    joint_cdf_lattice,
    lattice_points,
    marginal_cdf,
    mean,
    mixture_cdf_lattice,
    true_mixture_cdf,
)
from sparserc.estimator import RefineOptions, fit_asg, fit_fkrb, fit_sg
from sparserc.simulate import (
    McConfig,
    MixtureComponent,
    MixtureDgp,
    four_normal_mixture,
    make_dataset,
    run_experiment,
    simulate_choices,
    two_normal_mixture,
)


def _dist(seed=0, n=50, d=2):
    rng = np.random.default_rng(seed)
    support = rng.uniform(-4, 4, size=(n, d))
    w = rng.dirichlet(np.ones(n))
    return DiscreteDistribution(support=support, weights=w)


class TestDiscreteDistribution:
    def test_clamps_tiny_negative_weights(self):
        dist = DiscreteDistribution(
            support=np.array([[0.0], [1.0]]), weights=np.array([1.0 + 5e-9, -5e-9])
        )
        assert dist.weights[1] == 0.0
        assert dist.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_negative_weight(self):
        with pytest.raises(ValueError, match="clamping floor"):
            DiscreteDistribution(
                support=np.array([[0.0], [1.0]]), weights=np.array([1.001, -1e-3])
            )

    def test_rejects_wrong_total_mass(self):
        with pytest.raises(ValueError, match="total mass"):
            DiscreteDistribution(
                support=np.array([[0.0], [1.0]]), weights=np.array([0.6, 0.3])
            )

    def test_rejects_nan_weight(self):
        # a NaN weight would make every distribution-function value NaN
        with pytest.raises(ValueError, match="clamping floor"):
            DiscreteDistribution(
                support=np.array([[0.0], [1.0]]), weights=np.array([1.0, np.nan])
            )

    def test_from_fit(self):
        rng = np.random.default_rng(1)
        betas = two_normal_mixture(2).sample(60, rng)
        data = simulate_choices(betas, 3, rng)
        fit = fit_sg(data, Domain.cube(2), 2, r_draws=400)
        dist = DiscreteDistribution.from_fit(fit)
        assert dist.n_points == 400
        assert dist.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestJointCdf:
    def test_below_support_is_zero(self):
        dist = _dist()
        assert joint_cdf(dist, np.array([[-5.0, -5.0]]))[0] == 0.0

    def test_above_support_is_one(self):
        dist = _dist()
        assert joint_cdf(dist, np.array([[4.5, 4.5]]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_three_point_hand_case(self):
        dist = DiscreteDistribution(
            support=np.array([[0.2], [0.5], [0.8]]),
            weights=np.array([0.5, 0.3, 0.2]),
        )
        assert joint_cdf(dist, np.array([[0.6]]))[0] == pytest.approx(0.8, abs=1e-15)

    def test_dominance_matches_slow_loop(self):
        rng = np.random.default_rng(2)
        dist = _dist(seed=3, n=40, d=3)
        pts = rng.uniform(-4, 4, size=(25, 3))
        fast = joint_cdf(dist, pts)
        slow = np.array([
            dist.weights[(dist.support <= q[None, :]).all(axis=1)].sum() for q in pts
        ])
        np.testing.assert_allclose(fast, slow, atol=1e-14)

    def test_monotone_on_comparable_pairs(self):
        rng = np.random.default_rng(4)
        dist = _dist(seed=5)
        lo = rng.uniform(-4, 2, size=(50, 2))
        hi = lo + rng.uniform(0, 2, size=(50, 2))
        assert (joint_cdf(dist, lo) <= joint_cdf(dist, hi) + 1e-14).all()

    def test_consistency_with_basis_double_sum(self):
        # the weight-based value equals the double sum over basis functions
        # and draws of alpha_b * 1[draw <= q] * phi_b(draw)
        rng = np.random.default_rng(6)
        betas = two_normal_mixture(2).sample(80, rng)
        data = simulate_choices(betas, 3, rng)
        fit = fit_sg(data, Domain.cube(2), 2, r_draws=300)
        dist = DiscreteDistribution.from_fit(fit)
        from sparserc.basis import BasisSet
        phi = BasisSet(fit.grid, fit.domain).evaluate(fit.support).toarray()  # (R, B)
        queries = rng.uniform(-4, 4, size=(100, 2))
        direct = np.empty(100)
        for e, q in enumerate(queries):
            ind = (fit.support <= q[None, :]).all(axis=1)
            direct[e] = float(fit.alpha @ (phi[ind].sum(axis=0)))
        np.testing.assert_allclose(joint_cdf(dist, queries), direct, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            joint_cdf(_dist(), np.zeros((3, 5)))


class TestLattice:
    def test_lattice_points_order(self):
        axes = [np.array([0.0, 1.0]), np.array([10.0, 20.0])]
        pts = lattice_points(axes)
        np.testing.assert_array_equal(
            pts, [[0, 10], [0, 20], [1, 10], [1, 20]]
        )

    def test_lattice_cdf_matches_direct(self):
        dist = _dist(seed=7, n=200, d=2)
        axes = [np.linspace(-4, 4, 10)] * 2
        table = joint_cdf_lattice(dist, axes)
        direct = joint_cdf(dist, lattice_points(axes))
        np.testing.assert_allclose(table.reshape(-1), direct, atol=1e-10)

    def test_corner_is_total_mass(self):
        dist = _dist(seed=8)
        axes = [np.linspace(-4, 4, 10)] * 2
        table = joint_cdf_lattice(dist, axes)
        assert table[-1, -1] == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def tie_fits():
    """Fits whose support meets lattice coordinates: the fkrb cell midpoints
    meet the 11-, 15- and 33-point lattices of the cube, the Halton draws of
    sg and asg the 33-point one."""
    rng = np.random.default_rng(3)
    data = simulate_choices(two_normal_mixture(2).sample(300, rng), 5, rng)
    dom = Domain.cube(2)
    fits = {f"fkrb{q}": fit_fkrb(data, dom, q) for q in (3, 5, 7)}
    fits["sg3"] = fit_sg(data, dom, 3, r_draws=1000)
    fits["asg2"] = fit_asg(data, dom, 2, r_draws=1000, refine_opts=RefineOptions(steps=3))
    return fits


class _LatticeDraws:
    """A generator whose draws all sit on the points ``-4, -2, 0, 2, 4``."""

    dim = 2

    def sample(self, n, rng):
        return rng.integers(0, 5, size=(n, 2)) * 2.0 - 4.0


class TestLatticeTies:
    """Lattice routines count a support point that lies on a lattice
    coordinate at that coordinate, as the point-wise ones do."""

    @pytest.mark.parametrize("n", [10, 11, 15, 33])
    @pytest.mark.parametrize("name", ["fkrb3", "fkrb5", "fkrb7", "sg3", "asg2"])
    def test_fit_lattice_equals_pointwise(self, tie_fits, name, n):
        dist = DiscreteDistribution.from_fit(tie_fits[name])
        axes = Domain.cube(2).axes(n)
        table = joint_cdf_lattice(dist, axes).reshape(-1)
        assert np.abs(table - joint_cdf(dist, lattice_points(axes))).max() <= 1e-14

    @pytest.mark.parametrize("n", [9, 11, 15, 33])
    def test_truth_lattice_equals_pointwise(self, n):
        axes = [np.linspace(-4, 4, n)] * 2
        table = mixture_cdf_lattice(_LatticeDraws(), axes, n_samples=20_000, seed=1)
        direct = true_mixture_cdf(_LatticeDraws(), lattice_points(axes), n_samples=20_000, seed=1)
        assert np.abs(table.reshape(-1) - direct).max() <= 1e-14

    def test_point_on_last_axis_point_counts_there(self):
        dist = DiscreteDistribution(
            support=np.array([[4.0, 4.0], [0.0, 4.0]]), weights=np.array([0.25, 0.75])
        )
        axes = [np.linspace(-4, 4, 11)] * 2
        table = joint_cdf_lattice(dist, axes)
        assert table[-1, -1] == 1.0
        assert table[5, -1] == 0.75 and table[4, -1] == 0.0 and table[-1, -2] == 0.0
        np.testing.assert_array_equal(table.reshape(-1), joint_cdf(dist, lattice_points(axes)))
        truth = mixture_cdf_lattice(_LatticeDraws(), axes, n_samples=1000, seed=0)
        assert truth[-1, -1] == 1.0

    def test_run_experiment_scores_the_pointwise_cdf(self):
        dgp = two_normal_mixture(2)
        config = McConfig(dgp=dgp, n_units=200, replicates=1, seed=5, fkrb_q=(5,),
                          eval_points_per_dim=11, truth_samples=20_000, workers=1)
        reported = run_experiment(config).runs[0].ise[0]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(0,)))
        fit = fit_fkrb(make_dataset(dgp, 200, 5, rng), Domain.cube(2), 5)
        points = lattice_points(Domain.cube(2).axes(11))
        truth = true_mixture_cdf(dgp, points, n_samples=20_000, seed=5)
        expected = ise(joint_cdf(DiscreteDistribution.from_fit(fit), points), truth)
        assert reported == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestMarginalCdf:
    def test_below_and_above(self):
        dist = _dist(seed=9)
        assert marginal_cdf(dist, 0, np.array([-5.0]))[0] == 0.0
        assert marginal_cdf(dist, 1, np.array([5.0]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_support_midpoint(self):
        support = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        dist = DiscreteDistribution(support=support, weights=np.full(4, 0.25))
        assert marginal_cdf(dist, 0, np.array([0.0]))[0] == pytest.approx(0.5)

    def test_monotone(self):
        dist = _dist(seed=10)
        grid = np.linspace(-4, 4, 101)
        vals = marginal_cdf(dist, 0, grid)
        assert (np.diff(vals) >= -1e-15).all()

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            marginal_cdf(_dist(), 5, np.array([0.0]))


class TestMean:
    def test_point_mass(self):
        dist = DiscreteDistribution(
            support=np.array([[1.5, -2.0]]), weights=np.array([1.0])
        )
        np.testing.assert_allclose(mean(dist), [1.5, -2.0])

    def test_symmetric_pair(self):
        dist = DiscreteDistribution(
            support=np.array([[-3.0], [3.0]]), weights=np.array([0.5, 0.5])
        )
        assert mean(dist)[0] == pytest.approx(0.0, abs=1e-15)

    def test_weighted_average(self):
        dist = DiscreteDistribution(
            support=np.array([[0.0], [1.0]]), weights=np.array([0.25, 0.75])
        )
        assert mean(dist)[0] == pytest.approx(0.75)


class TestRmise:
    """The RMISE of replicates is the square root of their mean :func:`ise`."""

    @staticmethod
    def _root_mean_ise(estimates, truth):
        return math.sqrt(np.mean([ise(est, truth) for est in estimates]))

    def test_zero_when_equal(self):
        truth = [0.1, 0.5, 0.9]
        assert ise(truth, truth) == 0.0
        assert self._root_mean_ise([truth, truth], truth) == 0.0

    def test_constant_error_single_replicate(self):
        truth = np.array([0.1, 0.5, 0.9])
        assert ise(truth + 0.1, truth) == pytest.approx(0.01, abs=1e-12)
        assert self._root_mean_ise([truth + 0.1], truth) == pytest.approx(0.1, abs=1e-12)

    def test_two_replicate_hand_value(self):
        truth = perfect = [0.0, 0.0]
        off = [0.1, 0.1]
        rmise = self._root_mean_ise([perfect, off], truth)
        assert rmise == pytest.approx(np.sqrt(0.005), abs=1e-12)

    def test_replicate_order_invariant(self):
        rng = np.random.default_rng(11)
        truth = rng.uniform(size=20)
        reps = [rng.uniform(size=20) for _ in range(5)]
        assert self._root_mean_ise(reps, truth) == self._root_mean_ise(reps[::-1], truth)

    def test_mismatched_points_error(self):
        with pytest.raises(ValueError, match="point sets differ"):
            ise([0.1, 0.2], [0.1])


class TestTrueMixtureCdf:
    def test_upper_corner_is_one(self):
        dgp = two_normal_mixture(2)
        out = true_mixture_cdf(dgp, np.array([[40.0, 40.0]]), n_samples=100_000, seed=0)
        assert out[0] == 1.0

    def test_symmetry_of_two_component_design(self):
        # means are mirrored and covariances equal, so F(0) computed from
        # the mirrored sample agrees with the original within MC noise
        dgp = two_normal_mixture(2)
        a = true_mixture_cdf(dgp, np.zeros((1, 2)), n_samples=400_000, seed=1)

        class Mirrored:
            dim = 2

            def sample(self, n, rng):
                return -dgp.sample(n, rng)

        b = true_mixture_cdf(Mirrored(), np.zeros((1, 2)), n_samples=400_000, seed=2)
        assert a[0] == pytest.approx(b[0], abs=2e-3)

    def test_single_component_matches_product_of_normals(self):
        dgp = MixtureDgp(
            components=(
                MixtureComponent(
                    1.0, np.array([0.5, -0.25]), np.diag([0.4, 0.9])
                ),
            )
        )
        pts = np.array([[0.5, -0.25], [1.0, 0.5], [-0.3, -1.0]])
        out = true_mixture_cdf(dgp, pts, n_samples=1_000_000, seed=3)
        exact = norm.cdf((pts[:, 0] - 0.5) / np.sqrt(0.4)) * norm.cdf(
            (pts[:, 1] + 0.25) / np.sqrt(0.9)
        )
        np.testing.assert_allclose(out, exact, atol=2e-3)

    @pytest.mark.parametrize("dgp, dim", [(two_normal_mixture, 2), (two_normal_mixture, 6),
                                          (four_normal_mixture, 2), (four_normal_mixture, 6)])
    def test_lattice_table_equals_the_histogram_of_all_cells(self, dgp, dim):
        # the table the lattice once came from: a float histogram over the
        # lattice cells and the cells past its last points, summed in place
        dgp = dgp(dim)
        axes = [np.linspace(-4, 4, 10 if dim == 2 else 6)] * dim
        edges = [np.concatenate(([-np.inf], ax, [np.inf])) for ax in axes]
        table = np.zeros(tuple(ax.shape[0] + 1 for ax in axes))
        rng = np.random.default_rng(0)
        for size in (200_000, 100_000):
            table += np.histogramdd(dgp.sample(size, rng), bins=edges)[0]
        table /= 300_000
        for d in range(dim):
            table = np.cumsum(table, axis=d)
        expected = table[tuple(slice(0, ax.shape[0]) for ax in axes)]
        got = mixture_cdf_lattice(dgp, axes, n_samples=300_000, seed=0)
        assert np.array_equal(got, expected)

    def test_lattice_version_matches_pointwise(self):
        dgp = two_normal_mixture(2)
        axes = [np.linspace(-4, 4, 6)] * 2
        table = mixture_cdf_lattice(dgp, axes, n_samples=200_000, seed=4)
        direct = true_mixture_cdf(dgp, lattice_points(axes), n_samples=200_000, seed=4)
        np.testing.assert_allclose(table.reshape(-1), direct, atol=1e-12)
