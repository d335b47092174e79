"""End-to-end estimation: simulate discrete choices driven by a two-normal
coefficient mixture, fit the sparse-grid estimator and the fixed-grid
baseline, and compare the recovered distributions against the truth."""

import numpy as np

from sparserc import (
    DiscreteDistribution,
    Domain,
    fit_fkrb,
    fit_sg,
    ise,
    joint_cdf_lattice,
    marginal_cdf,
    mean,
    mixture_cdf_lattice,
    simulate_choices,
    two_normal_mixture,
)

rng = np.random.default_rng(42)
dgp = two_normal_mixture(2)
betas = dgp.sample(1000, rng)
data = simulate_choices(betas, 5, rng)
domain = Domain.cube(2)
print(f"simulated {data.n_units} units x {data.n_alts} alternatives, "
      f"{int(data.y.sum())} picked an inside alternative")

sg = fit_sg(data, domain, level=3)
fkrb = fit_fkrb(data, domain, q_per_dim=7)
for fit in (sg, fkrb):
    print(f"\n{fit.kind}: {fit.n_parameters} parameters, "
          f"objective {fit.diagnostics['ssr']:.5f}, "
          f"kkt residual {fit.diagnostics['kkt_residual']:.1e}")
    dist = DiscreteDistribution.from_fit(fit)
    print(f"  estimated mean: {np.round(mean(dist), 3)} (truth: [0, 0])")
    print(f"  support points with positive weight: "
          f"{int((dist.weights > 1e-12).sum())} of {dist.n_points}")

# accuracy on a 10x10 evaluation lattice
axes = [np.linspace(-4, 4, 10)] * 2
truth = mixture_cdf_lattice(dgp, axes, n_samples=500_000, seed=0).reshape(-1)
print("\nintegrated squared error of the joint distribution function:")
for fit in (sg, fkrb):
    values = joint_cdf_lattice(DiscreteDistribution.from_fit(fit), axes).reshape(-1)
    err = ise(values, truth)
    print(f"  {fit.kind}: {err:.6f}  (rmise {np.sqrt(err):.4f})")

# first-coordinate marginal at a few cut points
cuts = np.array([-2.0, 0.0, 2.0])
sg_marg = marginal_cdf(DiscreteDistribution.from_fit(sg), 0, cuts)
print("\nsparse-grid marginal distribution of coordinate 1:")
for t, v in zip(cuts, sg_marg):
    print(f"  F_1({t:+.0f}) = {v:.3f}")
