"""Spatially adaptive refinement on a wiggly four-component mixture: the
search scores refinable points by their share of the squared error, grows
the grid step by step, and cross-validation picks how far to go."""

import numpy as np

from sparserc import (
    DiscreteDistribution,
    Domain,
    RefineOptions,
    fit_asg,
    fit_sg,
    ise,
    joint_cdf_lattice,
    four_normal_mixture,
    mixture_cdf_lattice,
    simulate_choices,
)

rng = np.random.default_rng(7)
dgp = four_normal_mixture(2)
data = simulate_choices(dgp.sample(1000, rng), 5, rng)
domain = Domain.cube(2)

sg = fit_sg(data, domain, level=2)
asg = fit_asg(
    data,
    domain,
    level=2,
    refine_opts=RefineOptions(steps=10, criterion="local_error",
                              selection="cv_mse", k_folds=5),
)

print("refinement trace (step 0 is the unrefined level-2 grid):")
print(f"{'step':>4} {'params':>7} {'in-sample mse':>14} {'oos mse':>10}")
for rec in asg.trace.records:
    marker = "  <- selected" if rec.step == asg.trace.selected_step else ""
    print(f"{rec.step:>4} {rec.n_parameters:>7} {rec.in_sample_mse:>14.6f} "
          f"{rec.oos_mse_mean:>10.6f}{marker}")

axes = [np.linspace(-4, 4, 10)] * 2
truth = mixture_cdf_lattice(dgp, axes, n_samples=500_000, seed=0).reshape(-1)
for fit, label in ((sg, "fixed level-2 grid"), (asg, "adaptively refined")):
    values = joint_cdf_lattice(DiscreteDistribution.from_fit(fit), axes).reshape(-1)
    rmise = np.sqrt(ise(values, truth))
    print(f"\n{label}: {fit.n_parameters} parameters, rmise {rmise:.4f}")

levels = sorted({max(p.levels) for p in asg.grid.points})
print(f"\nfinest per-dimension level reached: {max(levels)}; "
      f"refined regions sit where the mixture bends hardest")
