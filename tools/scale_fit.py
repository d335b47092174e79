"""Time one ``fit_sg`` call (or ``fit_asg`` call) at a chosen dimension and level.

    python3 tools/scale_fit.py --dim 8 --level 4
    python3 tools/scale_fit.py --dim 6 --level 4 --draws 12000
    python3 tools/scale_fit.py --dim 6 --level 4 --units 10000
    python3 tools/scale_fit.py --dim 6 --level 4 --units 50000
    python3 tools/scale_fit.py --dim 6 --level 4 --units 10000 --steps 1

Run it from the repository root; it imports ``sparserc`` from ``src/``.  The
data are the benchmark's: 1,000 units (or ``--units``) with 5 alternatives
drawn from the two-normal mixture at seed 0, on the cube ``[-4, 4]^D``, with
``2000 * D`` draws unless ``--draws`` says otherwise.  ``--steps S`` fits
``fit_asg`` with ``S`` refinement steps in place of ``fit_sg``, each step
selected by 5-fold cross-validated MSE (the ``RefineOptions`` defaults), so
that the memory of the fold refits shows.  It prints the wall
time of the fit, the peak resident memory of the process (data generation
included), the basis size B, the interior-point iterations and the
solver's stop reason and KKT residual.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sparserc import estimator, simulate  # noqa: E402
from sparserc.basis import Domain  # noqa: E402

N_UNITS = 1000
N_ALTS = 5
SEED = 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--level", type=int, required=True)
    parser.add_argument("--draws", type=int, default=None,
                        help=f"integration draws (default {estimator.DRAWS_PER_DIM} * dim)")
    parser.add_argument("--units", type=int, default=N_UNITS,
                        help=f"observation units (default {N_UNITS})")
    parser.add_argument("--steps", type=int, default=None,
                        help="refinement steps of a fit_asg call (default: fit_sg)")
    args = parser.parse_args(argv)
    data = simulate.make_dataset(
        simulate.two_normal_mixture(args.dim), args.units, N_ALTS, np.random.default_rng(SEED)
    )
    start = time.perf_counter()
    if args.steps is None:
        fit = estimator.fit_sg(data, Domain.cube(args.dim), args.level, r_draws=args.draws)
    else:
        fit = estimator.fit_asg(data, Domain.cube(args.dim), args.level, r_draws=args.draws,
                                refine_opts=estimator.RefineOptions(steps=args.steps))
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    diag = fit.diagnostics
    steps = "" if args.steps is None else f" steps {args.steps}"
    print(f"dim {args.dim} level {args.level}{steps} units {args.units} "
          f"draws {fit.support.shape[0]}: "
          f"wall {wall:.2f} s, peak RSS {peak_mb:.0f} MB, B {fit.n_parameters}, "
          f"IPM iterations {diag['iterations']}, {diag['stop_reason']}, "
          f"KKT {diag['kkt_residual']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
