"""Fit many random fixed-grid (fkrb) problems and report the worst certificate.

    python3 tools/fkrb_fuzz.py --fits 1000 --seed 0

Each fit draws D in 1..4, q in 1..8 with q**D <= 400, 2..300 units, 1..4
alternatives, a random box domain and normal coefficients; one fit in ten
has every unit choosing the outside option.  Prints the failures (any
exception, a stop other than ``converged``, a KKT residual above 1e-8 or
an infeasible weight vector), the worst KKT residual and the most
iterations; exits 1 when any fit failed.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sparserc import Domain, fit_fkrb, simulate_choices  # noqa: E402


def random_fit(rng):
    dim = int(rng.integers(1, 5))
    q = int(rng.integers(1, min(8, int(400 ** (1 / dim) + 1e-9)) + 1))
    n_alts = int(rng.integers(max(1, -(-q**dim // 300)), 5))
    n_units = int(rng.integers(max(2, -(-q**dim // n_alts)), 301))
    lower = rng.uniform(-3.0, 0.0, dim)
    domain = Domain(lower, lower + rng.uniform(0.5, 4.0, dim))
    data = simulate_choices(rng.normal(size=(n_units, dim)), n_alts, rng)
    if rng.uniform() < 0.1:
        data.y[:] = 0.0
    return fit_fkrb(data, domain, q), (dim, q, n_units, n_alts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fits", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    failures, kkt, iters = 0, 0.0, 0
    for i in range(args.fits):
        try:
            fit, shape = random_fit(rng)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            print(f"fit {i}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        d = fit.diagnostics
        kkt, iters = max(kkt, d["kkt_residual"]), max(iters, d["iterations"])
        feasible = fit.alpha.min() >= -1e-10 and abs(d["eq_violation"]) <= 1e-10
        if d["stop_reason"] != "converged" or d["kkt_residual"] > 1e-8 or not feasible:
            print(f"fit {i} (D, q, N, J) = {shape}: {d['stop_reason']}, kkt {d['kkt_residual']:.2e}")
            failures += 1
    print(f"{args.fits} fits, {failures} failed, worst kkt {kkt:.2e}, max iterations {iters}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
