"""Print one SHA-256 per output of the benchmark workloads at one seed.

    python3 tools/fit_digest.py --seed 0 > digests.txt
    python3 tools/fit_digest.py --seed 0 --save DIR
    python3 tools/fit_digest.py --seed 0 --against DIR

Run it from the repository root; it imports ``sparserc`` from ``src/`` and
builds every workload's inputs with ``perfbench/workloads.py``.  A fit's
digest covers its sorted ``fit_to_json`` and the bytes of ``alpha`` and
``density_at_draws``; a Monte Carlo report's covers its sorted
``report_to_json``.  Two checkouts compute the same outputs bit for bit
exactly when ``diff`` of their digest files is empty.

When they do not, ``--save DIR`` in one checkout writes each fit's ``alpha``
and ``density_at_draws`` as ``DIR/<workload>.<array>.npy`` and each report's
RMISE per estimator as ``DIR/<workload>.rmise.json``; ``--against DIR`` in
the other prints, per workload, max |Δalpha| and max |Δdensity_at_draws| or
each estimator's RMISE change against the saved outputs.  Use one seed for
both.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from sparserc import estimator, simulate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fit_digest(fit) -> str:
    h = hashlib.sha256(json.dumps(estimator.fit_to_json(fit), sort_keys=True).encode())
    h.update(fit.alpha.tobytes())
    h.update(fit.density_at_draws.tobytes())
    return h.hexdigest()


def report_digest(report) -> str:
    text = json.dumps(simulate.report_to_json(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


FIT_ARRAYS = ("alpha", "density_at_draws")


def report_rmise(report) -> dict:
    return {run.kind: run.rmise for run in report.runs}


def save(name, out, folder: Path) -> None:
    if isinstance(out, simulate.McReport):
        (folder / f"{name}.rmise.json").write_text(json.dumps(report_rmise(out)))
        return
    for array in FIT_ARRAYS:
        np.save(folder / f"{name}.{array}.npy", getattr(out, array))


def compare(name, out, folder: Path) -> str:
    if isinstance(out, simulate.McReport):
        saved = json.loads((folder / f"{name}.rmise.json").read_text())
        parts = []
        for kind, rmise in report_rmise(out).items():
            old = saved.get(kind)
            delta = f" ({rmise - old:+.2e})" if None not in (old, rmise) else ""
            parts.append(f"rmise {kind} {old!r} -> {rmise!r}{delta}")
        return "  ".join(parts)
    parts = []
    for array in FIT_ARRAYS:
        old, new = np.load(folder / f"{name}.{array}.npy"), getattr(out, array)
        if old.shape != new.shape:
            parts.append(f"{array} shape {old.shape} -> {new.shape}")
        else:
            parts.append(f"max|d {array}| {np.max(np.abs(new - old), initial=0.0):.2e}")
    return "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--save", type=Path, metavar="DIR",
                        help="write the fits' arrays and the reports' RMISE to DIR")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="print the differences from the outputs saved in DIR")
    args = parser.parse_args(argv)
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
    for name, workload in WORKLOADS.items():
        out = workload.call(workload.prepare(args.seed))
        if isinstance(out, simulate.McReport):
            print(name, "report", report_digest(out))
        else:
            print(name, "fit", fit_digest(out))
        if args.save:
            save(name, out, args.save)
        if args.against:
            print(name, compare(name, out, args.against))
    return 0


if __name__ == "__main__":
    sys.exit(main())
