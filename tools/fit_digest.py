"""Print one SHA-256 per output of the benchmark workloads at one seed.

    python3 tools/fit_digest.py --seed 0 > digests.txt

Run it from the repository root; it imports ``sparserc`` from ``src/`` and
builds every workload's inputs with ``perfbench/workloads.py``.  A fit's
digest covers its sorted ``fit_to_json`` and the bytes of ``alpha`` and
``density_at_draws``; a Monte Carlo report's covers its sorted
``report_to_json``.  Two checkouts compute the same outputs bit for bit
exactly when ``diff`` of their digest files is empty.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name, workload in WORKLOADS.items():
        out = workload.call(workload.prepare(args.seed))
        if isinstance(out, simulate.McReport):
            print(name, "report", report_digest(out))
        else:
            print(name, "fit", fit_digest(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
