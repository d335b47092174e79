"""Checks of the benchmark's traced mode, one per workload at its default seed.

    python3 -m pytest perfbench/check_tracing.py

The name keeps the repository's own test run from collecting it: it makes
nine full workload calls and takes a minute or two.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from sparserc import clsolver, estimator  # noqa: E402
from run import timed_call  # noqa: E402
from tracing import EXACT_COUNTS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_call(name):
    workload = WORKLOADS[name]
    inputs = workload.prepare(DEFAULT_SEED)
    _, plain = timed_call(workload, inputs)

    tracer = Tracer()
    wall, traced = timed_call(workload, inputs, tracer)
    assert not isinstance(traced, Exception), traced
    assert estimator.solve_cls is clsolver.solve_cls, "tracer left a wrapper installed"

    # tracing leaves the outputs bit-identical
    assert workload.repeat_failures(plain, traced) == 0

    # layer self times partition the traced call, so they fit inside its wall time
    times = tracer.self_times()
    assert min(times.values()) >= 0.0
    assert sum(times.values()) <= wall

    # a second run on the same seed repeats every exact count
    again = Tracer()
    timed_call(workload, workload.prepare(DEFAULT_SEED), again)
    first = {key: tracer.counts[key] for key in EXACT_COUNTS}
    second = {key: again.counts[key] for key in EXACT_COUNTS}
    assert first == second
    assert first["clsolver.cls_calls"] > 0 and first["choicemodel.kernel_evals"] > 0
