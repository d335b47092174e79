"""The benchmark tracer wraps library names by ``getattr``; deleting one of
them breaks only the benchmark, so this guards them in the test suite."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sparserc import estimator, simulate
from sparserc.basis import Domain
from sparserc.choicemodel import DesignMatrix

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_resolves(tracing):
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, missing


def test_design_matrix_counts_columns():
    # the tracer's design-column counters read DesignMatrix.n_columns
    design = DesignMatrix(
        Z=np.zeros((6, 3)), column_mass=np.ones(3), basis_at_draws=np.ones((4, 3)), basis=None
    )
    assert design.n_columns == 3


def test_every_target_is_reached(tracing):
    # a target that resolves but is never called leaves its layer reading 0
    dgp = simulate.two_normal_mixture(2)
    data = simulate.make_dataset(dgp, 40, 3, np.random.default_rng(0))
    domain = Domain.cube(2)
    refine_opts = estimator.RefineOptions(steps=1, selection="cv_mse", k_folds=2)
    with tracing.Tracer() as tracer:
        estimator.fit_sg(data, domain, 2, r_draws=200)
        estimator.fit_asg(data, domain, 2, r_draws=200, refine_opts=refine_opts)
        estimator.fit_fkrb(data, domain, 3)
        simulate.run_experiment(simulate.McConfig(
            dgp=dgp, n_units=40, replicates=1, n_alts=3, r_draws=200, sg_levels=(2,),
            asg_levels=(2,), fkrb_q=(3,), refine=refine_opts, truth_samples=1000,
        ))
    reached = {name for name, *_ in tracer.spans}
    missing = [f"{m}.{a}" for m, a, *_ in tracing.TARGETS if f"{m}.{a}" not in reached]
    assert not missing, missing
