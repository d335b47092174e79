"""The benchmark tracer wraps library names by ``getattr``; deleting one of
them breaks only the benchmark, so this guards them in the test suite."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

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
