"""Spans and exact work counts around the public names of each sparserc layer.

A :class:`Tracer` replaces module attributes such as
``sparserc.estimator.solve_cls`` with wrappers for the duration of a ``with``
block.  Callers look these names up in their own module at call time, so
the wrapper sees every call the layer receives, and the program itself is
not edited.  Each call becomes a span ``[name, layer, start, end, parent]``
kept in memory; the counters are read from arguments and results at the
same boundary.  A layer's self time is its spans' time minus the time of
their direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

from sparserc.clsolver import NonConvergenceError


def _count_kernel(tracer, args, result, exc):
    tracer.counts["choicemodel.kernel_calls"] += 1
    if result is not None:
        tracer.counts["choicemodel.kernel_evals"] += result.size  # N * J * M


def _count_basis(tracer, args, result, exc):
    if result is not None:
        tracer.counts["basis.cells"] += result.size  # draws * columns


def _count_design_build(tracer, args, result, exc):
    if result is not None:
        tracer.counts["choicemodel.design_columns"] += result.n_columns


def _count_design_extend(tracer, args, result, exc):
    if result is not None:
        tracer.counts["choicemodel.design_columns"] += result.n_columns - args[0].n_columns


def _count_cls(tracer, args, result, exc):
    tracer.counts["clsolver.cls_calls"] += 1
    if isinstance(exc, NonConvergenceError):
        tracer.counts["clsolver.cls_nonconverged"] += 1
        result = exc.best
    if result is not None:
        tracer.counts["clsolver.cls_iters"] += result.iterations
        tracer.kkt_max = max(tracer.kkt_max, result.kkt_residual)


def _count_simplex(tracer, args, result, exc):
    if isinstance(exc, NonConvergenceError):
        result = exc.best
    if result is not None:
        tracer.counts["clsolver.simplex_iters"] += result.iterations
        tracer.kkt_max = max(tracer.kkt_max, result.kkt_residual)


def _record_fit(tracer, args, result, exc):
    if result is None:
        return
    tracer.fits.append(result)
    if result.trace is not None:
        tracer.counts["estimator.steps"] += len(result.trace.records) - 1
        tracer.counts["estimator.selected_step"] += result.trace.selected_step


# (module, attribute, layer, counter): the names callers resolve at call
# time.  A name imported into several modules is wrapped in each of them.
TARGETS = (
    ("sparserc.estimator", "halton_draws", "quasirand", None),
    ("sparserc.choicemodel", "evaluate_basis_columns", "basis", _count_basis),
    ("sparserc.estimator", "build_classical_sparse_grid", "hiergrid", None),
    ("sparserc.estimator", "refine", "hiergrid", None),
    ("sparserc.estimator", "refinable_points", "hiergrid", None),
    ("sparserc.choicemodel", "choice_probabilities", "choicemodel.kernel", _count_kernel),
    ("sparserc.estimator", "choice_probabilities", "choicemodel.kernel", _count_kernel),
    ("sparserc.estimator", "build_design_matrix", "choicemodel.design", _count_design_build),
    ("sparserc.estimator", "incremental_columns", "choicemodel.design", _count_design_extend),
    ("sparserc.estimator", "solve_cls", "clsolver.cls", _count_cls),
    ("sparserc.estimator", "solve_simplex_cls", "clsolver.simplex", _count_simplex),
    ("sparserc.estimator", "fit_sg", "estimator", _record_fit),
    ("sparserc.estimator", "fit_asg", "estimator", _record_fit),
    ("sparserc.simulate", "fit_sg", "estimator", _record_fit),
    ("sparserc.simulate", "fit_asg", "estimator", _record_fit),
    ("sparserc.simulate", "fit_fkrb", "estimator", _record_fit),
    ("sparserc.simulate", "run_experiment", "simulate", None),
    ("sparserc.simulate", "make_dataset", "simulate.datagen", None),
    ("sparserc.simulate", "mixture_cdf_lattice", "distribution.truth", None),
    ("sparserc.simulate", "joint_cdf_lattice", "distribution.cdf", None),
)

# Layer self times reported as per-layer metrics, by span layer.
LAYER_TIMES = {
    "quasirand": "quasirand.draws_s",
    "basis": "basis.self_s",
    "hiergrid": "hiergrid.self_s",
    "choicemodel.kernel": "choicemodel.kernel_s",
    "choicemodel.design": "choicemodel.design_s",
    "clsolver.cls": "clsolver.cls_s",
    "clsolver.simplex": "clsolver.simplex_s",
    "estimator": "estimator.self_s",
    "distribution.truth": "distribution.truth_s",
    "distribution.cdf": "distribution.cdf_s",
    "simulate.datagen": "simulate.datagen_s",
    "simulate": "simulate.self_s",
}

EXACT_COUNTS = (
    "choicemodel.kernel_calls",
    "choicemodel.kernel_evals",
    "basis.cells",
    "choicemodel.design_columns",
    "clsolver.cls_calls",
    "clsolver.cls_iters",
    "clsolver.cls_nonconverged",
    "clsolver.simplex_iters",
    "estimator.steps",
    "estimator.selected_step",
)


class Tracer:
    """Records spans, counts and the fits made while installed with
    ``with tracer:``."""

    def __init__(self):
        self.spans: list[list] = []
        self.fits: list = []
        self.counts = Counter()
        self.kkt_max = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, layer, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                spans[idx][3] = clock()
                stack.pop()
                if count is not None:
                    count(self, args, result, exc)

        return traced

    def __enter__(self):
        for module_name, attr, layer, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", layer, original, count))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def self_times(self) -> dict:
        """Self seconds per layer: span time minus direct children's time."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = dict.fromkeys(LAYER_TIMES, 0.0)
        for (_, layer, start, end, _), inner in zip(self.spans, child_time):
            out[layer] += (end - start) - inner
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metric values of everything recorded so far."""
        times = self.self_times()
        values = {LAYER_TIMES[layer]: t for layer, t in times.items()}
        for key in EXACT_COUNTS:
            values[key] = self.counts[key]
        iters = self.counts["clsolver.cls_iters"]
        values["clsolver.cls_s_per_iter"] = times["clsolver.cls"] / iters if iters else 0.0
        values["clsolver.kkt_max"] = self.kkt_max
        return values
