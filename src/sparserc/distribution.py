"""Distribution-level views of a fitted model.

A fit yields a discrete distribution: probability weights sitting on the
integration draws (or on the fixed grid).  Everything here — joint and
marginal distribution functions, moments, accuracy metrics — is computed
from that weighted support.  The distribution function ``F(q) = P(X <= q)``
(component-wise) is evaluated at free points by one sorted dominance count
and on full lattices by one binning plus cumulative sums; the two agree to
rounding, ties included.  A truth's Monte Carlo distribution function sums
the same count (or binning) over chunks of its samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

WEIGHT_FLOOR = -1e-8
MASS_TOL = 1e-8
# Draws behind a truth's Monte Carlo CDF; per-point standard error below 5e-4.
TRUTH_SAMPLES = 2_000_000

_POINT_BLOCK = 128
_SAMPLE_CHUNK = 200_000


def check_weights(weights: np.ndarray) -> None:
    """Raise unless every weight is at least ``WEIGHT_FLOOR`` and the total
    mass is one within ``MASS_TOL``; a NaN weight fails both."""
    if not weights.min() >= WEIGHT_FLOOR:
        raise ValueError(f"weight {weights.min():.3e} below the clamping floor {WEIGHT_FLOOR}")
    if not abs(weights.sum() - 1.0) <= MASS_TOL:
        raise ValueError(f"total mass {weights.sum()} is not 1 within {MASS_TOL}")


@dataclass
class DiscreteDistribution:
    """Probability weights on a finite support in coefficient space.

    Weights in ``[-1e-8, 0)`` are treated as solver noise: clamped to zero
    and renormalized.  Anything more negative, total mass off unity by more
    than ``1e-8``, or a NaN weight is a solver-contract violation and raises.
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = np.atleast_2d(np.asarray(self.support, dtype=float))
        weights = np.asarray(self.weights, dtype=float).copy()
        if weights.shape != (support.shape[0],):
            raise ValueError("one weight per support point required")
        check_weights(weights)
        np.clip(weights, 0.0, None, out=weights)
        weights /= weights.sum()
        support.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @property
    def n_points(self) -> int:
        return self.support.shape[0]

    @classmethod
    def from_fit(cls, fit) -> "DiscreteDistribution":
        return cls(support=fit.support, weights=fit.density_at_draws)


def _dominance_sums(x: np.ndarray, points: np.ndarray, weights=None) -> np.ndarray:
    """The count (or ``weights`` sum) of the points ``x`` at or below each
    query point in every coordinate.  ``x`` is sorted along the first
    dimension, so one comparison per point and query bounds that dimension."""
    order = np.argsort(x[:, 0], kind="stable")
    x = x[order]
    if weights is not None:
        weights = weights[order]
    cuts = np.searchsorted(x[:, 0], points[:, 0], side="right")
    col = np.arange(x.shape[0])
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], _POINT_BLOCK):
        block = points[start:start + _POINT_BLOCK]
        mask = col[None, :] < cuts[start:start + _POINT_BLOCK, None]
        for d in range(1, x.shape[1]):
            mask &= x[None, :, d] <= block[:, d, None]
        out[start:start + _POINT_BLOCK] = (
            np.count_nonzero(mask, axis=1) if weights is None else mask @ weights)
    return out


def joint_cdf(dist: DiscreteDistribution, points) -> np.ndarray:
    """Joint distribution function at each query point.

    ``F(q) = sum_r weights[r] * 1[support[r] <= q component-wise]``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != dist.dim:
        raise ValueError("query dimension mismatch")
    return _dominance_sums(dist.support, points, dist.weights)


def lattice_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Flattened cartesian product of per-dimension axes, row-major order."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, len(axes))


def _cell_sums(x: np.ndarray, axes: list, weights=None) -> np.ndarray:
    """The count (or ``weights`` sum) of the points ``x`` in each lattice cell,
    a point's cell along an axis being the first axis point at or above it
    (so cumulative sums give ``P(X <= q)``); past the last one it has none."""
    cell = np.zeros(x.shape[0], dtype=np.int64)
    inside = np.ones(x.shape[0], dtype=bool)
    for d, ax in enumerate(axes):
        b = np.searchsorted(ax, x[:, d], side="left")
        inside &= b < ax.shape[0]
        cell = cell * ax.shape[0] + b
    shape = [ax.shape[0] for ax in axes]
    sums = np.bincount(cell[inside], None if weights is None else weights[inside],
                       minlength=math.prod(shape))
    return sums.reshape(shape)


def _cumulative(table: np.ndarray) -> np.ndarray:
    for d in range(table.ndim):
        table = np.cumsum(table, axis=d)
    return table


def joint_cdf_lattice(dist: DiscreteDistribution, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Joint distribution function on a full lattice, as a D-dimensional table.

    Equal to :func:`joint_cdf` on :func:`lattice_points` to rounding, ties
    included, but runs one weighted binning pass plus cumulative sums instead
    of a dominance count per point.
    """
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    if len(axes) != dist.dim:
        raise ValueError("one axis per dimension required")
    return _cumulative(_cell_sums(dist.support, axes, dist.weights))


def marginal_cdf(dist: DiscreteDistribution, d: int, grid) -> np.ndarray:
    """One-dimensional marginal distribution function along dimension ``d``."""
    if not 0 <= d < dist.dim:
        raise ValueError(f"dimension {d} out of range")
    grid = np.asarray(grid, dtype=float)
    order = np.argsort(dist.support[:, d], kind="stable")
    vals = dist.support[order, d]
    csum = np.concatenate(([0.0], np.cumsum(dist.weights[order])))
    return csum[np.searchsorted(vals, grid, side="right")]


def mean(dist: DiscreteDistribution) -> np.ndarray:
    """Weighted mean of the support points."""
    return dist.weights @ dist.support


def ise(values, truth_values) -> float:
    """Integrated squared error of distribution-function values against the
    truth's at the same points: the mean squared deviation over the points.
    The RMISE of a set of replicates is the square root of their mean ISE."""
    values, truth_values = np.asarray(values, float), np.asarray(truth_values, float)
    if values.shape != truth_values.shape:
        raise ValueError("evaluation point sets differ")
    diff = values - truth_values
    return float(diff @ diff) / diff.shape[0]


def _sample_chunks(dgp, n_samples: int, seed: int):
    """``n_samples`` draws of ``dgp`` from ``default_rng(seed)``, in chunks."""
    rng = np.random.default_rng(seed)
    for start in range(0, n_samples, _SAMPLE_CHUNK):
        yield dgp.sample(min(_SAMPLE_CHUNK, n_samples - start), rng)


def true_mixture_cdf(
    dgp,
    points,
    n_samples: int = TRUTH_SAMPLES,
    seed: int = 0,
) -> np.ndarray:
    """Monte Carlo evaluation of a generator's joint distribution function.

    ``dgp`` must expose ``dim`` and ``sample(n, rng)``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != dgp.dim:
        raise ValueError("query dimension mismatch")
    counts = np.zeros(points.shape[0])
    for x in _sample_chunks(dgp, n_samples, seed):
        counts += _dominance_sums(x, points)
    return counts / n_samples


def mixture_cdf_lattice(
    dgp,
    axes: Sequence[np.ndarray],
    n_samples: int = TRUTH_SAMPLES,
    seed: int = 0,
) -> np.ndarray:
    """Monte Carlo distribution function of a generator on a full lattice.

    Histogram-based counterpart of :func:`true_mixture_cdf` for lattice
    queries; same estimator, one binning pass per chunk of draws instead of
    per-point counts, counted in one integer table of the lattice's size.
    """
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    if len(axes) != dgp.dim:
        raise ValueError("one axis per dimension required")
    counts = 0
    for x in _sample_chunks(dgp, n_samples, seed):
        counts = counts + _cell_sums(x, axes)
    return _cumulative(counts / n_samples)
