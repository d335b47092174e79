"""Piecewise-linear hierarchical basis functions on hyper-rectangles.

All basis math happens on the unit cube; an affine :class:`Domain` maps user
coordinates in once at the data boundary.  Evaluation outside a function's
support (including outside the domain) is zero by construction, never an
error.  The supports of one hierarchical subspace (one level vector) are
disjoint cells that tile the cube, so :func:`evaluate_basis_columns` finds
each point's one nonzero per subspace by a cell lookup; :func:`eval_nd` is
the pointwise definition it reproduces bit for bit, as a CSR matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .checks import finite_array, json_object
from .hiergrid import GridPoint, SparseGrid, index_set


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box ``[lower_d, upper_d]`` per dimension."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(finite_array("lower", self.lower))
        upper = np.atleast_1d(finite_array("upper", self.upper))
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-D with equal length")
        if not np.all(lower < upper):
            raise ValueError("lower must be < upper in every dimension")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def cube(cls, dim: int, lower: float = -4.0, upper: float = 4.0) -> "Domain":
        """Symmetric box with identical bounds in every dimension."""
        return cls(np.full(dim, lower), np.full(dim, upper))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def to_unit(self, x) -> np.ndarray:
        """Map domain coordinates to the unit cube (component-wise affine)."""
        x = np.asarray(x, dtype=float)
        return (x - self.lower) / self.width

    def from_unit(self, u) -> np.ndarray:
        """Inverse of :meth:`to_unit`."""
        u = np.asarray(u, dtype=float)
        return self.lower + u * self.width

    def axes(self, points_per_dim: int) -> list[np.ndarray]:
        """``points_per_dim`` evenly spaced coordinates per axis, bounds included."""
        return [np.linspace(lo, hi, points_per_dim) for lo, hi in zip(self.lower, self.upper)]


def domain_from_json(obj, where: str = "domain") -> Domain:
    """The :class:`Domain` of JSON object ``{"lower": [...], "upper": [...]}``;
    a ValueError names ``where`` and the bad key."""
    obj = json_object(obj, where, allowed=(), required=("lower", "upper"))
    try:
        return Domain(obj["lower"], obj["upper"])
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None


def hat(t):
    """The reference hat ``max(0, 1 - |t|)``; accepts scalars or arrays."""
    return np.maximum(0.0, 1.0 - np.abs(t))


def eval_1d(level: int, index: int, u):
    """One-dimensional hat of a (level, index) pair at unit coordinates.

    Centered at ``index * 2**-level`` with half-width ``2**-level``; equals 1
    at the center and 0 outside the open support.
    """
    if level < 1 or index % 2 == 0 or not 1 <= index <= 2**level - 1:
        raise ValueError(f"invalid basis function (level={level}, index={index})")
    scale = 2.0**level
    return hat(np.asarray(u, dtype=float) * scale - index)


def eval_nd(point: GridPoint, domain: Domain, beta):
    """Tensor-product basis function of ``point`` at domain coordinates.

    ``beta`` may be a single D-vector or an ``(n, D)`` array; the result is
    the product of the per-dimension hats, zero as soon as one factor is.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-1] != point.dim:
        raise ValueError(
            f"coordinate dimension {beta.shape[-1]} != point dimension {point.dim}"
        )
    if domain.dim != point.dim:
        raise ValueError("domain dimension mismatch")
    u = domain.to_unit(beta)
    out = np.ones(u.shape[:-1], dtype=float)
    for d in range(point.dim):
        out = out * eval_1d(point.levels[d], point.indices[d], u[..., d])
    return out


def evaluate_basis_columns(
    points: Sequence[GridPoint], domain: Domain, at: np.ndarray
) -> sp.csr_array:
    """Evaluate a list of basis functions at many domain points.

    Returns the ``(n, len(points))`` matrix as a ``csr_array`` of its
    nonzeros (int32 indices, sorted within each row), each equal bit for bit
    to the product of :func:`eval_1d` factors in dimension order.  The
    supports of one hierarchical subspace (one level vector) tile the unit
    cube, so a point lies in exactly one of them: per level vector, each
    point's cell and hat product are computed once and the cell is looked up
    among the subspace's grid points.  A cell without a grid point (an
    incomplete subspace of an adaptive grid) and a point outside the cube
    store nothing.  The cost is ``n`` products per level vector, not
    ``n * len(points)``.
    """
    points = list(points)
    at = np.atleast_2d(np.asarray(at, dtype=float))
    dim = domain.dim
    if at.shape[1] != dim:
        raise ValueError("evaluation points dimension mismatch")
    bad = np.flatnonzero(~np.isfinite(at).all(axis=1))
    if bad.size:
        raise ValueError(f"evaluation points must be finite: row {bad[0]} is {at[bad[0]]}")
    u = domain.to_unit(at)
    factors = {}

    def factor(d, l):
        # each point's level-l cell along dimension d (2**(l-1), one past the
        # last cell, outside the unit interval) and the hat of that cell there
        if (d, l) not in factors:
            t = u[:, d] * 2.0**l
            c = np.floor(np.where((t >= 0.0) & (t < 2.0**l), t, 2.0**l) * 0.5)
            factors[d, l] = c, hat(t - (2.0 * c + 1.0))
        return factors[d, l]

    subspaces = {}
    for k, p in enumerate(points):
        subspaces.setdefault(p.levels, []).append(k)
    # each point's stored entry per subspace, as (row, column, value)
    rows, cols_at, values = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)], [np.zeros(0)]
    for levels, cols in subspaces.items():
        # cell vectors as mixed-radix keys, l_d bits for dimension d (the
        # extra bit holds the outside cell); Python ints past 62 bits
        shifts = np.cumsum((0,) + levels[:-1]).tolist()
        wide = sum(levels) > 62
        as_int = np.frompyfunc(int, 1, 1) if wide else (lambda c: c.astype(np.int64))
        keys = np.array(
            [sum((points[k].indices[d] // 2) << s for d, s in enumerate(shifts)) for k in cols],
            dtype=object if wide else np.int64,
        )
        order = np.argsort(keys)
        keys, cols = keys[order], np.asarray(cols, dtype=np.int32)[order]
        c, value = factor(0, levels[0])
        key = as_int(c)
        value = value.copy()
        for d in range(1, dim):
            c, h = factor(d, levels[d])
            key += as_int(c) << shifts[d]
            value *= h
        pos = np.minimum(np.searchsorted(keys, key), keys.size - 1)
        # a point on a cell's edge has a zero there, which is not stored
        hit = np.flatnonzero((keys[pos] == key) & (value != 0.0))
        rows.append(hit.astype(np.int32))
        cols_at.append(cols[pos[hit]])
        values.append(value[hit])
    # the entries gathered into rows, each row sorted by column
    return sp.coo_array((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols_at))),
                        shape=(at.shape[0], len(points))).tocsr()


@dataclass(frozen=True)
class BasisSet:
    """A hierarchical grid together with the domain its functions live on."""

    grid: SparseGrid
    domain: Domain

    def __post_init__(self):
        if self.grid.dim != self.domain.dim:
            raise ValueError("grid and domain dimensions differ")

    def evaluate(self, at: np.ndarray) -> sp.csr_array:
        """Matrix of all basis functions at the given domain points, ``(n, B)``,
        as the CSR matrix of :func:`evaluate_basis_columns`."""
        return evaluate_basis_columns(self.grid.points, self.domain, at)


def hierarchize_full_grid_1d(values) -> dict[tuple[int, int], float]:
    """Hierarchical surpluses interpolating nodal values on a 1-D full grid.

    ``values`` holds function values at the interior nodes ``k * 2**-l`` for
    ``k = 1 .. 2**l - 1`` in coordinate order, where the level ``l`` is
    inferred from the length.  Returns the unique coefficients, keyed by
    (level, index), whose hat expansion reproduces every nodal value: the
    surplus at a node is its value minus the coarser interpolant there.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    level = int(np.log2(n + 1))
    if values.ndim != 1 or 2**level - 1 != n:
        raise ValueError(f"expected 2**l - 1 nodal values, got {n}")
    coords = np.arange(1, n + 1) / 2.0**level
    interp = np.zeros(n)
    surpluses: dict[tuple[int, int], float] = {}
    for l in range(1, level + 1):
        stride = 2 ** (level - l)
        level_vals = []
        for i in index_set(l):
            k = i * stride - 1
            s = values[k] - interp[k]
            surpluses[(l, i)] = float(s)
            level_vals.append((i, s))
        for i, s in level_vals:
            interp += s * eval_1d(l, i, coords)
    return surpluses


def evaluate_surpluses(surpluses: dict[tuple[int, int], float], u) -> np.ndarray:
    """Evaluate a 1-D hierarchical expansion at unit coordinates."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    for (l, i), s in surpluses.items():
        out += s * eval_1d(l, i, u)
    return out
