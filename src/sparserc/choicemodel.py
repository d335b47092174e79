"""Choice data and its CSV format, the logit kernel, and simulated
design-matrix assembly.

The design matrix has one row per (unit, alternative) pair and one column per
basis function: entry ``Z[(n, j), b] = sum_r g(x_nj, beta_r) phi_b(beta_r)``,
the kernel-weighted sum of the basis function over the integration draws.
Every such sum, design columns and predicted probabilities alike, is a
:func:`kernel_sweep`; the fixed-grid baseline's columns are the kernel values
themselves.  The outside option is never a column; its probability is the
remainder ``1 - sum_j g_j``.

Assembly follows the sparsity of ``Phi``: a draw lies in one support per
hierarchical subspace, so a row of ``Phi`` has one nonzero per level vector
(84 of 545 at D=6 level 4).  The sweep takes the units in fixed tiles and,
for each tile, the draws in the solver's row blocks, ordered by zero
pattern: each tile and block is one kernel call, and multiplies only the
columns the block touches.  These tiles are the only ones: the kernel takes
each call whole.  A finished tile is copied into ``Z``, the only array of
the sweep that grows with the number of units, or reduced into the Gram
terms ``Z' Z`` and ``Z' y``, which is all an sg fit needs: then no array
grows with the number of units.  ``Phi`` is held once, as one CSR matrix,
from its evaluation to the solver.  The kernel drops the max shift for
every unit whose utilities cannot overflow.  The dataset CSV is read by
:func:`~sparserc.quasirand.read_csv_rows` and written by
:func:`~sparserc.quasirand.write_csv_columns`, as the other CSV files are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .basis import BasisSet, evaluate_basis_columns
from .clsolver import ROW_BLOCK, as_csr, block_slabs, pattern_blocks
from .hiergrid import SparseGrid
from .quasirand import read_csv_rows, write_csv_columns

# Units per tile of :func:`kernel_sweep`: its kernel buffer and transposed
# sums hold one tile, so only its output grows with the number of units.
UNIT_TILE = 128

# log of the largest double, less one for rounding: a unit whose utilities
# stay below it less log(J + 1) cannot overflow exp or the row sum unshifted
_LOG_MAX = float(np.log(np.finfo(float).max)) - 1.0


class DeadColumnError(ValueError):
    """A basis function's support contains no integration draw."""

    def __init__(self, points):
        self.points = list(points)
        labels = ", ".join(
            f"(levels={p.levels}, indices={p.indices})" for p in self.points
        )
        super().__init__(
            f"design would be ill-conditioned: no draw falls in the support of {labels}"
        )


@dataclass
class ChoiceDataset:
    """N observation units, each choosing among J alternatives plus an
    implicit outside option.

    ``x`` is the ``(N, J, D)`` covariate tensor and ``y`` the ``(N, J)``
    one-hot outcome matrix; a unit that picked the outside option has an
    all-zero row.  ``unit_ids`` holds each unit's distinct integer id, as
    int64 (default: the unit positions).
    """

    x: np.ndarray
    y: np.ndarray
    unit_ids: np.ndarray = field(default=None)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 3:
            raise ValueError("x must have shape (N, J, D)")
        if self.y.shape != self.x.shape[:2]:
            raise ValueError("y must have shape (N, J)")
        bad = np.argwhere(~np.isfinite(self.x))
        if bad.size:
            n, j = bad[0][:2]
            raise ValueError(f"x must be finite: unit {n}, alternative {j} has {self.x[n, j]}")
        not_binary = (self.y != 0.0) & (self.y != 1.0)
        bad = np.flatnonzero(not_binary.any(axis=1) | (self.y.sum(axis=1) > 1.0))
        if bad.size:
            n = bad[0]
            raise ValueError(
                f"each outcome row must hold 0/1 entries that sum to 0 or 1: "
                f"unit {n} has {self.y[n].tolist()}"
            )
        n = self.x.shape[0]
        ids = np.arange(n) if self.unit_ids is None else np.asarray(self.unit_ids)
        if ids.shape != (n,):
            raise ValueError("unit_ids must have one entry per unit")
        kind = ids.dtype.kind
        if kind == "f":  # whole numbers that fit int64, such as 3.0
            good = (ids == np.trunc(ids)) & (ids >= -(2.0**63)) & (ids < 2.0**63)
        elif kind == "u":
            good = ids <= 2**63 - 1
        else:
            good = np.full(n, kind == "i")
        bad = np.flatnonzero(~good)
        if bad.size:
            raise ValueError(f"unit_ids must be integers: unit {bad[0]} has {ids[bad[0]].item()!r}")
        self.unit_ids = ids.astype(np.int64, copy=False)
        if len(np.unique(self.unit_ids)) != n:
            raise ValueError("unit_ids must be unique")

    @property
    def n_units(self) -> int:
        return self.x.shape[0]

    @property
    def n_alts(self) -> int:
        return self.x.shape[1]

    @property
    def dim(self) -> int:
        return self.x.shape[2]

    @property
    def n_rows(self) -> int:
        return self.n_units * self.n_alts

    @property
    def y_flat(self) -> np.ndarray:
        """Outcomes flattened in row order (unit-major, alternative-minor)."""
        return self.y.reshape(-1)

    def subset(self, unit_positions) -> "ChoiceDataset":
        """Dataset restricted to the given unit positions (not ids)."""
        pos = np.asarray(unit_positions)
        return ChoiceDataset(self.x[pos], self.y[pos], self.unit_ids[pos])

    def row_slice(self, unit_positions) -> np.ndarray:
        """Flat row indices covering all alternatives of the given units."""
        pos = np.asarray(unit_positions)
        return (pos[:, None] * self.n_alts + np.arange(self.n_alts)[None, :]).reshape(-1)


def logit_kernel(x_n: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Inside-alternative choice probabilities for one unit and one coefficient.

    ``g_j = exp(x_j' beta) / (1 + sum_k exp(x_k' beta))``; the leading 1 is
    the outside option, so the returned J probabilities sum to less than one.
    Computed with a max shift so huge utilities cannot overflow.
    """
    x_n = np.asarray(x_n, dtype=float)
    beta = np.asarray(beta, dtype=float)
    u = x_n @ beta
    m = max(float(np.max(u)), 0.0)
    e = np.exp(u - m)
    return e / (np.exp(-m) + e.sum())


def choice_probabilities(
    x: np.ndarray, betas: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Kernel probabilities for every unit, alternative and coefficient row.

    Returns an ``(N, J, M)`` array for ``x`` of shape ``(N, J, D)`` and
    ``betas`` of shape ``(M, D)``, written into ``out`` when it is given (a
    C-contiguous array of that shape).  The output is the only array of that
    size: the utilities' product, the shift, ``exp`` and divide all run in
    place in it, and the row sums take ``1 / J`` of it.  The caller sizes
    the call: :func:`kernel_sweep` passes at most ``UNIT_TILE`` units and one
    pattern block of at most ``ROW_BLOCK`` points (1.3 MB at J=5), and the
    fixed-grid baseline passes its ``M <= N * J`` points in one call.

    A unit's utilities are bounded over the box of ``betas`` by
    ``sum_d max(x_d lo_d, x_d hi_d)``.  A unit whose bound keeps ``exp`` and
    the row sum finite gets ``e^u / (1 + sum e^u)`` directly; any other unit
    gets the max shift of :func:`logit_kernel` per coefficient row.  The
    choice is made per unit and each shift sees only its own unit's
    utilities, so a unit's probabilities depend on its own covariates alone.
    """
    x = np.asarray(x, dtype=float)
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    n, j, d = x.shape
    m = betas.shape[0]
    if out is None:
        out = np.empty((n, j, m))
    elif out.shape != (n, j, m) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {(n, j, m)} array")
    if m == 0:
        return out
    lo, hi = betas.min(axis=0), betas.max(axis=0)
    # 1e-12 of the largest |x_d beta_d| covers the rounding of both sums
    bound = np.maximum(x * lo, x * hi).sum(axis=2) + 1e-12 * (
        np.abs(x) @ np.maximum(-lo, hi)
    )
    shifted = bound.max(axis=1) > _LOG_MAX - np.log(j + 1.0)
    np.matmul(x.reshape(n * j, d), betas.T, out=out.reshape(n * j, m))
    shift = 0.0
    if shifted.any():
        # zero for every other unit: u - 0 and exp(-0) = 1 are exact
        shift = np.zeros((n, 1, m))
        shift[shifted] = np.maximum(out[shifted].max(axis=1, keepdims=True), 0.0)
        out -= shift
    np.exp(out, out=out)
    out /= np.exp(-shift) + out.sum(axis=1, keepdims=True)
    return out


@dataclass
class DesignMatrix:
    """Simulated regressors plus the constraint data that travels with them.

    ``Z`` is the ``(N * J, B)`` design, C-ordered, filled by
    :func:`kernel_sweep` one unit tile at a time: the one array of an asg
    fit that grows with ``N * J``.  The solver never reads it, only its
    Gram form (:meth:`~sparserc.clsolver.CLSProblem.from_rows`).  A design
    built with ``gram=True`` has no ``Z`` (None): the sweep reduced each
    tile, and ``gram`` holds the sums ``(Z' Z, Z' y)`` of the rows and the
    data's outcomes.  An sg fit needs nothing else, so it holds no array
    that grows with ``N`` besides the data.
    ``column_mass[b] = sum_r phi_b(beta_r)`` is both the unit-mass constraint
    vector and an assembly sanity check (every column of ``Z`` lies between 0
    and its mass entry).  ``basis_at_draws`` keeps the raw ``(R, B)`` basis
    values, as the CSR matrix of their nonzeros, because the solver's
    nonnegativity constraints are exactly its rows.
    """

    Z: np.ndarray | None
    column_mass: np.ndarray
    basis_at_draws: sp.csr_array
    basis: BasisSet
    gram: tuple | None = None

    @property
    def n_columns(self) -> int:
        return self.column_mass.shape[0]


def kernel_sweep(x: np.ndarray, points: np.ndarray, weights, y: np.ndarray | None = None):
    """``sum_r g(x, points_r) weights[r]``: the ``(N * J, K)`` kernel-weighted
    sums of the ``K`` columns of ``weights`` (one row per point), a CSR
    matrix or an array taken as the CSR matrix of its nonzeros.

    Only points whose weight row stores an entry reach the kernel.  They are
    taken in the :func:`~sparserc.clsolver.pattern_blocks` of the weights'
    stored entries, the solver's row blocks.  A hat basis has one nonzero per
    hierarchical subspace in each row, so a block's points share supports:
    each block adds a ``gemm`` over only the columns it touches into the
    transposed sums.  The blocks' dense weight slabs are built once.

    The units are swept in tiles of ``UNIT_TILE``, each tile over every
    block: one kernel call per tile and block, so each live point reaches
    the kernel once per tile.  Every call writes into one buffer of one
    tile by ``ROW_BLOCK`` points, and each tile's sums go into one
    ``(K, tile * J)`` array ``T``.  A finished tile has one of two
    consumers.  Without ``y``, ``T`` is copied into the output, the only
    array of the sweep that grows with ``N``.  With the outcomes ``y`` (one
    per row), ``T`` is reduced in place and the sweep returns ``(Z' Z,
    Z' y)`` of the output it did not build: each tile adds ``T T'``,
    formed in one ``(K, K)`` scratch by one ``syrk`` (so the sum is exactly
    symmetric), and ``T y_tile``.  Then no array of the sweep grows with
    ``N``.  A unit's kernel values depend on its own covariates alone; its
    sums can differ in the last bits with the ``gemm`` shape of its tile,
    and the reduced sums with the tiling.
    """
    n, j = x.shape[:2]
    weights = as_csr(weights)
    live = np.flatnonzero(np.diff(weights.indptr))
    if live.size < weights.shape[0]:
        weights = weights[live]
    spans = pattern_blocks(weights)
    blocks = [(points[live[rows]], cols, slab.T)
              for (rows, cols), slab in zip(spans, block_slabs(weights, spans))]
    k = weights.shape[1]
    out = np.empty((n * j, k)) if y is None else np.zeros((k, k))
    zy, scratch = (None, None) if y is None else (np.zeros(k), np.empty((k, k)))
    tile = max(1, min(n, UNIT_TILE))
    buffer = np.empty(tile * j * ROW_BLOCK)
    sums = np.empty(k * tile * j)
    for start in range(0, n, tile):
        xt = x[start:start + tile]
        rows = xt.shape[0] * j
        acc = sums[:k * rows].reshape(k, rows)
        acc[...] = 0.0
        for betas, cols, slab_t in blocks:
            g = buffer[:rows * betas.shape[0]].reshape(xt.shape[0], j, -1)
            g = choice_probabilities(xt, betas, out=g).reshape(rows, -1)
            acc[cols] += slab_t @ g.T
        if y is None:
            out[start * j:start * j + rows] = acc.T
        else:  # T T' is one syrk: its sum stays exactly symmetric
            out += np.matmul(acc, acc.T, out=scratch)
            zy += acc @ y[start * j:start * j + rows]
    return out if y is None else (out, zy)


def _assemble_columns(existing, points, basis, draws, data, gram=False) -> DesignMatrix:
    """The columns of ``points`` appended to ``existing`` (None: no columns yet).

    ``Z`` is the :func:`kernel_sweep` of the columns' ``Phi`` over the
    ``(R, D)`` draws, or with ``gram`` (and no ``existing``) its Gram terms;
    ``basis`` is the basis of the resulting design.  A column's mass adds its
    stored entries in row order, as a dense column sum would.
    """
    phi = evaluate_basis_columns(points, basis.domain, draws)
    Z = kernel_sweep(data.x, draws, phi, data.y_flat if gram else None)
    column_mass = np.bincount(phi.indices, weights=phi.data, minlength=phi.shape[1])
    dead = np.flatnonzero(column_mass <= 0.0)
    if dead.size:
        raise DeadColumnError([points[k] for k in dead])
    if gram:  # Z is (Z' Z, Z' y) of the rows the sweep did not keep
        return DesignMatrix(None, column_mass, phi, basis, gram=Z)
    if existing is not None:
        Z = np.hstack([existing.Z, Z])
        column_mass = np.concatenate([existing.column_mass, column_mass])
        phi = sp.hstack([existing.basis_at_draws, phi], format="csr")
    return DesignMatrix(Z=Z, column_mass=column_mass, basis_at_draws=phi, basis=basis)


def build_design_matrix(data: ChoiceDataset, draws: np.ndarray, basis: BasisSet,
                        gram: bool = False) -> DesignMatrix:
    """Assemble the simulated design matrix for a basis over the ``(R, D)``
    integration draws; with ``gram``, only its Gram terms with the data's
    outcomes (see :class:`DesignMatrix`).

    With the level-1 root hat in the basis every draw reaches the kernel.
    Raises :class:`DeadColumnError` when some basis function has no draw in
    its support, which would create an identically zero column.
    """
    if np.ndim(draws) != 2 or not data.dim == draws.shape[1] == basis.domain.dim:
        raise ValueError("data, draws and basis dimensions must agree")
    return _assemble_columns(None, basis.grid.points, basis, draws, data, gram)


def incremental_columns(existing: DesignMatrix, grid: SparseGrid, draws: np.ndarray,
                        data: ChoiceDataset) -> DesignMatrix:
    """Extend a design matrix to a refined grid, whose points start with the
    design's (as :func:`~sparserc.hiergrid.refine` returns them).

    Existing columns are carried over unchanged (bit for bit); only the
    columns of the grid's new points are computed, and the kernel is
    evaluated only at the draws where some new column is nonzero.
    """
    old = existing.basis.grid.points
    if grid.points[: len(old)] != old:
        raise ValueError("the refined grid's points must start with the design's points")
    if len(grid) == len(old):
        return existing
    basis = BasisSet(grid, existing.basis.domain)
    return _assemble_columns(existing, grid.points[len(old):], basis, draws, data)


def write_dataset_csv(data: ChoiceDataset, path) -> None:
    """One row per (unit, alternative): unit_id, alt_id, chosen, x_1..x_D."""
    header = ["unit_id", "alt_id", "chosen"] + [f"x_{d + 1}" for d in range(data.dim)]
    write_csv_columns(path, header, [
        np.repeat(data.unit_ids, data.n_alts),
        np.tile(np.arange(1, data.n_alts + 1), data.n_units),
        data.y.reshape(-1).astype(np.int64),
        *data.x.reshape(-1, data.dim).T,
    ])


def _dataset_width(header) -> int:
    if header[:3] != ["unit_id", "alt_id", "chosen"]:
        raise ValueError(f"unexpected header {header[:3]}")
    dim = len(header) - 3
    if dim < 1 or header[3:] != [f"x_{d + 1}" for d in range(dim)]:
        raise ValueError("malformed covariate header")
    return 3 + dim


def read_dataset_csv(path) -> ChoiceDataset:
    """Parse a dataset CSV written by :func:`write_dataset_csv`.

    Rows must be grouped by unit with alternatives in 1..J order; malformed
    rows raise with their line number, and a unit with another number of
    alternatives than the first unit with the line of its first row.
    """
    rows: dict = {}  # each unit's [chosen, x_1..x_D] rows, units in file order

    def parse(row) -> int:
        unit_id, alt_id, chosen = (int(v) for v in row[:3])
        xs = [float(v) for v in row[3:]]
        if not np.all(np.isfinite(xs)):
            raise ValueError("covariates must be finite")
        if chosen not in (0, 1):
            raise ValueError("chosen must be 0 or 1")
        if unit_id in rows and unit_id != next(reversed(rows)):
            raise ValueError(f"unit {unit_id} reappears: rows must be grouped by unit")
        alts = rows.setdefault(unit_id, [])
        if alt_id != len(alts) + 1:
            raise ValueError(f"alt_id {alt_id} out of order (expected {len(alts) + 1})")
        alts.append([chosen] + xs)
        return unit_id

    units = read_csv_rows(path, _dataset_width, parse)  # the unit id of each row
    n_alts = len(next(iter(rows.values())))
    for unit_id, alts in rows.items():
        if len(alts) != n_alts:  # the line of the unit's first row; data start on line 2
            raise ValueError(f"{path}: line {units.index(unit_id) + 2}: unit {unit_id} has "
                             f"{len(alts)} alternatives, expected {n_alts}")
    table = np.asarray(list(rows.values()), dtype=float)
    return ChoiceDataset(x=table[..., 1:], y=table[..., 0], unit_ids=np.asarray(list(rows)))
