"""Choice data, the logit kernel, and simulated design-matrix assembly.

The design matrix has one row per (unit, alternative) pair and one column per
basis function: entry ``Z[(n, j), b] = sum_r g(x_nj, beta_r) phi_b(beta_r)``,
the kernel-weighted sum of the basis function over the integration draws.
The outside option is never a column; its probability is the remainder
``1 - sum_j g_j``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet, evaluate_basis_columns
from .hiergrid import SparseGrid
from .quasirand import DrawSet

# Draws processed per block during design assembly.  Fixed (never adaptive)
# so results are bit-identical regardless of memory or worker count.
DESIGN_CHUNK = 2048

# Bytes of kernel output per tile of units: small enough that a tile stays in
# cache through the product, shift, exp and divide.
KERNEL_TILE_BYTES = 1 << 20


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
    all-zero row.
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
        if self.unit_ids is None:
            self.unit_ids = np.arange(self.x.shape[0])
        else:
            self.unit_ids = np.asarray(self.unit_ids)
            if self.unit_ids.shape != (self.x.shape[0],):
                raise ValueError("unit_ids must have one entry per unit")
            if len(np.unique(self.unit_ids)) != self.unit_ids.shape[0]:
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


def choice_probabilities(x: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Kernel probabilities for every unit, alternative and coefficient row.

    Returns an ``(N, J, M)`` array for ``x`` of shape ``(N, J, D)`` and
    ``betas`` of shape ``(M, D)``.  The output is the only array of that
    size: it is filled in tiles of whole units, about ``KERNEL_TILE_BYTES``
    each (one unit when a unit's ``J * M`` values are larger), and each tile
    takes its utilities, max shift, ``exp`` and divide in place while it is
    in cache.  A tile holds whole units, so a unit's shift and normalization
    see only its own utilities.  Memory grows with ``N * J * M``; callers
    with many coefficient rows should chunk over ``betas``.
    """
    x = np.asarray(x, dtype=float)
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    n, j, d = x.shape
    m = betas.shape[0]
    out = np.empty((n, j, m))
    units = max(1, KERNEL_TILE_BYTES // max(1, 8 * j * m))
    for start in range(0, n, units):
        u = out[start:start + units]
        rows = u.shape[0] * j
        np.matmul(x[start:start + units].reshape(rows, d), betas.T, out=u.reshape(rows, m))
        shift = np.maximum(u.max(axis=1, keepdims=True), 0.0)
        u -= shift
        np.exp(u, out=u)
        u /= np.exp(-shift) + u.sum(axis=1, keepdims=True)
    return out


@dataclass
class DesignMatrix:
    """Simulated regressors plus the constraint data that travels with them.

    ``column_mass[b] = sum_r phi_b(beta_r)`` is both the unit-mass constraint
    vector and an assembly sanity check (every column of ``Z`` lies between 0
    and its mass entry).  ``basis_at_draws`` keeps the raw ``(R, B)`` basis
    values because the solver's nonnegativity constraints are exactly its
    rows.
    """

    Z: np.ndarray
    column_mass: np.ndarray
    basis_at_draws: np.ndarray
    basis: BasisSet
    n_units: int
    n_alts: int

    @property
    def n_rows(self) -> int:
        return self.Z.shape[0]

    @property
    def n_columns(self) -> int:
        return self.Z.shape[1]

    def row_of(self, n: int, j: int) -> int:
        return n * self.n_alts + j


def _assemble_columns(existing, points, basis, draws, data, kernel) -> DesignMatrix:
    """The columns of ``points`` appended to ``existing`` (None: no columns yet).

    ``Z`` and ``Phi`` columns are accumulated in fixed chunks over the draws;
    ``basis`` is the basis of the resulting design.  Within a chunk the kernel
    sees only the live draws, those where at least one of ``points`` is
    nonzero: a draw outside every new support adds nothing to ``Z``.  A chunk
    with no live draw makes no kernel call.
    """
    if kernel is None:
        kernel = choice_probabilities
    n_pts = draws.n_draws
    Z = np.zeros((data.n_rows, len(points)))
    phi = np.empty((n_pts, len(points)))
    for start in range(0, n_pts, DESIGN_CHUNK):
        block = slice(start, min(start + DESIGN_CHUNK, n_pts))
        phi[block] = evaluate_basis_columns(points, basis.domain, draws.draws[block])
        live = np.flatnonzero(phi[block].any(axis=1))
        if live.size:
            g = kernel(data.x, draws.draws[block][live]).reshape(data.n_rows, -1)
            Z += g @ phi[block][live]
            # two blocks' kernel outputs alive at once would set the peak memory
            del g
    column_mass = phi.sum(axis=0)
    dead = np.flatnonzero(column_mass <= 0.0)
    if dead.size:
        raise DeadColumnError([points[k] for k in dead])
    if existing is not None:
        Z = np.hstack([existing.Z, Z])
        column_mass = np.concatenate([existing.column_mass, column_mass])
        phi = np.hstack([existing.basis_at_draws, phi])
    return DesignMatrix(
        Z=Z,
        column_mass=column_mass,
        basis_at_draws=phi,
        basis=basis,
        n_units=data.n_units,
        n_alts=data.n_alts,
    )


def build_design_matrix(
    data: ChoiceDataset,
    draws: DrawSet,
    basis: BasisSet,
    kernel=None,
) -> DesignMatrix:
    """Assemble the simulated design matrix for a basis.

    ``kernel`` defaults to :func:`choice_probabilities`; tests may inject a
    stub with the same ``(x, betas) -> (N, J, M)`` signature.  In each chunk
    of draws the kernel receives only the draws where some basis function is
    nonzero; with the level-1 root hat in the basis that is every draw.  Raises
    :class:`DeadColumnError` when some basis function has no draw in its
    support, which would create an identically zero column.
    """
    if data.dim != draws.dim or draws.dim != basis.domain.dim:
        raise ValueError("data, draws and basis dimensions must agree")
    return _assemble_columns(None, basis.grid.points, basis, draws, data, kernel)


def incremental_columns(
    existing: DesignMatrix,
    new_points,
    draws: DrawSet,
    data: ChoiceDataset,
    kernel=None,
) -> DesignMatrix:
    """Extend a design matrix with columns for newly added grid points.

    Existing columns are carried over unchanged (bit for bit); only the new
    columns are computed, and the kernel is evaluated only at the draws where
    some new column is nonzero.  The extended grid must remain hierarchically
    closed, which holds whenever ``new_points`` comes from a refinement step.
    """
    new_points = list(new_points)
    old_grid = existing.basis.grid
    for p in new_points:
        if p in old_grid:
            raise ValueError(f"point already in design: {p}")
    if len(set(new_points)) != len(new_points):
        raise ValueError("duplicate points in new_points")
    if not new_points:
        return existing
    new_grid = SparseGrid(
        old_grid.dim,
        old_grid.points + tuple(new_points),
        base_level=0,
        max_level=old_grid.max_level,
    )
    basis = BasisSet(new_grid, existing.basis.domain)
    return _assemble_columns(existing, new_points, basis, draws, data, kernel)


def write_dataset_csv(data: ChoiceDataset, path) -> None:
    """One row per (unit, alternative): unit_id, alt_id, chosen, x_1..x_D."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["unit_id", "alt_id", "chosen"] + [f"x_{d + 1}" for d in range(data.dim)]
        )
        for n in range(data.n_units):
            for j in range(data.n_alts):
                writer.writerow(
                    [int(data.unit_ids[n]), j + 1, int(round(data.y[n, j]))]
                    + [repr(float(v)) for v in data.x[n, j]]
                )


def read_dataset_csv(path) -> ChoiceDataset:
    """Parse a dataset CSV written by :func:`write_dataset_csv`.

    Rows must be grouped by unit with alternatives in 1..J order; malformed
    rows raise with their line number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["unit_id", "alt_id", "chosen"]:
            raise ValueError(f"{path}: unexpected header {header[:3]}")
        dim = len(header) - 3
        if dim < 1 or header[3:] != [f"x_{d + 1}" for d in range(dim)]:
            raise ValueError(f"{path}: malformed covariate header")
        units: list = []
        x_rows: list = []
        y_rows: list = []
        current_id = None
        cur_x: list = []
        cur_y: list = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3 + dim:
                raise ValueError(f"{path}: line {lineno}: expected {3 + dim} columns")
            try:
                unit_id = int(row[0])
                alt_id = int(row[1])
                chosen = int(row[2])
                xs = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not np.all(np.isfinite(xs)):
                raise ValueError(f"{path}: line {lineno}: covariates must be finite")
            if chosen not in (0, 1):
                raise ValueError(f"{path}: line {lineno}: chosen must be 0 or 1")
            if unit_id != current_id:
                if current_id is not None:
                    units.append(current_id)
                    x_rows.append(cur_x)
                    y_rows.append(cur_y)
                current_id, cur_x, cur_y = unit_id, [], []
            if alt_id != len(cur_x) + 1:
                raise ValueError(
                    f"{path}: line {lineno}: alt_id {alt_id} out of order "
                    f"(expected {len(cur_x) + 1})"
                )
            cur_x.append(xs)
            cur_y.append(float(chosen))
        if current_id is not None:
            units.append(current_id)
            x_rows.append(cur_x)
            y_rows.append(cur_y)
        if not units:
            raise ValueError(f"{path}: no data rows")
        n_alts = len(x_rows[0])
        for k, rows in enumerate(x_rows):
            if len(rows) != n_alts:
                raise ValueError(f"{path}: unit {units[k]} has {len(rows)} alternatives, "
                                 f"expected {n_alts}")
    return ChoiceDataset(
        x=np.asarray(x_rows, dtype=float),
        y=np.asarray(y_rows, dtype=float),
        unit_ids=np.asarray(units),
    )
