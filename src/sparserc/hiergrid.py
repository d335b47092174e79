"""Combinatorics of hierarchical dyadic grids.

A one-dimensional grid point is a pair ``(level, index)`` with ``level >= 1``
and an odd ``index`` in ``1 .. 2**level - 1``; it sits at the unit-interval
coordinate ``index * 2**-level``.  Multi-dimensional points carry one such
pair per dimension.  A :class:`SparseGrid` is an ordered, duplicate-free
collection of points that is closed under the parent relation in every
dimension, which is the structure the adaptive refinement loop relies on.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

DEFAULT_MAX_LEVEL = 5
# Largest full tensor grid :func:`build_full_grid` builds.
FULL_GRID_CAP = 2_000_000


class CapacityError(ValueError):
    """Requested grid exceeds the configured size cap."""


def index_set(level: int) -> list[int]:
    """Odd indices admissible at a level: ``{1, 3, ..., 2**level - 1}``.

    Parameters
    ----------
    level : int
        Discretization level, must be >= 1.

    Returns
    -------
    list of int
        The ``2**(level-1)`` odd indices in increasing order.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    return list(range(1, 2**level, 2))


@dataclass(frozen=True, slots=True)
class GridPoint:
    """A multi-dimensional dyadic grid point identified by integer pairs.

    Identity is the ``(levels, indices)`` pair; floating-point coordinates
    are derived, never stored, so equality is exact.
    """

    levels: tuple[int, ...]
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.levels) != len(self.indices):
            raise ValueError("levels and indices must have equal length")
        if not self.levels:
            raise ValueError("grid point needs at least one dimension")
        for l, i in zip(self.levels, self.indices):
            if l < 1:
                raise ValueError(f"level must be >= 1, got {l}")
            if i % 2 == 0 or not 1 <= i <= 2**l - 1:
                raise ValueError(f"index {i} not admissible at level {l}")

    @property
    def dim(self) -> int:
        return len(self.levels)

    @property
    def total_level(self) -> int:
        return sum(self.levels)

    def unit_coords(self) -> tuple[float, ...]:
        """Coordinates in the open unit cube."""
        return tuple(i * 2.0**-l for l, i in zip(self.levels, self.indices))

    def sort_key(self) -> tuple:
        return (self.total_level, self.levels, self.indices)


def hierarchical_parent(point: GridPoint, d: int) -> GridPoint | None:
    """Parent of ``point`` along dimension ``d``, or None at the root level.

    The parent is the unique coarser point whose support contains the
    point's coordinate in that dimension.
    """
    l, i = point.levels[d], point.indices[d]
    if l == 1:
        return None
    j = (i + 1) // 2
    if j % 2 == 0:
        j = (i - 1) // 2
    levels = point.levels[:d] + (l - 1,) + point.levels[d + 1:]
    indices = point.indices[:d] + (j,) + point.indices[d + 1:]
    return GridPoint(levels, indices)


def hierarchical_children(
    point: GridPoint, d: int, max_level: int = DEFAULT_MAX_LEVEL
) -> list[GridPoint]:
    """Both children of ``point`` along dimension ``d``.

    Returns an empty list when the next level would exceed ``max_level``.
    The children sit at the parent coordinate plus/minus the child mesh
    width, i.e. at indices ``2 i - 1`` and ``2 i + 1`` one level down.
    """
    l, i = point.levels[d], point.indices[d]
    if l + 1 > max_level:
        return []
    out = []
    for j in (2 * i - 1, 2 * i + 1):
        levels = point.levels[:d] + (l + 1,) + point.levels[d + 1:]
        indices = point.indices[:d] + (j,) + point.indices[d + 1:]
        out.append(GridPoint(levels, indices))
    return out


class SparseGrid:
    """Ordered set of grid points closed under the parent relation.

    The point order is stable and doubles as the column order of design
    matrices built on the grid.  Instances are immutable; refinement
    returns a new grid whose point list starts with the old one.
    """

    __slots__ = ("dim", "points", "max_level", "_pos")

    def __init__(
        self,
        dim: int,
        points,
        max_level: int = DEFAULT_MAX_LEVEL,
        validate: bool = True,
    ):
        points = tuple(points)
        if not points:
            raise ValueError("grid must contain at least one point")
        self.dim = int(dim)
        self.points = points
        self.max_level = int(max_level)
        self._pos = {p: k for k, p in enumerate(points)}
        if validate:
            self._validate()

    def _validate(self) -> None:
        if len(self._pos) != len(self.points):
            raise ValueError("duplicate grid points")
        for p in self.points:
            if p.dim != self.dim:
                raise ValueError(f"point dimension {p.dim} != grid dimension {self.dim}")
            if max(p.levels) > self.max_level:
                raise ValueError(f"point {p} exceeds max_level {self.max_level}")
        for p, d, parent in _missing_parents(self):
            raise ValueError(
                f"grid not hierarchically closed: {p} lacks parent {parent} in dim {d}"
            )

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point: GridPoint) -> bool:
        return point in self._pos

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseGrid)
            and self.dim == other.dim
            and self.points == other.points
        )

    def __repr__(self) -> str:
        return (
            f"SparseGrid(dim={self.dim}, n_points={len(self.points)}, "
            f"max_level={self.max_level})"
        )

    def position(self, point: GridPoint) -> int:
        """Column position of a point in the grid order."""
        return self._pos[point]


def _missing_parents(grid: SparseGrid):
    """Yield ``(point, d, parent)`` for each point's parent along dimension
    ``d`` that is not in the grid, in point and dimension order."""
    for p in grid.points:
        for d in range(grid.dim):
            parent = hierarchical_parent(p, d)
            if parent is not None and parent not in grid:
                yield p, d, parent


def is_hierarchically_closed(grid: SparseGrid) -> bool:
    """True when every point's parent in every dimension is in the grid."""
    return next(_missing_parents(grid), None) is None


def _level_vectors(dim: int, max_total: int, cap: int):
    """Yield level multi-indices with entries in ``1 .. cap`` and sum <= max_total."""
    for first in range(1, min(cap, max_total - dim + 1) + 1):
        if dim == 1:
            yield (first,)
        else:
            for rest in _level_vectors(dim - 1, max_total - first, cap):
                yield (first,) + rest


def _checked_max_level(dim: int, level: int, max_level: int | None) -> int:
    """Check a grid builder's arguments and resolve its per-dimension cap."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if max_level is None:
        return max(DEFAULT_MAX_LEVEL, level)
    if level > max_level:
        raise ValueError(f"level {level} exceeds max_level {max_level}")
    return max_level


def _dyadic_grid(dim: int, level: int, max_level: int, max_total: int) -> SparseGrid:
    """The sorted points with levels in ``1 .. level`` summing to at most ``max_total``."""
    points = [
        GridPoint(lv, idx)
        for lv in _level_vectors(dim, max_total, level)
        for idx in itertools.product(*(index_set(l) for l in lv))
    ]
    points.sort(key=GridPoint.sort_key)
    return SparseGrid(dim, points, max_level=max_level, validate=False)


def build_classical_sparse_grid(
    dim: int, level: int, max_level: int | None = None
) -> SparseGrid:
    """The sparse grid of all points with total level <= ``level + dim - 1``.

    Parameters
    ----------
    dim : int
        Number of dimensions, >= 1.
    level : int
        Sparse-grid level, >= 1.  In one dimension this is the full grid of
        that level.
    max_level : int, optional
        Per-dimension level cap carried by the grid for later refinement.
        Defaults to ``max(DEFAULT_MAX_LEVEL, level)``.

    Returns
    -------
    SparseGrid
        Points ordered lexicographically by (total level, levels, indices).
    """
    max_level = _checked_max_level(dim, level, max_level)
    return _dyadic_grid(dim, level, max_level, level + dim - 1)


def build_full_grid(dim: int, level: int, max_level: int | None = None) -> SparseGrid:
    """The full tensor grid with per-dimension levels up to ``level``.

    Contains ``(2**level - 1)**dim`` points; raises :class:`CapacityError`
    when that count exceeds ``FULL_GRID_CAP``.
    """
    max_level = _checked_max_level(dim, level, max_level)
    count = (2**level - 1) ** dim
    if count > FULL_GRID_CAP:
        raise CapacityError(
            f"full grid with dim={dim}, level={level} has {count} points, "
            f"exceeding the cap of {FULL_GRID_CAP}"
        )
    return _dyadic_grid(dim, level, max_level, level * dim)


def refinable_points(grid: SparseGrid) -> list[GridPoint]:
    """Points with at least one missing child within the grid's level cap."""
    out = []
    for p in grid.points:
        for d in range(grid.dim):
            children = hierarchical_children(p, d, grid.max_level)
            if any(c not in grid for c in children):
                out.append(p)
                break
    return out


@dataclass(frozen=True)
class RefinementReport:
    """What a refinement step added: direct children, closure ancestors,
    and targets skipped because they had no missing children."""

    children: tuple[GridPoint, ...]
    ancestors: tuple[GridPoint, ...]
    skipped: tuple[GridPoint, ...]

    @property
    def added(self) -> tuple[GridPoint, ...]:
        return self.children + self.ancestors


def refine(grid: SparseGrid, targets) -> tuple[SparseGrid, RefinementReport]:
    """Add all missing children of each target, then close under parents.

    Every missing child of every target (in every dimension, within the
    level cap) is added; afterwards any missing ancestor of an added point
    is added recursively so the result stays hierarchically closed.  The
    input grid's point order is a prefix of the output's; new points are
    appended in canonical order.

    Targets that are not in the grid raise; targets without missing
    children are skipped with a warning and reported.
    """
    targets = list(targets)
    for t in targets:
        if t not in grid:
            raise ValueError(f"refinement target not in grid: {t}")
    present = set(grid.points)
    children: list[GridPoint] = []
    child_set: set[GridPoint] = set()
    skipped: list[GridPoint] = []
    for t in targets:
        missing = [
            c
            for d in range(grid.dim)
            for c in hierarchical_children(t, d, grid.max_level)
            if c not in present
        ]
        if not missing:
            skipped.append(t)
            warnings.warn(f"refinement target has no missing children: {t}", stacklevel=2)
            continue
        for c in missing:
            if c not in child_set:
                children.append(c)
                child_set.add(c)
    ancestors: list[GridPoint] = []
    known = present | child_set
    queue = list(children)
    while queue:
        p = queue.pop()
        for d in range(grid.dim):
            parent = hierarchical_parent(p, d)
            if parent is not None and parent not in known:
                ancestors.append(parent)
                known.add(parent)
                queue.append(parent)
    added = sorted(children + ancestors, key=GridPoint.sort_key)
    new_grid = SparseGrid(
        grid.dim, grid.points + tuple(added), max_level=grid.max_level, validate=False
    )
    report = RefinementReport(
        children=tuple(sorted(children, key=GridPoint.sort_key)),
        ancestors=tuple(sorted(ancestors, key=GridPoint.sort_key)),
        skipped=tuple(skipped),
    )
    return new_grid, report


def grid_to_json(grid: SparseGrid) -> list[dict]:
    """Canonical-order list of ``{"levels": [...], "indices": [...]}``."""
    return [{"levels": list(p.levels), "indices": list(p.indices)} for p in grid.points]


def grid_from_json(items: list[dict], max_level: int | None = None) -> SparseGrid:
    """Rebuild a grid from :func:`grid_to_json` output; anything but a list
    of objects with integer lists ``levels`` and ``indices`` raises a
    ``ValueError``."""
    try:
        points = [GridPoint(tuple(it["levels"]), tuple(it["indices"])) for it in items]
    except (TypeError, KeyError) as exc:
        raise ValueError(
            f"grid must be a list of points with levels and indices: {exc!r}") from None
    if not all(type(v) is int for p in points for v in p.levels + p.indices):
        raise ValueError("grid levels and indices must be integers")
    if not points:
        raise ValueError("empty grid serialization")
    if max_level is None:
        max_level = max(DEFAULT_MAX_LEVEL, max(max(p.levels) for p in points))
    return SparseGrid(points[0].dim, points, max_level=max_level)
