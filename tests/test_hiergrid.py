import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from sparserc.hiergrid import (
    CapacityError,
    GridPoint,
    SparseGrid,
    build_classical_sparse_grid,
    build_full_grid,
    grid_from_json,
    grid_to_json,
    hierarchical_children,
    hierarchical_parent,
    index_set,
    is_hierarchically_closed,
    refinable_points,
    refine,
)

# published sparse-grid sizes: (dim, level) -> count
SPARSE_COUNTS = {
    (2, 2): 5, (2, 3): 17, (2, 4): 49,
    (3, 2): 7, (3, 3): 31, (3, 4): 111,
    (4, 2): 9, (4, 3): 49, (4, 4): 209,
    (5, 2): 11, (5, 3): 71, (5, 4): 351,
    (6, 2): 13, (6, 3): 97, (6, 4): 545,
    (8, 2): 17, (8, 3): 161, (8, 4): 1121,
    (10, 2): 21, (10, 3): 241, (10, 4): 2001,
}


def closed_form_count(dim, level):
    return sum(2**i * math.comb(dim - 1 + i, dim - 1) for i in range(level))


class TestIndexSet:
    def test_level_one(self):
        assert index_set(1) == [1]

    def test_level_two(self):
        assert index_set(2) == [1, 3]

    def test_level_four_matches_enumeration(self):
        expected = [i for i in range(1, 16) if i % 2 == 1]
        assert index_set(4) == expected
        assert len(index_set(4)) == 8

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            index_set(0)


class TestGridPoint:
    def test_coordinates(self):
        p = GridPoint((2, 1), (3, 1))
        assert p.unit_coords() == (0.75, 0.5)
        assert p.total_level == 3

    def test_rejects_even_index(self):
        with pytest.raises(ValueError):
            GridPoint((2,), (2,))

    def test_rejects_index_out_of_range(self):
        with pytest.raises(ValueError):
            GridPoint((2,), (5,))

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            GridPoint((0,), (1,))


class TestClassicalGrid:
    @pytest.mark.parametrize("dim,level", sorted(SPARSE_COUNTS))
    def test_published_counts(self, dim, level):
        assert len(build_classical_sparse_grid(dim, level)) == SPARSE_COUNTS[(dim, level)]

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 7, 10])
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_closed_form(self, dim, level):
        assert len(build_classical_sparse_grid(dim, level)) == closed_form_count(dim, level)

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_one_dimension_is_full_grid(self, level):
        assert len(build_classical_sparse_grid(1, level)) == 2**level - 1

    def test_membership_rule(self):
        grid = build_classical_sparse_grid(3, 2)
        assert all(p.total_level <= 2 + 3 - 1 for p in grid)

    def test_nesting(self):
        for level in (2, 3, 4):
            small = set(build_classical_sparse_grid(2, level - 1).points)
            large = set(build_classical_sparse_grid(2, level).points)
            assert small < large

    def test_closed(self):
        assert is_hierarchically_closed(build_classical_sparse_grid(3, 3))

    def test_deterministic_ordering(self):
        a = build_classical_sparse_grid(4, 3)
        b = build_classical_sparse_grid(4, 3)
        assert a.points == b.points

    def test_canonical_order(self):
        grid = build_classical_sparse_grid(2, 3)
        keys = [p.sort_key() for p in grid]
        assert keys == sorted(keys)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_classical_sparse_grid(0, 2)
        with pytest.raises(ValueError):
            build_classical_sparse_grid(2, 0)


class TestFullGrid:
    def test_counts(self):
        assert len(build_full_grid(2, 3)) == 49
        assert len(build_full_grid(3, 2)) == 27

    def test_one_dimensional_points(self):
        grid = build_full_grid(1, 2)
        assert set(grid.points) == {
            GridPoint((1,), (1,)),
            GridPoint((2,), (1,)),
            GridPoint((2,), (3,)),
        }

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build_full_grid(10, 5)


class TestParentChild:
    def test_children_of_quarter_point(self):
        p = GridPoint((2,), (1,))  # coordinate 0.25
        kids = hierarchical_children(p, 0, 5)
        assert [k.unit_coords()[0] for k in kids] == [0.125, 0.375]

    def test_children_of_root(self):
        kids = hierarchical_children(GridPoint((1,), (1,)), 0, 5)
        assert [k.unit_coords()[0] for k in kids] == [0.25, 0.75]

    def test_children_along_second_dimension(self):
        p = GridPoint((2, 1), (1, 1))
        kids = hierarchical_children(p, 1, 5)
        assert {(k.levels, k.indices) for k in kids} == {
            ((2, 2), (1, 1)),
            ((2, 2), (1, 3)),
        }

    def test_children_respect_level_cap(self):
        assert hierarchical_children(GridPoint((3,), (5,)), 0, 3) == []

    def test_child_offset_is_half_mesh(self):
        p = GridPoint((3,), (5,))
        kids = hierarchical_children(p, 0, 5)
        b = p.unit_coords()[0]
        h_child = 2.0**-4
        assert [k.unit_coords()[0] for k in kids] == [b - h_child, b + h_child]

    def test_parent_examples(self):
        assert hierarchical_parent(GridPoint((3,), (5,)), 0) == GridPoint((2,), (3,))
        assert hierarchical_parent(GridPoint((1,), (1,)), 0) is None
        assert hierarchical_parent(GridPoint((2,), (1,)), 0) == GridPoint((1,), (1,))

    @given(
        level=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    def test_parent_child_duality(self, level, data):
        index = data.draw(st.sampled_from(index_set(level)))
        p = GridPoint((level,), (index,))
        for child in hierarchical_children(p, 0, level + 1):
            assert hierarchical_parent(child, 0) == p

    def test_parent_support_contains_child_coordinate(self):
        for level in range(2, 7):
            for i in index_set(level):
                p = GridPoint((level,), (i,))
                parent = hierarchical_parent(p, 0)
                b = parent.unit_coords()[0]
                h = 2.0 ** -parent.levels[0]
                assert b - h < p.unit_coords()[0] < b + h


def brute_force_closure(points, dim):
    """Independent fixpoint closure: keep adding missing parents."""
    out = set(points)
    changed = True
    while changed:
        changed = False
        for p in list(out):
            for d in range(dim):
                parent = hierarchical_parent(p, d)
                if parent is not None and parent not in out:
                    out.add(parent)
                    changed = True
    return out


class TestRefine:
    def test_two_dim_interior_point_adds_two_d_children(self):
        grid = build_classical_sparse_grid(2, 3)
        target = GridPoint((2, 2), (1, 1))  # at (0.25, 0.25)
        new_grid, report = refine(grid, [target])
        assert len(report.children) == 4
        assert report.ancestors == ()
        assert is_hierarchically_closed(new_grid)
        coords = {c.unit_coords() for c in report.children}
        assert coords == {(0.125, 0.25), (0.375, 0.25), (0.25, 0.125), (0.25, 0.375)}

    def test_root_only_grid(self):
        grid = SparseGrid(1, [GridPoint((1,), (1,))], max_level=5)
        new_grid, report = refine(grid, [GridPoint((1,), (1,))])
        assert len(report.children) == 2
        assert report.ancestors == ()
        assert len(new_grid) == 3

    def test_ancestor_closure_exceeds_two_d(self):
        # refining the freshly added diagonal point (2,2): its dim-2
        # children descend from (1,3)-level points the grid never had
        grid = build_classical_sparse_grid(2, 2)
        grid, _ = refine(grid, [GridPoint((2, 1), (1, 1))])
        target = GridPoint((2, 2), (1, 1))
        assert target in grid
        new_grid, report = refine(grid, [target])
        assert len(report.added) > 2 * 2
        assert len(report.ancestors) > 0
        assert GridPoint((1, 3), (1, 1)) in report.ancestors
        expected = brute_force_closure(
            set(grid.points)
            | {c for d in range(2) for c in hierarchical_children(target, d, 5)},
            2,
        )
        assert set(new_grid.points) == expected

    def test_matches_brute_force_closure_on_random_sequence(self):
        grid = build_classical_sparse_grid(2, 2)
        for _ in range(6):
            cands = refinable_points(grid)
            if not cands:
                break
            target = cands[len(cands) // 2]
            new_grid, report = refine(grid, [target])
            expected = brute_force_closure(
                set(grid.points)
                | {
                    c
                    for d in range(2)
                    for c in hierarchical_children(target, d, grid.max_level)
                    if c not in grid
                },
                2,
            )
            assert set(new_grid.points) == expected
            assert is_hierarchically_closed(new_grid)
            grid = new_grid

    def test_prefix_ordering(self):
        grid = build_classical_sparse_grid(2, 3)
        new_grid, _ = refine(grid, [GridPoint((2, 2), (1, 1))])
        assert new_grid.points[: len(grid)] == grid.points

    def test_invalid_target(self):
        grid = build_classical_sparse_grid(2, 2)
        with pytest.raises(ValueError, match="not in grid"):
            refine(grid, [GridPoint((4, 4), (1, 1))])

    def test_saturated_target_skipped_with_warning(self):
        grid = build_full_grid(1, 2, max_level=2)
        with pytest.warns(UserWarning, match="no missing children"):
            new_grid, report = refine(grid, [GridPoint((1,), (1,))])
        assert report.skipped == (GridPoint((1,), (1,)),)
        assert new_grid.points == grid.points


class TestRefinablePoints:
    def test_full_grid_at_cap_has_none(self):
        grid = build_full_grid(1, 3, max_level=3)
        assert refinable_points(grid) == []

    def test_classical_grid_level_two(self):
        # the root's four children are all level-2 points of this grid, so
        # only the four outer points have missing children
        grid = build_classical_sparse_grid(2, 2, max_level=5)
        refinable = refinable_points(grid)
        root = GridPoint((1, 1), (1, 1))
        assert root not in refinable
        assert refinable == [p for p in grid.points if p != root]

    def test_root_at_cap(self):
        grid = SparseGrid(1, [GridPoint((1,), (1,))], max_level=1)
        assert refinable_points(grid) == []


class TestSparseGridValidation:
    def test_duplicate_rejected(self):
        p = GridPoint((1,), (1,))
        with pytest.raises(ValueError, match="duplicate"):
            SparseGrid(1, [p, p])

    def test_closure_enforced(self):
        with pytest.raises(ValueError, match="closed"):
            SparseGrid(1, [GridPoint((2,), (1,))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SparseGrid(1, [])


class TestSerialization:
    def test_round_trip(self):
        grid = build_classical_sparse_grid(3, 3)
        blob = json.dumps(grid_to_json(grid))
        back = grid_from_json(json.loads(blob), max_level=grid.max_level)
        assert back.points == grid.points
        assert back.dim == grid.dim

    def test_round_trip_after_refinement(self):
        grid = build_classical_sparse_grid(2, 2)
        grid, _ = refine(grid, [GridPoint((2, 1), (3, 1))])
        back = grid_from_json(grid_to_json(grid), max_level=grid.max_level)
        assert back.points == grid.points


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 4), level=st.integers(1, 3))
def test_closure_and_count_properties(dim, level):
    grid = build_classical_sparse_grid(dim, level)
    assert is_hierarchically_closed(grid)
    assert len(grid) == closed_form_count(dim, level)


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 3), level=st.integers(2, 4), data=st.data())
def test_closure_check_agrees_with_validation(dim, level, data):
    # dropping a leaf keeps the grid closed, dropping any other point does not
    grid = build_classical_sparse_grid(dim, level)
    k = data.draw(st.integers(1, len(grid) - 1))
    points = grid.points[:k] + grid.points[k + 1:]
    closed = is_hierarchically_closed(SparseGrid(dim, points, grid.max_level, validate=False))
    try:
        SparseGrid(dim, points, grid.max_level)
        raised = False
    except ValueError as exc:
        assert "not hierarchically closed" in str(exc)
        raised = True
    assert closed is not raised
    dropped = grid.points[k]
    children = [c for d in range(dim) for c in hierarchical_children(dropped, d, level)]
    assert closed is not any(c in grid for c in children)
