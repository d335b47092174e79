import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from sparserc.basis import (
    BasisSet,
    Domain,
    eval_1d,
    eval_nd,
    evaluate_basis_columns,
    evaluate_surpluses,
    hat,
    hierarchize_full_grid_1d,
)
from sparserc.hiergrid import (
    GridPoint,
    SparseGrid,
    build_classical_sparse_grid,
    build_full_grid,
    index_set,
    refinable_points,
    refine,
)
from sparserc.quasirand import halton_draws


class TestHat:
    def test_peak(self):
        assert hat(0.0) == 1.0

    def test_support_edges(self):
        assert hat(1.0) == 0.0
        assert hat(-1.0) == 0.0

    def test_slope(self):
        assert hat(0.5) == 0.5

    def test_vectorized(self):
        np.testing.assert_allclose(hat(np.array([-2.0, 0.0, 0.25])), [0.0, 1.0, 0.75])


class TestEval1d:
    def test_center(self):
        assert eval_1d(2, 1, 0.25) == 1.0

    def test_support_boundary(self):
        assert eval_1d(2, 1, 0.5) == 0.0

    def test_interior_value(self):
        # center 0.625, half-width 0.125
        assert eval_1d(3, 5, 0.6875) == pytest.approx(0.5, abs=1e-15)

    def test_outside_cube_clips_to_zero(self):
        assert eval_1d(1, 1, 1.7) == 0.0
        assert eval_1d(1, 1, -0.3) == 0.0

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            eval_1d(2, 2, 0.5)
        with pytest.raises(ValueError):
            eval_1d(0, 1, 0.5)

    def test_same_level_disjoint_support(self):
        u = np.linspace(0, 1, 2001)
        for level in (2, 3, 4):
            idx = index_set(level)
            for a in idx:
                for b in idx:
                    if a < b:
                        overlap = eval_1d(level, a, u) * eval_1d(level, b, u)
                        assert overlap.max() < 1e-12


class TestDomain:
    def test_to_unit_examples(self):
        dom = Domain.cube(3, -4.0, 4.0)
        np.testing.assert_allclose(dom.to_unit(dom.lower), 0.0)
        np.testing.assert_allclose(dom.to_unit((dom.lower + dom.upper) / 2), 0.5)
        np.testing.assert_allclose(dom.to_unit(np.array([2.0, 2.0, 2.0])), 0.75)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        dom = Domain(np.array([-1.0, 0.5]), np.array([2.0, 7.0]))
        x = rng.uniform(-3, 9, size=(50, 2))
        np.testing.assert_allclose(dom.from_unit(dom.to_unit(x)), x, atol=1e-12)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Domain(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("lower, upper, name", [
        ([-np.inf, 0.0], [1.0, 1.0], "lower"), ([0.0], [np.inf], "upper"),
    ])
    def test_rejects_infinite_bounds(self, lower, upper, name):
        with pytest.raises(ValueError, match=f"^{name} must hold finite numbers"):
            Domain(np.array(lower), np.array(upper))


class TestEvalNd:
    def setup_method(self):
        self.unit = Domain.cube(2, 0.0, 1.0)
        self.point = GridPoint((2, 1), (1, 1))

    def test_tensor_center(self):
        assert eval_nd(self.point, self.unit, np.array([0.25, 0.5])) == 1.0

    def test_zero_factor_kills_product(self):
        assert eval_nd(self.point, self.unit, np.array([0.5, 0.5])) == 0.0

    def test_product_of_factors(self):
        val = eval_nd(self.point, self.unit, np.array([0.125, 0.25]))
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_nd(self.point, self.unit, np.array([0.5]))

    def test_rescaled_domain(self):
        dom = Domain.cube(2, -4.0, 4.0)
        beta = dom.from_unit(np.array([0.25, 0.5]))
        assert eval_nd(self.point, dom, beta) == pytest.approx(1.0)


class TestBasisSet:
    def test_center_normalization(self):
        grid = build_classical_sparse_grid(2, 3)
        basis = BasisSet(grid, Domain.cube(2))
        centers = basis.domain.from_unit(np.array([p.unit_coords() for p in grid.points]))
        vals = basis.evaluate(centers).toarray()
        np.testing.assert_allclose(np.diag(vals), 1.0, atol=1e-14)

    def test_collocation_matrix_unit_lower_triangular(self):
        grid = build_classical_sparse_grid(3, 3)
        basis = BasisSet(grid, Domain.cube(3))
        mat = basis.evaluate(basis.domain.from_unit([p.unit_coords() for p in grid.points]))
        mat = mat.toarray()
        np.testing.assert_allclose(np.diag(mat), 1.0, atol=1e-14)
        upper = np.triu(mat, k=1)
        assert np.abs(upper).max() == 0.0
        # full rank follows from the unit diagonal
        assert np.linalg.matrix_rank(mat) == len(grid)

    def test_evaluate_matches_pointwise(self):
        rng = np.random.default_rng(1)
        grid = build_classical_sparse_grid(2, 3)
        dom = Domain.cube(2)
        basis = BasisSet(grid, dom)
        pts = rng.uniform(-4, 4, size=(40, 2))
        mat = basis.evaluate(pts).toarray()
        for j, p in enumerate(grid.points):
            np.testing.assert_allclose(mat[:, j], eval_nd(p, dom, pts), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BasisSet(build_classical_sparse_grid(2, 2), Domain.cube(3))


def stored_values(out):
    """The dense view of a CSR basis matrix, after checking its layout: int32
    indices, sorted within each row, and no stored zero."""
    assert isinstance(out, sp.csr_array)
    assert out.indices.dtype == np.int32 and out.indptr.dtype == np.int32
    for row in np.split(out.indices, out.indptr[1:-1]):
        assert (np.diff(row) > 0).all()
    assert (out.data != 0.0).all()
    return out.toarray()


def pointwise_columns(points, domain, at):
    """The brute-force oracle: one :func:`eval_nd` call per basis function."""
    return np.column_stack([eval_nd(p, domain, at) for p in points])


def dense_product_columns(points, domain, at):
    """Every basis function at every point as a running product over the
    dimensions, each factor looked up among the distinct 1-D hats."""
    u = domain.to_unit(at)
    out = np.ones((at.shape[0], len(points)))
    for d in range(domain.dim):
        pairs = [(p.levels[d], p.indices[d]) for p in points]
        uniq = sorted(set(pairs))
        cols = {pair: k for k, pair in enumerate(uniq)}
        vals = np.column_stack([eval_1d(l, i, u[:, d]) for l, i in uniq])
        out *= vals[:, [cols[pair] for pair in pairs]]
    return out


@st.composite
def adaptive_grids(draw):
    """A classical grid refined a few times at random refinable points, so
    some hierarchical subspaces are incomplete."""
    dim = draw(st.integers(1, 4))
    level = draw(st.integers(1, 3 if dim <= 2 else 2))
    grid = build_classical_sparse_grid(dim, level, max_level=draw(st.integers(level, 6)))
    for _ in range(draw(st.integers(0, 4))):
        candidates = refinable_points(grid)
        if not candidates:
            break
        targets = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3, unique=True))
        grid, _ = refine(grid, targets)
    return grid


@st.composite
def grids_and_points(draw):
    """A grid, a box with dyadic bounds (so dyadic unit coordinates map
    exactly), and points inside and outside it, some on dyadic cell edges
    and on the bounds."""
    grid = draw(adaptive_grids())
    lower = np.array(draw(st.lists(st.integers(-4, 4), min_size=grid.dim, max_size=grid.dim)))
    widths = draw(st.lists(st.integers(-1, 3), min_size=grid.dim, max_size=grid.dim))
    domain = Domain(lower, lower + 2.0 ** np.array(widths))
    edge = st.builds(
        lambda m, k: k / 2.0**m, st.integers(0, grid.max_level), st.integers(-2, 66)
    ).filter(lambda c: c <= 1.25)
    coord = st.one_of(
        edge, st.floats(-0.25, 1.25), st.floats(-3.0, 4.0), st.sampled_from([0.0, 1.0])
    )
    rows = draw(st.lists(
        st.lists(coord, min_size=grid.dim, max_size=grid.dim), min_size=1, max_size=40
    ))
    return grid, domain, domain.from_unit(np.array(rows))


class TestEvaluateBasisColumns:
    """The subspace lookup against the brute-force oracle, bit for bit."""

    @settings(max_examples=150)
    @given(case=grids_and_points())
    def test_matches_pointwise_oracle_bit_for_bit(self, case):
        grid, domain, at = case
        out = stored_values(evaluate_basis_columns(grid.points, domain, at))
        assert np.array_equal(out, pointwise_columns(grid.points, domain, at))
        assert np.array_equal(out, dense_product_columns(grid.points, domain, at))

    def test_six_dim_level_four_matches_dense_product(self):
        grid = build_classical_sparse_grid(6, 4)
        domain = Domain.cube(6)
        draws = halton_draws(12_000, 6, domain=domain)
        out = evaluate_basis_columns(grid.points, domain, draws)
        assert out.shape == (12_000, 545)
        # at most one entry per level vector in each row
        assert np.diff(out.indptr).max() <= len({p.levels for p in grid.points})
        out = stored_values(out)
        assert np.array_equal(out, dense_product_columns(grid.points, domain, draws))

    def test_levels_past_62_bits(self):
        # a 1-D chain to level 70: its subspace keys need Python integers
        points = [GridPoint((1,), (1,))]
        for l in range(2, 71):
            points.append(GridPoint((l,), (2 * points[-1].indices[0] - 1,)))
        grid = SparseGrid(1, points, max_level=70)
        domain = Domain.cube(1, 0.0, 1.0)
        # the chain's centers are 2**-l; the last one is row 2
        at = np.array([[0.0], [2.0**-69], [2.0**-70], [3 * 2.0**-71], [1e-18], [0.3], [1.0]])
        out = stored_values(evaluate_basis_columns(grid.points, domain, at))
        assert np.array_equal(out, pointwise_columns(grid.points, domain, at))
        assert out[2, -1] == 1.0

    def test_points_outside_the_domain_give_zero_rows(self):
        # one coordinate outside the unit interval, by up to three widths,
        # the other inside: no cell index may spill into the other dimension
        grid = build_classical_sparse_grid(2, 3)
        domain = Domain.cube(2)
        rng = np.random.default_rng(0)
        out = np.concatenate([rng.uniform(1.0, 4.0, 200), rng.uniform(-3.0, 0.0, 200)])
        inside = rng.uniform(0.0, 1.0, 400)
        u = np.concatenate([np.column_stack([out, inside]), np.column_stack([inside, out])])
        at = np.vstack([domain.from_unit(u), [[-4.5, 0.0], [0.0, 4.0], [1e300, -1e300]]])
        out = evaluate_basis_columns(grid.points, domain, at)
        assert out.shape == (at.shape[0], len(grid)) and out.nnz == 0

    def test_non_finite_point_names_its_row(self):
        at = np.zeros((3, 2))
        at[1, 0] = np.nan
        with pytest.raises(ValueError, match="evaluation points must be finite: row 1"):
            evaluate_basis_columns(build_classical_sparse_grid(2, 2).points, Domain.cube(2), at)


def brute_force_surpluses(values):
    """Solve the full interpolation system directly (independent oracle)."""
    n = len(values)
    level = int(np.log2(n + 1))
    coords = np.arange(1, n + 1) / 2.0**level
    pairs = [(l, i) for l in range(1, level + 1) for i in index_set(l)]
    mat = np.column_stack([eval_1d(l, i, coords) for l, i in pairs])
    sol = np.linalg.solve(mat, values)
    return dict(zip(pairs, sol))


class TestHierarchize:
    def test_single_basis_function(self):
        level = 3
        coords = np.arange(1, 2**level) / 2.0**level
        values = eval_1d(1, 1, coords)
        surpluses = hierarchize_full_grid_1d(values)
        assert surpluses[(1, 1)] == pytest.approx(1.0, abs=1e-14)
        others = [v for k, v in surpluses.items() if k != (1, 1)]
        assert np.abs(others).max() < 1e-14

    def test_zero_values(self):
        surpluses = hierarchize_full_grid_1d(np.zeros(7))
        assert all(v == 0.0 for v in surpluses.values())

    def test_quadratic_surpluses(self):
        # f(u) = u(1-u): every level-k surplus equals the squared mesh 4^-k
        level = 3
        coords = np.arange(1, 2**level) / 2.0**level
        values = coords * (1 - coords)
        surpluses = hierarchize_full_grid_1d(values)
        for (l, i), v in surpluses.items():
            assert v == pytest.approx(4.0**-l, abs=1e-14), (l, i)
        oracle = brute_force_surpluses(values)
        for key, v in oracle.items():
            assert surpluses[key] == pytest.approx(v, abs=1e-12)

    def test_matches_brute_force_on_random_values(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=15)
        surpluses = hierarchize_full_grid_1d(values)
        oracle = brute_force_surpluses(values)
        for key, v in oracle.items():
            assert surpluses[key] == pytest.approx(v, abs=1e-12)

    def test_reproduces_nodal_values(self):
        rng = np.random.default_rng(8)
        level = 4
        values = rng.normal(size=2**level - 1)
        surpluses = hierarchize_full_grid_1d(values)
        coords = np.arange(1, 2**level) / 2.0**level
        recon = evaluate_surpluses(surpluses, coords)
        np.testing.assert_allclose(recon, values, atol=1e-12)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            hierarchize_full_grid_1d(np.zeros(6))


class TestSurplusDecay:
    def test_sine_surplus_shrink_rate(self):
        # exact factors are 4.8284, 2.9449, 3.7318, 3.9326, 3.9831: the
        # coarsest pair undershoots 3, so the dyadic rate is asserted on
        # the asymptotic pairs and on the mean shrink across levels 2-6
        level = 6
        coords = np.arange(1, 2**level) / 2.0**level
        surpluses = hierarchize_full_grid_1d(np.sin(np.pi * coords))
        max_by_level = {
            l: max(abs(v) for (k, i), v in surpluses.items() if k == l)
            for l in range(1, level + 1)
        }
        for l in (4, 5, 6):
            ratio = max_by_level[l - 1] / max_by_level[l]
            assert 3.0 <= ratio <= 5.0, (l, ratio)
        mean_rate = (max_by_level[2] / max_by_level[6]) ** 0.25
        assert 3.0 <= mean_rate <= 5.0


def test_full_grid_basis_covers_cube():
    # every interior point is inside the support of one function per level
    grid = build_full_grid(1, 4)
    basis = BasisSet(grid, Domain.cube(1, 0.0, 1.0))
    pts = np.linspace(0.01, 0.99, 101)[:, None]
    vals = basis.evaluate(pts).toarray()
    assert (vals.sum(axis=1) > 0).all()
