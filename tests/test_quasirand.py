import numpy as np
import pytest
from scipy.stats import qmc

from sparserc.basis import BasisSet, Domain
from sparserc.choicemodel import ChoiceDataset, build_design_matrix
from sparserc.hiergrid import build_classical_sparse_grid
from sparserc.quasirand import MAX_DIM, halton_draws, radical_inverse, read_draws_csv


def radical_inverse_by_digits(n, base):
    """String-reversal oracle for the digit flip."""
    digits = []
    while n > 0:
        digits.append(n % base)
        n //= base
    return sum(d * base ** -(k + 1) for k, d in enumerate(digits))


class TestRadicalInverse:
    def test_base_two(self):
        assert radical_inverse(1, 2) == 0.5
        assert radical_inverse(3, 2) == 0.75

    def test_base_three(self):
        # 5 = 12 in base 3, digit reversal gives 2/3 + 1/9
        assert radical_inverse(5, 3) == pytest.approx(2 / 3 + 1 / 9, abs=1e-15)

    @pytest.mark.parametrize("base", [2, 3, 5, 7])
    def test_matches_digit_oracle(self, base):
        for n in range(1, 200):
            assert radical_inverse(n, base) == pytest.approx(
                radical_inverse_by_digits(n, base), abs=1e-15
            )

    def test_open_interval(self):
        vals = [radical_inverse(n, 2) for n in range(1, 500)]
        assert min(vals) > 0.0
        assert max(vals) < 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            radical_inverse(0, 2)
        with pytest.raises(ValueError):
            radical_inverse(3, 1)


class TestHaltonDraws:
    def test_first_point_unit_cube(self):
        draws = halton_draws(1, 2, burn_in=0)
        np.testing.assert_allclose(draws[0], [0.5, 1 / 3])

    def test_strictly_inside_open_cube(self):
        # past index 2**53 the float digit sum can round up to 1.0
        for draws in (halton_draws(5000, 3, burn_in=0),
                      halton_draws(3, MAX_DIM, burn_in=2**63 - 4)):
            assert draws.min() > 0.0
            assert draws.max() < 1.0

    def test_determinism(self):
        a = halton_draws(200, 4, burn_in=20)
        b = halton_draws(200, 4, burn_in=20)
        np.testing.assert_array_equal(a, b)

    def test_extension_consistency(self):
        a = halton_draws(100, 3, burn_in=20)
        b = halton_draws(101, 3, burn_in=20)
        np.testing.assert_array_equal(a, b[:100])

    def test_domain_mapping(self):
        dom = Domain.cube(2, -4.0, 4.0)
        draws = halton_draws(50, 2, burn_in=0, domain=dom)
        assert draws.min() > -4.0
        assert draws.max() < 4.0
        unit = halton_draws(50, 2, burn_in=0)
        np.testing.assert_allclose(draws, dom.from_unit(unit))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="1..20"):
            halton_draws(10, 21)

    def test_read_only(self):
        # a fit's support is this array, so it stays immutable
        draws = halton_draws(10, 2)
        assert draws.shape == (10, 2)
        with pytest.raises(ValueError, match="read-only"):
            draws[0, 0] = 0.5

    def test_indices_past_64_bits_name_burn_in(self):
        # the last point index, burn_in + n_draws, must fit a 64-bit integer
        with pytest.raises(ValueError, match="^burn_in must be <= 9223372036854775797 for 10 "
                                             "draws, got 9223372036854775807$"):
            halton_draws(10, 2, burn_in=2**63 - 1)
        assert halton_draws(10, 2, burn_in=2**63 - 11).shape == (10, 2)

    def test_matches_scipy_sequence(self):
        # scipy's unscrambled Halton starts at index 0; ours starts at 1
        ours = halton_draws(63, 2, burn_in=0)
        ref = qmc.Halton(d=2, scramble=False).random(64)[1:]
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_lower_discrepancy_than_pseudorandom(self):
        n, dim = 512, 2
        halton = halton_draws(n, dim, burn_in=0)
        pseudo = np.random.default_rng(123).uniform(size=(n, dim))
        d_halton = qmc.discrepancy(halton, method="L2-star")
        d_pseudo = qmc.discrepancy(pseudo, method="L2-star")
        assert d_halton < d_pseudo


class TestCoverage:
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_every_basis_column_sees_a_draw(self, dim):
        dom = Domain.cube(dim, -4.0, 4.0)
        draws = halton_draws(2000 * dim, dim, burn_in=20, domain=dom)
        grid = build_classical_sparse_grid(dim, 4)
        basis = BasisSet(grid, dom)
        vals = basis.evaluate(draws).toarray()
        assert (vals.sum(axis=0) > 0).all()


class TestDrawSet:
    """The draw set is a ``(R, D)`` array; its dimension is checked where
    it meets the data and the basis."""

    def test_validation(self):
        dom = Domain.cube(2)
        data = ChoiceDataset(np.zeros((4, 2, 2)), np.zeros((4, 2)))
        basis = BasisSet(build_classical_sparse_grid(2, 1), dom)
        with pytest.raises(ValueError, match="dimensions must agree"):
            build_design_matrix(data, np.full((3, 3), 0.5), basis)

    def test_csv_round_trip(self, tmp_path):
        dom = Domain.cube(3, -4.0, 4.0)
        draws = halton_draws(40, 3, burn_in=5, domain=dom)
        path = tmp_path / "draws.csv"
        rows = [",".join(repr(float(v)) for v in row) for row in draws]
        path.write_text("\n".join(["beta_1,beta_2,beta_3"] + rows) + "\n")
        back = read_draws_csv(path)
        np.testing.assert_array_equal(back, draws)

    def test_csv_keeps_infinite_coordinates(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("beta_1,beta_2\n-inf,inf\n")
        np.testing.assert_array_equal(read_draws_csv(path), [[-np.inf, np.inf]])
