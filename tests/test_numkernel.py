import numpy as np
import pytest
from hypothesis import given, strategies as st

from rackit.errors import CholeskyError, NumericalError, ValidationError
from rackit.numkernel import (
    CholeskyFactor,
    SymMatrix,
    accumulate_gram,
    cholesky,
    dampen,
    inverse_via_cholesky,
    solve_spd,
)

from .oracle import accumulate_gram_per_column, cho_solve_scipy

# Widths around multiples of the 8-row strip (a width 1 more than a multiple
# would leave a 1x1 tile) and block lengths around the 32-column chunk.
_WIDTHS = [*range(1, 42), 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513]
_LENGTHS = [1, 2, 7, 9, 31, 32, 33, 129, 300]


def _symmetric_start(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim + 2)) * scale
    return SymMatrix.from_array(a @ a.T)


def _per_column(start, block):
    ref = start.copy()
    for col in block:
        accumulate_gram_per_column(ref, col)
    return ref


class TestSymMatrix:
    def test_zeros(self):
        m = SymMatrix.zeros(3)
        assert m.dim == 3
        assert np.array_equal(m.data, np.zeros((3, 3)))

    def test_from_array_rejects_non_square(self):
        with pytest.raises(ValidationError):
            SymMatrix.from_array(np.zeros((2, 3)))

    def test_from_array_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            SymMatrix.from_array(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_from_array_rejects_nan(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            SymMatrix.from_array(bad)

    def test_copy_is_independent(self):
        m = SymMatrix.from_array(np.eye(2))
        c = m.copy()
        c.data[0, 0] = 5.0
        assert m.data[0, 0] == 1.0


class TestAccumulate:
    def test_matches_sum_of_outer_products(self):
        acc = SymMatrix.zeros(3)
        accumulate_gram(acc, np.array([1.0, 2.0, 3.0]))
        accumulate_gram(acc, np.array([0.0, -1.0, 2.0]))
        expected = np.array([
            [1.0, 2.0, 3.0],
            [2.0, 5.0, 4.0],
            [3.0, 4.0, 13.0],
        ])
        assert np.array_equal(acc.data, expected)

    def test_accumulation_is_bit_deterministic(self):
        rng = np.random.default_rng(3)
        cols = rng.standard_normal((5, 4))
        a = SymMatrix.zeros(4)
        b = SymMatrix.zeros(4)
        for c in cols:
            accumulate_gram(a, c)
            accumulate_gram(b, c)
        assert np.array_equal(a.data, b.data)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            accumulate_gram(SymMatrix.zeros(3), np.zeros(4))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValidationError):
            accumulate_gram(SymMatrix.zeros(3), np.zeros((3, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            accumulate_gram(SymMatrix.zeros(2), np.array([1.0, np.inf]))

    @pytest.mark.parametrize("dim", _WIDTHS)
    def test_block_equals_per_column_oracle(self, dim):
        rng = np.random.default_rng(dim)
        start = _symmetric_start(rng, dim)
        for length in _LENGTHS:
            block = rng.standard_normal((length, dim))
            want = _per_column(start, block)
            got = accumulate_gram(start.copy(), block)
            assert np.array_equal(got.data, want.data), length
            assert np.array_equal(got.data, got.data.T)

    @given(dim=st.integers(1, 80), length=st.integers(1, 100),
           exponent=st.integers(-8, 8), seed=st.integers(0, 10_000))
    def test_block_equals_per_column_oracle_at_any_scale(self, dim, length, exponent, seed):
        rng = np.random.default_rng(seed)
        start = _symmetric_start(rng, dim, 10.0 ** exponent)
        block = rng.standard_normal((length, dim)) * 10.0 ** exponent
        want = _per_column(start, block)
        assert np.array_equal(accumulate_gram(start.copy(), block).data, want.data)

    def test_empty_block_is_a_no_op(self):
        acc = _symmetric_start(np.random.default_rng(2), 5)
        before = acc.data.copy()
        accumulate_gram(acc, np.zeros((0, 5)))
        assert np.array_equal(acc.data, before)

    @pytest.mark.parametrize("bad", ["nan", "inf", "width", "3d"])
    def test_rejected_block_leaves_accumulator_untouched(self, bad):
        rng = np.random.default_rng(4)
        acc = _symmetric_start(rng, 6)
        before = acc.data.copy()
        block = {
            "nan": np.vstack([rng.standard_normal((40, 6)), np.full((1, 6), np.nan)]),
            "inf": np.vstack([rng.standard_normal((3, 6)), [[0, 0, 0, 0, 0, -np.inf]]]),
            "width": rng.standard_normal((4, 7)),
            "3d": rng.standard_normal((2, 4, 6)),
        }[bad]
        with pytest.raises(ValidationError):
            accumulate_gram(acc, block)
        assert np.array_equal(acc.data, before)


class TestDampen:
    def test_adds_fraction_of_mean_diagonal(self):
        m = SymMatrix.from_array(np.array([[4.0, 0.0], [0.0, 0.0]]))
        d = dampen(m, 0.01)
        # mean diagonal is 2.0, so 0.02 lands on every diagonal entry
        assert d.data[0, 0] == pytest.approx(4.02, abs=1e-15)
        assert d.data[1, 1] == pytest.approx(0.02, abs=1e-15)
        assert d.data[0, 1] == 0.0
        # input untouched
        assert m.data[1, 1] == 0.0

    def test_zero_trace_falls_back_to_unit_scale(self):
        d = dampen(SymMatrix.zeros(3), 0.5)
        assert np.array_equal(d.data, 0.5 * np.eye(3))

    def test_zero_fraction_is_identity_operation(self):
        m = SymMatrix.from_array(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.array_equal(dampen(m, 0.0).data, m.data)

    def test_rejects_negative_fraction(self):
        with pytest.raises(ValidationError):
            dampen(SymMatrix.zeros(2), -0.1)

    @given(dim=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_off_diagonal_untouched_and_diagonal_grows(self, dim, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((dim, dim + 2))
        m = SymMatrix.from_array(X @ X.T)
        d = dampen(m, 0.05)
        off = ~np.eye(dim, dtype=bool)
        assert np.array_equal(d.data[off], m.data[off])
        assert np.all(np.diag(d.data) > np.diag(m.data))


class TestCholesky:
    def test_hand_worked_2x2(self):
        m = SymMatrix.from_array(np.array([[4.0, 2.0], [2.0, 3.0]]))
        f = cholesky(m)
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(f.lower, expected, atol=1e-15)

    def test_indefinite_matrix_reports_failing_pivot(self):
        m = SymMatrix.from_array(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(CholeskyError) as exc:
            cholesky(m)
        assert exc.value.index == 1
        assert "pivot" in str(exc.value)

    def test_zero_matrix_fails_at_first_pivot(self):
        with pytest.raises(CholeskyError) as exc:
            cholesky(SymMatrix.zeros(3))
        assert exc.value.index == 0

    def test_factor_requires_positive_diagonal(self):
        with pytest.raises(NumericalError):
            CholeskyFactor(dim=2, lower=np.array([[1.0, 0.0], [0.0, 0.0]]))

    @given(dim=st.integers(1, 16), seed=st.integers(0, 10_000))
    def test_reconstructs_spd_input(self, dim, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((dim, dim + 4))
        m = SymMatrix.from_array(X @ X.T + dim * np.eye(dim))
        f = cholesky(m)
        np.testing.assert_allclose(f.reconstruct(), m.data, rtol=1e-9, atol=1e-9)
        assert np.array_equal(np.triu(f.lower, 1), np.zeros((dim, dim)))


class TestSolveSpd:
    def test_equals_scipy_cho_solve_oracle(self):
        """dpotrf and dpotrs called directly give the bits of scipy's wrappers."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = _symmetric_start(rng, int(rng.integers(1, 65))).data
            b = rng.standard_normal(a.shape[0])
            for rhs in (b, -b):
                got = solve_spd(a, rhs)
                assert got.shape == rhs.shape
                assert np.array_equal(got, cho_solve_scipy(a, rhs))

    def test_reads_only_the_lower_triangle(self, rng):
        a = _symmetric_start(rng, 7).data
        b = rng.standard_normal((7, 3))
        assert np.array_equal(solve_spd(np.tril(a), b), solve_spd(a, b))

    def test_indefinite_matrix_reports_failing_pivot(self):
        with pytest.raises(CholeskyError) as exc:
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
        assert exc.value.index == 1


class TestInverse:
    def test_hand_worked_2x2(self):
        m = SymMatrix.from_array(np.array([[4.0, 2.0], [2.0, 3.0]]))
        inv = inverse_via_cholesky(m)
        expected = np.array([[3.0, -2.0], [-2.0, 4.0]]) / 8.0
        np.testing.assert_allclose(inv.data, expected, atol=1e-14)

    def test_result_is_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((6, 12))
        inv = inverse_via_cholesky(SymMatrix.from_array(X @ X.T + np.eye(6)))
        assert np.array_equal(inv.data, inv.data.T)

    def test_indefinite_raises_cholesky_error(self):
        m = SymMatrix.from_array(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(CholeskyError):
            inverse_via_cholesky(m)

    @given(dim=st.integers(1, 16), seed=st.integers(0, 10_000))
    def test_left_inverse_property(self, dim, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((dim, dim + 4))
        m = SymMatrix.from_array(X @ X.T + dim * np.eye(dim))
        inv = inverse_via_cholesky(m)
        np.testing.assert_allclose(m.data @ inv.data, np.eye(dim), atol=1e-8)
