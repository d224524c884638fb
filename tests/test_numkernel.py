import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from rackit import numkernel
from rackit.errors import CholeskyError, NumericalError, ValidationError
from rackit.numkernel import (
    accumulate_gram,
    cholesky,
    dampen,
    inverse_via_cholesky,
    solve_spd,
)

from .helpers import fresh_python
from .oracle import accumulate_gram_per_column, cho_solve_scipy, inverse_scipy

# Widths around multiples of the 8-row strip (a width 1 more than a multiple
# would leave a 1x1 tile) and block lengths around the 32-column chunk.
_WIDTHS = [*range(1, 42), 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513]
_LENGTHS = [1, 2, 7, 9, 31, 32, 33, 129, 300]


def _symmetric_start(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim + 2)) * scale
    return a @ a.T


def _layouts(rng, dim):
    """An SPD matrix of order ``dim`` C-ordered, Fortran-ordered, and as a
    strided view into a larger array."""
    a = _symmetric_start(rng, dim) + np.eye(dim)
    big = np.zeros((2 * dim, 2 * dim))
    big[::2, ::2] = a
    return [a, np.asfortranarray(a), big[::2, ::2]]


def _per_column(start, block):
    ref = start.copy()
    for col in block:
        accumulate_gram_per_column(ref, col)
    return ref


class TestAccumulate:
    def test_matches_sum_of_outer_products(self):
        acc = np.zeros((3, 3))
        accumulate_gram(acc, np.array([1.0, 2.0, 3.0]))
        accumulate_gram(acc, np.array([0.0, -1.0, 2.0]))
        expected = np.array([
            [1.0, 2.0, 3.0],
            [2.0, 5.0, 4.0],
            [3.0, 4.0, 13.0],
        ])
        assert np.array_equal(acc, expected)

    def test_accumulation_is_bit_deterministic(self):
        rng = np.random.default_rng(3)
        cols = rng.standard_normal((5, 4))
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        for c in cols:
            accumulate_gram(a, c)
            accumulate_gram(b, c)
        assert np.array_equal(a, b)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            accumulate_gram(np.zeros((3, 3)), np.zeros(4))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValidationError):
            accumulate_gram(np.zeros((3, 3)), np.zeros((3, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            accumulate_gram(np.zeros((2, 2)), np.array([1.0, np.inf]))

    @pytest.mark.parametrize("acc", [
        np.zeros((2, 2), dtype=np.float32),
        np.zeros((2, 3)),
        np.zeros(2),
        [[0.0, 0.0], [0.0, 0.0]],
    ], ids=["float32", "non-square", "1-d", "list"])
    def test_rejects_accumulator_that_is_not_a_square_float64_array(self, acc):
        with pytest.raises(ValidationError, match="square float64 array"):
            accumulate_gram(acc, np.ones(2))
        assert not np.asarray(acc).any()

    @pytest.mark.parametrize("dim", _WIDTHS)
    def test_block_equals_per_column_oracle(self, dim):
        rng = np.random.default_rng(dim)
        start = _symmetric_start(rng, dim)
        for length in _LENGTHS:
            block = rng.standard_normal((length, dim))
            want = _per_column(start, block)
            got = accumulate_gram(start.copy(), block)
            assert np.array_equal(got, want), length
            assert np.array_equal(got, got.T)

    @given(dim=st.integers(1, 80), length=st.integers(1, 100),
           exponent=st.integers(-8, 8), seed=st.integers(0, 10_000))
    def test_block_equals_per_column_oracle_at_any_scale(self, dim, length, exponent, seed):
        rng = np.random.default_rng(seed)
        start = _symmetric_start(rng, dim, 10.0 ** exponent)
        block = rng.standard_normal((length, dim)) * 10.0 ** exponent
        want = _per_column(start, block)
        assert np.array_equal(accumulate_gram(start.copy(), block), want)

    @pytest.mark.parametrize("dim", [9, 16, 33])
    def test_zero_heavy_blocks_keep_the_oracle_bits_and_signs(self, dim):
        """From a zero start, columns full of signed zeros and mixed signs
        give the per-column fold's bits, the sign of every zero included."""
        rng = np.random.default_rng(dim)
        for _ in range(20):
            block = rng.choice([0.0, -0.0, 1.5, -2.0], size=(rng.integers(1, 70), dim),
                               p=[0.4, 0.4, 0.1, 0.1])
            want = _per_column(np.zeros((dim, dim)), block)
            got = accumulate_gram(np.zeros((dim, dim)), block)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_negative_zero_reached_only_by_zero_products_becomes_positive(self):
        """The fold of each entry starts from +0.0, so a -0.0 entry to which
        only zero products are added comes back +0.0, equal in value."""
        acc = np.full((4, 4), -0.0)
        block = np.array([[-0.0, 1.0, 2.0, 3.0], [0.0, -1.0, 1.0, 1.0]])
        accumulate_gram(acc, block)
        assert not np.signbit(acc[0, 1:]).any()
        assert not np.signbit(acc[1:, 0]).any()
        assert np.array_equal(acc[1:, 1:], [[2.0, 1.0, 2.0], [1.0, 5.0, 7.0],
                                            [2.0, 7.0, 10.0]])

    def test_empty_block_is_a_no_op(self):
        acc = _symmetric_start(np.random.default_rng(2), 5)
        before = acc.copy()
        accumulate_gram(acc, np.zeros((0, 5)))
        assert np.array_equal(acc, before)

    @pytest.mark.parametrize("bad", ["nan", "inf", "width", "3d"])
    def test_rejected_block_leaves_accumulator_untouched(self, bad):
        rng = np.random.default_rng(4)
        acc = _symmetric_start(rng, 6)
        before = acc.copy()
        block = {
            "nan": np.vstack([rng.standard_normal((40, 6)), np.full((1, 6), np.nan)]),
            "inf": np.vstack([rng.standard_normal((3, 6)), [[0, 0, 0, 0, 0, -np.inf]]]),
            "width": rng.standard_normal((4, 7)),
            "3d": rng.standard_normal((2, 4, 6)),
        }[bad]
        with pytest.raises(ValidationError):
            accumulate_gram(acc, block)
        assert np.array_equal(acc, before)


class TestDampen:
    def test_adds_fraction_of_mean_diagonal(self):
        m = np.array([[4.0, 0.0], [0.0, 0.0]])
        d = dampen(m, 0.01)
        # mean diagonal is 2.0, so 0.02 lands on every diagonal entry
        assert d[0, 0] == pytest.approx(4.02, abs=1e-15)
        assert d[1, 1] == pytest.approx(0.02, abs=1e-15)
        assert d[0, 1] == 0.0
        # input untouched
        assert m[1, 1] == 0.0

    def test_accepts_a_nested_list(self):
        assert np.array_equal(dampen([[1.0, 0.0], [0.0, 1.0]], 0.1), 1.1 * np.eye(2))

    def test_zero_trace_falls_back_to_unit_scale(self):
        d = dampen(np.zeros((3, 3)), 0.5)
        assert np.array_equal(d, 0.5 * np.eye(3))

    def test_zero_fraction_is_identity_operation(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(dampen(m, 0.0), m)

    def test_rejects_negative_fraction(self):
        with pytest.raises(ValidationError):
            dampen(np.zeros((2, 2)), -0.1)

    @pytest.mark.parametrize("fraction", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_fraction(self, fraction):
        with pytest.raises(ValidationError, match="finite"):
            dampen(np.eye(2), fraction)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3), (2, 3), (3,), (), (2, 2, 2)])
    def test_rejects_empty_matrix(self, shape):
        """The shapes the LAPACK helpers reject, with their message."""
        with pytest.raises(ValidationError, match="empty or not square"):
            dampen(np.zeros(shape), 0.01)

    @given(dim=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_off_diagonal_untouched_and_diagonal_grows(self, dim, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((dim, dim + 2))
        m = X @ X.T
        d = dampen(m, 0.05)
        off = ~np.eye(dim, dtype=bool)
        assert np.array_equal(d[off], m[off])
        assert np.all(np.diag(d) > np.diag(m))


class TestCholesky:
    def test_hand_worked_2x2(self):
        f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(f, expected, atol=1e-15)

    def test_indefinite_matrix_reports_failing_pivot(self):
        with pytest.raises(CholeskyError) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.index == 1
        assert "pivot" in str(exc.value)

    def test_zero_matrix_fails_at_first_pivot(self):
        with pytest.raises(CholeskyError) as exc:
            cholesky(np.zeros((3, 3)))
        assert exc.value.index == 0

    def test_factor_requires_positive_diagonal(self):
        """dpotrf factors a NaN matrix with no error; the diagonal check catches it."""
        with pytest.raises(NumericalError, match="positive diagonal"):
            cholesky(np.full((8, 8), np.nan))

    @pytest.mark.parametrize("a", [
        np.full((8, 8), np.nan),
        np.diag([1.0, np.nan]),
        np.array([[4.0, np.nan], [np.nan, 3.0]]),
        np.diag(np.full(3, np.inf)),
        np.full((2, 2), np.inf),
    ], ids=["all", "diagonal", "off-diagonal", "inf-diagonal", "all-inf"])
    def test_nan_input_raises_numerical_error(self, a):
        for call in (lambda: cholesky(a), lambda: solve_spd(a, np.ones(len(a)))):
            with pytest.raises(NumericalError, match="positive diagonal"):
                call()

    @given(dim=st.integers(1, 16), seed=st.integers(0, 10_000))
    def test_reconstructs_spd_input(self, dim, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((dim, dim + 4))
        m = X @ X.T + dim * np.eye(dim)
        f = cholesky(m)
        np.testing.assert_allclose(f @ f.T, m, rtol=1e-9, atol=1e-9)
        assert np.array_equal(np.triu(f, 1), np.zeros((dim, dim)))

    def test_equals_scipy_cholesky_oracle(self):
        """dpotrf through scipy's own wrapper gives the bits of scipy.linalg.cholesky."""
        rng = np.random.default_rng(3)
        for dim in [*range(1, 18), 63, 64, 65, 128]:
            for a in _layouts(rng, dim):
                assert np.array_equal(cholesky(a), scipy.linalg.cholesky(a, lower=True))


class TestSolveSpd:
    def test_equals_scipy_cho_solve_oracle(self):
        """dpotrf and dpotrs called directly give the bits of scipy's wrappers."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = _symmetric_start(rng, int(rng.integers(1, 65)))
            b = rng.standard_normal(a.shape[0])
            for rhs in (b, -b):
                got = solve_spd(a, rhs)
                assert got.shape == rhs.shape
                assert np.array_equal(got, cho_solve_scipy(a, rhs))

    def test_reads_only_the_lower_triangle(self, rng):
        a = _symmetric_start(rng, 7)
        b = rng.standard_normal((7, 3))
        assert np.array_equal(solve_spd(np.tril(a), b), solve_spd(a, b))

    def test_indefinite_matrix_reports_failing_pivot(self):
        with pytest.raises(CholeskyError) as exc:
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
        assert exc.value.index == 1

    @pytest.mark.parametrize("b", [np.ones(4), np.ones(2), np.ones((4, 2)),
                                   np.float64(1.0), np.ones((3, 1, 1))],
                             ids=["long", "short", "long-block", "scalar", "3d"])
    def test_rejects_wrong_right_hand_side(self, b):
        with pytest.raises(ValidationError, match="right-hand side"):
            solve_spd(np.eye(3), b)


class TestInverse:
    def test_hand_worked_2x2(self):
        inv = inverse_via_cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[3.0, -2.0], [-2.0, 4.0]]) / 8.0
        np.testing.assert_allclose(inv, expected, atol=1e-14)

    def test_result_is_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((6, 12))
        inv = inverse_via_cholesky(X @ X.T + np.eye(6))
        assert np.array_equal(inv, inv.T)

    def test_indefinite_raises_cholesky_error(self):
        with pytest.raises(CholeskyError):
            inverse_via_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_equals_scipy_dpotri_oracle(self):
        """The mirrored dpotri inverse of scipy's lower Cholesky factor, bit for bit."""
        rng = np.random.default_rng(4)
        for dim in [*range(1, 18), 63, 64, 65, 128]:
            for a in _layouts(rng, dim):
                assert np.array_equal(inverse_via_cholesky(a), inverse_scipy(a))

    @given(dim=st.integers(1, 16), seed=st.integers(0, 10_000))
    def test_left_inverse_property(self, dim, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((dim, dim + 4))
        m = X @ X.T + dim * np.eye(dim)
        inv = inverse_via_cholesky(m)
        np.testing.assert_allclose(m @ inv, np.eye(dim), atol=1e-8)


_LAPACK_ENTRY_POINTS = {
    "cholesky": cholesky,
    "solve_spd": lambda a: solve_spd(a, np.ones(np.shape(a)[:1] or 1)),
    "inverse_via_cholesky": inverse_via_cholesky,
}


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3), (2, 3), (3,), (), (2, 2, 2)],
                         ids=["0x0", "3x0", "0x3", "2x3", "1-d", "scalar", "3-d"])
@pytest.mark.parametrize("entry", list(_LAPACK_ENTRY_POINTS))
def test_lapack_helpers_reject_matrices_that_are_empty_or_not_square(entry, shape, capfd):
    """LAPACK reads n * n entries through a bare pointer, so the shape is
    checked first; nothing reaches LAPACK, which would print to stderr."""
    with pytest.raises(ValidationError, match="empty or not square"):
        _LAPACK_ENTRY_POINTS[entry](np.ones(shape))
    assert capfd.readouterr().err == ""


def test_missing_lapack_raises_numerical_error_naming_the_extension(monkeypatch):
    monkeypatch.setattr(numkernel, "EXTENSION_SUFFIXES", [".missing"])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    numkernel._flapack.cache_clear()
    try:
        with pytest.raises(NumericalError, match=r"_flapack\.missing") as exc:
            cholesky(np.eye(2))
    finally:
        numkernel._flapack.cache_clear()
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("first", ["rackit", "scipy.linalg"])
def test_lapack_is_scipy_linalg_lapack_in_either_import_order(first):
    """The wrappers loaded from scipy's extension file are the objects that
    scipy.linalg.lapack exports, whichever is imported first."""
    probe = fresh_python(f"""
        import importlib, json, sys
        importlib.import_module({first!r})
        from rackit import numkernel
        dpotrf = numkernel._flapack().dpotrf
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        import scipy.linalg.lapack
        print(json.dumps({{"same": dpotrf is scipy.linalg.lapack.dpotrf, "loaded": loaded}}))
    """)
    assert probe["same"]
    if first == "rackit":
        assert probe["loaded"] == ["scipy.linalg._flapack"]


class TestUsableCpus:
    @pytest.mark.parametrize("text, limit", [
        ("max 100000", None),        # cgroup v2, no quota
        ("150000 100000", 2),        # 1.5 CPUs round up
        ("50000 100000", 1),
        ("-1", None),                # cgroup v1 quota file alone, no quota
        ("-1 100000", None),         # v1 quota and period joined
        ("", None),                  # no quota file could be read
    ])
    def test_quota_text_parses(self, text, limit):
        assert numkernel._cgroup_cpu_limit(text) == limit

    @pytest.mark.parametrize("text, cpus", [("max 100000", 2), ("50000 100000", 1),
                                            ("1000000 100000", 2), ("", 2)])
    def test_quota_lowers_the_affinity_count(self, monkeypatch, text, cpus):
        monkeypatch.setattr(numkernel.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(numkernel, "_cgroup_quota_text", lambda: text)
        assert numkernel.usable_cpus() == cpus

    def test_counts_at_least_one_cpu_here(self):
        assert numkernel.usable_cpus() >= 1
