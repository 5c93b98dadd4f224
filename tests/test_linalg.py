import numpy as np
import pytest
from numpy.testing import assert_allclose

from deniable_fit import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidArguments,
    ZeroErrorVector,
    nullspace_projector,
    numerical_rank,
    rank_condition,
)

from conftest import exact_rank


class TestNullspaceProjector:
    def test_axis_vector(self):
        pm = nullspace_projector([1.0, 0.0])
        assert pm.rows.shape == (1, 2)
        assert_allclose(np.abs(pm.rows), [[0.0, 1.0]], atol=1e-15)

    def test_diagonal_vector(self):
        pm = nullspace_projector([1.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        # one row, entries of equal magnitude and opposite sign
        assert_allclose(np.abs(pm.rows), [[s, s]], atol=1e-15)
        assert_allclose(pm.rows @ np.array([1.0, 1.0]), [0.0], atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroErrorVector):
            nullspace_projector([0.0, 0.0])

    def test_tiny_vector_rejected(self):
        with pytest.raises(ZeroErrorVector):
            nullspace_projector([1e-15, -1e-15])

    def test_scalar_rejected(self):
        with pytest.raises(DimensionTooSmall):
            nullspace_projector([3.0])

    @pytest.mark.parametrize("zero_tol", [0.0, -1.0, float("nan")])
    def test_bad_zero_tol_rejected(self, zero_tol):
        with pytest.raises(InvalidArguments):
            nullspace_projector([1.0, 2.0], zero_tol=zero_tol)

    @pytest.mark.parametrize("n", [2, 3, 5, 11, 30])
    def test_annihilation_and_orthonormal_rows(self, n, rng):
        for _ in range(20):
            e = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            pm = nullspace_projector(e)
            assert pm.rows.shape == (n - 1, n)
            assert np.max(np.abs(pm.rows @ e)) <= 1e-10 * np.linalg.norm(e)
            assert_allclose(pm.rows @ pm.rows.T, np.eye(n - 1), atol=1e-10)

    def test_identity_on_complement(self, rng):
        # B^T B acts as the identity on vectors orthogonal to e
        for n in (2, 4, 9, 16):
            e = rng.normal(size=n)
            pm = nullspace_projector(e)
            for _ in range(10):
                x = rng.normal(size=n)
                x -= (x @ e) / (e @ e) * e
                back = pm.rows.T @ (pm.rows @ x)
                assert np.max(np.abs(back - x)) <= 1e-9 * max(np.linalg.norm(x), 1e-30)

    def test_rows_are_readonly(self):
        pm = nullspace_projector([2.0, -1.0, 3.0])
        with pytest.raises(ValueError):
            pm.rows[0, 0] = 7.0


class TestNumericalRank:
    def test_near_singular_with_explicit_tol(self):
        M = np.array([[1.0, 0.0], [0.0, 1e-13]])
        assert numerical_rank(M, tol=1e-10) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 4))) == 0

    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_matches_exact_oracle_on_integer_matrices(self, rng):
        for _ in range(300):
            r = int(rng.integers(1, 6))
            c = int(rng.integers(1, 6))
            M = rng.integers(-3, 4, size=(r, c)).astype(float)
            assert numerical_rank(M) == exact_rank(M)


class TestRankCondition:
    def test_vector_outside_column_space(self):
        assert rank_condition(np.array([[1.0], [0.0]]), [0.0, 1.0]) is True

    def test_vector_inside_column_space(self):
        assert rank_condition(np.eye(2), [1.0, 1.0]) is False

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rank_condition(np.eye(3), [1.0, 2.0])

    def test_column_scaling_invariance(self, rng):
        for _ in range(50):
            n, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            M = rng.normal(size=(n, d))
            e = rng.normal(size=n)
            base = rank_condition(M, e)
            for scale in (0.5, -2.0, 3.0, 10.0):
                scaled = M.copy()
                col = int(rng.integers(0, d))
                scaled[:, col] *= scale
                assert rank_condition(scaled, e) == base

    def test_columns_never_raise_rank(self, rng):
        # a vector manufactured inside the column space is always reachable
        for _ in range(50):
            n, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            M = rng.normal(size=(n, d))
            coeffs = rng.normal(size=d)
            assert rank_condition(M, M @ coeffs) is False
