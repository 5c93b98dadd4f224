"""Shared test helpers: forced-candidate RNG, exact rank oracle, models."""

from fractions import Fraction

import numpy as np
import pytest

from deniable_fit import ParamModel


class ForcedRng:
    """Generator double that replays a fixed list of standard_normal draws."""

    def __init__(self, vectors):
        self.vectors = [np.asarray(v, dtype=float) for v in vectors]
        self.calls = 0

    def standard_normal(self, n):
        if self.calls >= len(self.vectors):
            # keep repeating the last vector so exhaustion tests terminate
            vec = self.vectors[-1]
        else:
            vec = self.vectors[self.calls]
        self.calls += 1
        assert vec.size == n
        return vec.copy()


def exact_rank(M) -> int:
    """Rank over the rationals via exact Gaussian elimination.

    Intended for integer-valued matrices, where the arithmetic is exact.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    assert np.all(M == np.round(M)), "oracle expects integer entries"
    rows = [[Fraction(int(x)) for x in row] for row in M]
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(n_rows):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def two_output_linear_model(input_dim: int) -> ParamModel:
    """Two affine readouts sharing one parameter vector.

    Output 0 pairs parameters with (1, x); output 1 pairs them with
    (1, reversed x), so the two Jacobians differ but stay full rank.
    """
    d = input_dim + 1

    def evaluate(X, p):
        return np.stack(
            [p[0] + np.vecdot(X, p[1:]), p[0] + np.vecdot(X[:, ::-1], p[1:])], axis=1
        )

    def jac(X, p):
        ones = np.ones((X.shape[0], 1))
        return np.stack(
            [np.concatenate((ones, X), axis=1), np.concatenate((ones, X[:, ::-1]), axis=1)],
            axis=1,
        )

    return ParamModel(
        param_dim=d,
        input_dim=input_dim,
        output_dim=2,
        evaluator=evaluate,
        analytic_jacobian=jac,
        family="two_readouts",
        affine=True,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)
