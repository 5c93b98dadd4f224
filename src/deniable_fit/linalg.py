"""SVD-backed kernels: nullspace coordinate maps, numerical rank, rank tests.

All functions are pure and the returned matrices are marked read-only, so
values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidArguments,
    ZeroErrorVector,
)

# Absolute 2-norm threshold below which an error vector counts as zero.
DEFAULT_ZERO_TOL = 1e-12


def _readonly(values, dtype=float) -> np.ndarray:
    # C layout keeps matrix products bit-reproducible after serialization
    # round trips (BLAS kernels vary with strides).
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """Orthonormal coordinate map onto the complement of one direction.

    Attributes
    ----------
    rows : (n-1, n) ndarray
        Matrix B with orthonormal rows whose nullspace is exactly the span
        of ``source_error``.  Applying it to a vector expresses the
        component orthogonal to that direction in an orthonormal basis.
    source_error : (n,) ndarray
        The vector the map annihilates.
    """

    rows: np.ndarray
    source_error: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _readonly(self.rows))
        object.__setattr__(self, "source_error", _readonly(self.source_error))
        if self.rows.ndim != 2:
            raise DimensionMismatch("projector rows must form a matrix")
        n = self.source_error.size
        if self.rows.shape != (n - 1, n):
            raise DimensionMismatch(
                f"projector must be {(n - 1, n)} for a {n}-vector, got {self.rows.shape}"
            )

    @property
    def dim(self) -> int:
        """Ambient dimension n."""
        return self.source_error.size


def nullspace_projector(e, zero_tol: float = DEFAULT_ZERO_TOL) -> ProjectionMatrix:
    """Build the coordinate map whose kernel is exactly span{e}.

    Runs a full SVD of ``e`` viewed as an n x 1 matrix and collects the rows
    of U^T that pair with zero singular values.  Those rows are orthonormal
    and annihilate ``e``.

    Parameters
    ----------
    e : array_like
        Real vector with n >= 2 entries and 2-norm above ``zero_tol``.
    zero_tol : float
        Absolute threshold below which ``e`` counts as zero.

    Raises
    ------
    ZeroErrorVector
        If ``e`` is numerically zero.
    DimensionTooSmall
        If n < 2 (there is no complement to map onto).
    """
    e = np.asarray(e, dtype=float).reshape(-1)
    n = e.size
    if n < 2:
        raise DimensionTooSmall(f"need at least 2 components, got {n}")
    if zero_tol <= 0.0:
        raise InvalidArguments("zero_tol must be positive")
    if not np.all(np.isfinite(e)):
        raise InvalidArguments("error vector must be finite")
    if float(np.linalg.norm(e)) <= zero_tol:
        raise ZeroErrorVector("cannot anchor a norm on a zero residual")

    u, _, _ = np.linalg.svd(e.reshape(n, 1), full_matrices=True)
    # One nonzero singular value; rows 2..n of U^T pair with zero rows of
    # the singular-value matrix and span the complement of e.
    rows = u[:, 1:].T
    return ProjectionMatrix(rows=rows, source_error=e)


def numerical_rank(M, tol: Optional[float] = None) -> int:
    """Count singular values above ``tol`` relative to the largest one.

    ``tol`` defaults to max(rows, cols) * machine epsilon.  A matrix whose
    largest singular value is zero has rank 0.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if tol is None:
        tol = max(M.shape) * float(np.finfo(float).eps)
    elif tol <= 0.0:
        raise InvalidArguments("tol must be positive")
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def rank_condition(M, e, tol: Optional[float] = None) -> bool:
    """True when appending ``e`` as a column raises the numerical rank of M.

    Equivalently: ``e`` does not lie in the column space of ``M``, which is
    what makes a residual usable as the anchor of a crafted norm.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.size != M.shape[0]:
        raise DimensionMismatch(
            f"vector has {e.size} entries but the matrix has {M.shape[0]} rows"
        )
    augmented = np.column_stack([M, e])
    return numerical_rank(augmented, tol) != numerical_rank(M, tol)
