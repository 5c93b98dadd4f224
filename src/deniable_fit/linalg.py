"""SVD-backed kernels: the nullspace coordinate map and the rank test.

All functions are pure and the returned matrices are marked read-only, so
values can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidArguments,
    ZeroErrorVector,
)

# Absolute 2-norm threshold below which an error vector counts as zero.
ZERO_TOL = 1e-12


def nullspace_projector(e) -> np.ndarray:
    """The (n-1, n) matrix B with orthonormal rows whose kernel is exactly span{e}.

    Runs a full SVD of ``e`` viewed as an n x 1 matrix and collects the rows
    of U^T that pair with zero singular values.  Those rows are orthonormal
    and annihilate ``e``; applying B to a vector expresses its component
    orthogonal to ``e`` in an orthonormal basis.

    Parameters
    ----------
    e : array_like
        Real vector with n >= 2 entries and 2-norm above ``ZERO_TOL``.

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
    if not np.all(np.isfinite(e)):
        raise InvalidArguments("error vector must be finite")
    if float(np.linalg.norm(e)) <= ZERO_TOL:
        raise ZeroErrorVector("cannot anchor a norm on a zero residual")

    u, _, _ = np.linalg.svd(e.reshape(n, 1), full_matrices=True)
    # One nonzero singular value; rows 2..n of U^T pair with zero rows of
    # the singular-value matrix and span the complement of e.
    # C layout keeps matrix products bit-reproducible after serialization
    # round trips (BLAS kernels vary with strides).
    rows = np.ascontiguousarray(u[:, 1:].T)
    rows.setflags(write=False)
    return rows


def rank_condition(M, e) -> bool:
    """True when appending ``e`` as a column raises the numerical rank of M.

    Equivalently: ``e`` does not lie in the column space of ``M``, which is
    what makes a residual usable as the anchor of a crafted norm.  Ranks are
    ``np.linalg.matrix_rank``'s: singular values above max(rows, cols) * eps
    times the largest one count.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.size != M.shape[0]:
        raise DimensionMismatch(
            f"vector has {e.size} entries but the matrix has {M.shape[0]} rows"
        )
    augmented = np.column_stack([M, e])
    return bool(np.linalg.matrix_rank(augmented) != np.linalg.matrix_rank(M))
