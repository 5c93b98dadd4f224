"""Checks of certificates and replays made apart from the package under test.

Everything here reads plain JSON payloads and numpy arrays and recomputes
what it checks from first principles; nothing calls into ``deniable_fit``.
All certificates the benchmark produces are for the single-output linear
model ``y = p0 + X p[1:]``, whose Jacobian is the constant ``M = [1, X]``.

The optimality test follows from convexity.  The crafted loss
``L(p) = 1.5 ||B (y - M p)|| + (alpha/2) |w1 . (y - M p)|`` is convex in p,
so p* minimises it if and only if ``0`` is a subgradient there.  With
``B e = 0`` and ``w1 . e != 0`` at the residual ``e = y - M p*`` that reads:
there is a ``u`` with ``||u||_* <= 1`` and

    1.5 M^T B^T u = -(alpha/2) sign(w1 . e) M^T w1,

where ``||.||_*`` is the dual of the inner norm (2-norm for "euclidean",
inf-norm for "one_norm").  The smallest such ``||u||_*`` is the margin;
the certificate holds exactly when the margin is below 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

# Absolute tolerances, chosen well above float64 rounding of the quantities
# involved (entries of order 10, n up to a few hundred) and far below any
# fault they are meant to catch.
RESIDUAL_TOL = 1e-9
ORTHONORMAL_TOL = 1e-10
W1_TOL = 1e-12
ALPHA_RTOL = 1e-10
SURJECTIVE_TOL = 1e-8
# A two-norm Nelder-Mead fit stops when the simplex values agree to 1e-13;
# its parameters then sit within ~1e-6 of the exact least-squares solution.
LEAST_SQUARES_TOL = 1e-4

EUCLIDEAN = "euclidean"
ONE_NORM = "one_norm"


def design_matrix(X) -> np.ndarray:
    """Jacobian ``[1, X]`` of the affine model at any parameter vector."""
    X = np.asarray(X, dtype=float)
    return np.column_stack([np.ones(X.shape[0]), X])


def inner_norm(variant: str, v) -> float:
    v = np.asarray(v, dtype=float)
    if variant == EUCLIDEAN:
        return float(np.sqrt(v @ v))
    if variant == ONE_NORM:
        return float(np.abs(v).sum())
    raise ValueError(f"unknown inner-norm variant {variant!r}")


def _optimality_system(M, e, B, w1, alpha):
    A = 1.5 * (M.T @ B.T)
    rhs = -0.5 * alpha * float(np.sign(w1 @ e)) * (M.T @ w1)
    return A, rhs


def min_two_norm_u(M, e, B, w1, alpha) -> np.ndarray:
    """Minimum-2-norm solution of the optimality system (None if unsolvable)."""
    A, rhs = _optimality_system(M, e, B, w1, alpha)
    u = np.linalg.lstsq(A, rhs, rcond=None)[0]
    if np.max(np.abs(A @ u - rhs)) > SURJECTIVE_TOL * max(1.0, np.max(np.abs(rhs))):
        return None
    return u


def min_inf_norm(M, e, B, w1, alpha) -> float:
    """Minimum inf-norm of a solution of the optimality system, as an LP.

    Variables are ``(u, t)``; minimise ``t`` subject to the system and
    ``-t <= u_i <= t``.  Returns inf when the system has no solution.
    """
    from scipy.optimize import linprog

    A, rhs = _optimality_system(M, e, B, w1, alpha)
    k = A.shape[1]
    c = np.zeros(k + 1)
    c[-1] = 1.0
    a_eq = np.hstack([A, np.zeros((A.shape[0], 1))])
    eye = np.eye(k)
    ones = np.ones((k, 1))
    a_ub = np.vstack([np.hstack([eye, -ones]), np.hstack([-eye, -ones])])
    b_ub = np.zeros(2 * k)
    bounds = [(None, None)] * k + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=rhs, bounds=bounds, method="highs")
    if res.status == 2:
        return float("inf")
    if res.status != 0:
        raise RuntimeError(f"margin LP did not solve: {res.message}")
    return float(res.x[-1])


def optimality_margin(M, e, B, w1, alpha, variant: str) -> float:
    """Smallest dual norm of a subgradient certificate; < 1 means p* is optimal."""
    if variant == EUCLIDEAN:
        u = min_two_norm_u(M, e, B, w1, alpha)
        return float("inf") if u is None else float(np.sqrt(u @ u))
    if variant == ONE_NORM:
        return min_inf_norm(M, e, B, w1, alpha)
    raise ValueError(f"unknown inner-norm variant {variant!r}")


def least_squares_gap(X, y, p_star) -> float:
    """Largest coordinate gap between p* and the exact least-squares fit."""
    M = design_matrix(X)
    p_ls = np.linalg.lstsq(M, np.asarray(y, dtype=float).reshape(-1), rcond=None)[0]
    return float(np.max(np.abs(np.asarray(p_star, dtype=float) - p_ls)))


def certificate_arrays(payload: dict, p_star):
    """``(M, e, B, w1, alpha, variant)`` of a single-output linear certificate.

    ``e`` is recomputed from the decoy and p*; the stored residual is not used.
    """
    if payload["model"].get("family") != "linear_regression":
        raise ValueError("the oracle covers the linear_regression family only")
    if len(payload["norms"]) != 1:
        raise ValueError("the oracle covers single-output certificates only")
    p_star = np.asarray(p_star, dtype=float).reshape(-1)
    X = np.asarray(payload["decoy"]["inputs"], dtype=float)
    y = np.asarray(payload["decoy"]["responses"], dtype=float)[:, 0]
    norm = payload["norms"][0]
    return (
        design_matrix(X),
        y - (p_star[0] + X @ p_star[1:]),
        np.asarray(norm["b_rows"], dtype=float),
        np.asarray(norm["w1"], dtype=float),
        float(norm["alpha"]),
        str(norm["variant"]),
    )


@dataclass
class CertificateCheck:
    """Outcome of checking one certificate payload against p*.

    ``problems`` lists every structural fault found (a wrong output);
    ``margin`` decides whether the certificate's claim holds.
    """

    margin: float
    problems: List[str] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.margin < 1.0


def check_certificate(payload: dict, p_star) -> CertificateCheck:
    """Recompute and check a single-output linear certificate payload."""
    M, e, B, w1, alpha, variant = certificate_arrays(payload, p_star)
    problems: List[str] = []
    stored = np.asarray(payload["residual"], dtype=float).reshape(-1)
    if stored.shape != e.shape or np.max(np.abs(stored - e)) > RESIDUAL_TOL:
        problems.append("stored residual differs from y - (p0 + X p*)")
    n = e.size
    if B.shape != (n - 1, n):
        problems.append(f"B has shape {B.shape}, expected {(n - 1, n)}")
        return CertificateCheck(float("inf"), problems)
    if np.max(np.abs(B @ B.T - np.eye(n - 1))) > ORTHONORMAL_TOL:
        problems.append("rows of B are not orthonormal")
    if np.max(np.abs(B @ e)) > ORTHONORMAL_TOL * max(1.0, float(np.sqrt(e @ e))):
        problems.append("B does not annihilate the residual")
    if abs(float(np.abs(w1).sum()) - 1.0) > W1_TOL:
        problems.append("w1 does not have unit 1-norm")
    b_w1 = inner_norm(variant, B @ w1)
    if abs(alpha - 0.5 * b_w1) > ALPHA_RTOL * b_w1:
        problems.append("alpha differs from b(w1)/2")
    return CertificateCheck(optimality_margin(M, e, B, w1, alpha, variant), problems)


def check_replay(report: dict, p_star, tolerance: float) -> List[str]:
    """Problems with a verification report's own arithmetic."""
    refit = np.asarray(report["refit_params"], dtype=float)
    p_star = np.asarray(p_star, dtype=float).reshape(-1)
    problems = []
    if refit.shape != p_star.shape:
        return ["refit has the wrong number of parameters"]
    diff = float(np.max(np.abs(refit - p_star)))
    if report["max_abs_diff"] != diff:
        problems.append(f"max_abs_diff {report['max_abs_diff']!r} != max|refit - p*| {diff!r}")
    if bool(report["passed"]) != (diff <= tolerance):
        problems.append("passed disagrees with max_abs_diff and the tolerance")
    return problems
