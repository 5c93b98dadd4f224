"""Crafted error norms anchored on a chosen residual vector.

The construction: project out the residual direction (seminorm b), pick a
random direction w1 that sees the residual, and combine

    value(x) = (3/2) * b(x) + (alpha / 2) * |x . w1|,   alpha = b(w1) / 2.

The result is a genuine norm whose unit ball is stretched so that the
chosen residual is the cheapest way to be wrong, which is what lets decoy
training data reproduce a predetermined model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidArguments,
    LengthMismatch,
    RejectionExhausted,
    VariantMismatch,
)
from .linalg import nullspace_projector

VARIANT_EUCLIDEAN = "euclidean"
VARIANT_ONE_NORM = "one_norm"
_VARIANTS = (VARIANT_EUCLIDEAN, VARIANT_ONE_NORM)

# Acceptance thresholds for the anchor direction w1.
W1_ALIGNMENT_RTOL = 1e-8   # |e . w1| must exceed this times ||e||_2
W1_COMPLEMENT_TOL = 1e-8   # b(w1) must exceed this
W1_MAX_DRAWS = 1000        # candidates drawn before giving up


def require_seed(seed) -> int:
    """``seed``, unless it is not an int (a bool included) in [0, 2**64): InvalidArguments then."""
    if not (isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2 ** 64):
        raise InvalidArguments(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


def _inner_norm(variant: str, v: np.ndarray) -> float:
    # Any variant but euclidean reads as one_norm; CraftedNorm refuses unknown ones.
    if variant == VARIANT_EUCLIDEAN:
        # What np.linalg.norm computes for a 1-D float vector, minus its overhead.
        return math.sqrt(float(v @ v))
    return float(np.abs(v).sum())


@dataclass(frozen=True, eq=False)
class CraftedNorm:
    """A norm on R^n whose kernel-free part is anchored on one residual.

    Fields are immutable; instances may be shared across threads.

    Attributes
    ----------
    b_rows : (n-1, n) ndarray
        Matrix B with orthonormal rows annihilating the anchoring residual.
    w1 : (n,) ndarray
        Direction with ||w1||_1 = 1 that is neither orthogonal to the
        residual nor inside its span.
    alpha : float
        Weight of the |x . w1| term; equals b(w1) / 2 at construction.
    inner_variant : str
        Norm applied to B x: "euclidean" or "one_norm".
    """

    b_rows: np.ndarray
    w1: np.ndarray
    alpha: float
    inner_variant: str = VARIANT_EUCLIDEAN

    def __post_init__(self):
        # C layout keeps matrix products bit-reproducible after serialization
        # round trips (BLAS kernels vary with strides).
        b_rows = np.array(self.b_rows, dtype=float, order="C")
        w1 = np.array(self.w1, dtype=float).reshape(-1)
        b_rows.setflags(write=False)
        w1.setflags(write=False)
        object.__setattr__(self, "b_rows", b_rows)
        object.__setattr__(self, "w1", w1)
        if self.inner_variant not in _VARIANTS:
            raise InvalidArguments(f"unknown inner-norm variant {self.inner_variant!r}")
        n = w1.size
        if b_rows.shape != (n - 1, n):
            raise DimensionMismatch(
                f"B must be {(n - 1, n)} for a {n}-entry w1, got {b_rows.shape}"
            )

    @property
    def dim(self) -> int:
        return self.w1.size

    def validate(self, e) -> None:
        """Check the construction invariants against anchor ``e``, raising InvalidArguments."""
        e = np.asarray(e, dtype=float).reshape(-1)
        e_norm = float(np.linalg.norm(e))
        if abs(float(np.abs(self.w1).sum()) - 1.0) > 1e-9:
            raise InvalidArguments("w1 must have unit 1-norm")
        if abs(float(e @ self.w1)) <= W1_ALIGNMENT_RTOL * e_norm:
            raise InvalidArguments("w1 is orthogonal to the anchoring residual")
        b_w1 = _inner_norm(self.inner_variant, self.b_rows @ self.w1)
        if b_w1 <= W1_COMPLEMENT_TOL:
            raise InvalidArguments("w1 lies inside the span of the residual")
        if not 0.0 < self.alpha <= b_w1 * (1.0 + 1e-9):
            raise InvalidArguments("alpha must sit in (0, b(w1)]")


def seminorm_b(norm: CraftedNorm, x) -> float:
    """Seminorm b(x): inner norm of B x.  Vanishes exactly on span{e}."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != norm.dim:
        raise DimensionMismatch(f"expected {norm.dim} entries, got {x.size}")
    return _inner_norm(norm.inner_variant, norm.b_rows @ x)


def pick_w1(e, B: np.ndarray, seed: Union[int, np.random.Generator]) -> np.ndarray:
    """Draw the anchor direction w1 by rejection sampling.

    Directions are sampled uniformly on the sphere and rescaled to unit
    1-norm.  A candidate is accepted when it is neither orthogonal to ``e``
    (|e . w1| > 1e-8 ||e||_2) nor inside the span of ``e`` (||B w1|| > 1e-8,
    B being the (n-1, n) annihilator of ``e``).
    Both rejection events have measure zero, so resampling terminates
    immediately in practice; RejectionExhausted is raised after
    ``W1_MAX_DRAWS`` rejected candidates.

    ``seed`` is an int in [0, 2**64) or any generator exposing
    ``standard_normal`` (handy for forcing candidates in tests); None, or
    any other value, raises InvalidArguments instead of drawing OS entropy.
    """
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.size < 2:
        raise DimensionTooSmall(f"need at least 2 components, got {e.size}")
    if np.shape(B) != (e.size - 1, e.size):
        raise DimensionMismatch("B was built for a different dimension")
    rng = seed if hasattr(seed, "standard_normal") else np.random.default_rng(require_seed(seed))
    e_norm = float(np.linalg.norm(e))
    for _ in range(W1_MAX_DRAWS):
        v = np.asarray(rng.standard_normal(e.size), dtype=float)
        scale = float(np.abs(v).sum())
        if scale <= 0.0 or not np.isfinite(scale):
            continue
        w = v / scale
        aligned = abs(float(e @ w)) > W1_ALIGNMENT_RTOL * e_norm
        off_span = float(np.linalg.norm(B @ w)) > W1_COMPLEMENT_TOL
        if aligned and off_span:
            return w
    raise RejectionExhausted(f"no usable direction after {W1_MAX_DRAWS} draws")


def make_crafted_norm(
    e,
    seed: Union[int, np.random.Generator],
    inner_variant: str = VARIANT_EUCLIDEAN,
) -> CraftedNorm:
    """Build the full crafted norm anchored on residual ``e``.

    Composes the nullspace projector, the w1 draw (``seed`` as in
    ``pick_w1``), and alpha = b(w1) / 2, which keeps the |x . w1| term
    strictly dominated by b away from the anchor direction.  The
    ``DenialCertificate`` that holds the norm runs ``CraftedNorm.validate``.
    """
    B = nullspace_projector(e)
    w1 = pick_w1(e, B, seed)
    alpha = 0.5 * _inner_norm(inner_variant, B @ w1)
    return CraftedNorm(b_rows=B, w1=w1, alpha=alpha, inner_variant=inner_variant)


def crafted_norm_value(norm: CraftedNorm, x) -> float:
    """Evaluate (3/2) b(x) + (alpha/2) |x . w1|."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != norm.dim:
        raise DimensionMismatch(f"expected {norm.dim} entries, got {x.size}")
    return crafted_matrix_kernel((norm,), x.size, 1)(x[:, None])


def mae_transform(norm: CraftedNorm) -> np.ndarray:
    """Matrix C with ||C x||_1 equal to the crafted-norm value of x.

    Stacks (3/2) B on top of the row (alpha/2) w1^T, so evaluating the
    crafted norm reduces to a mean-absolute-error computation on C x
    (MAE(C x) times n recovers the norm value).  Only the one-norm inner
    variant admits this reduction.
    """
    if norm.inner_variant != VARIANT_ONE_NORM:
        raise VariantMismatch("MAE reduction needs the one-norm inner variant")
    return np.vstack([1.5 * norm.b_rows, 0.5 * norm.alpha * norm.w1[None, :]])


def crafted_matrix_kernel(
    norms: Sequence[CraftedNorm], n: int, k: int
) -> Callable[[np.ndarray], float]:
    """The map E -> sum over columns j of (3/2) b_j(E[:, j]) + (alpha_j/2) |E[:, j] . w1_j|.

    The one evaluation of crafted norms: the crafted loss of a fit and
    ``crafted_norm_value`` (one column) both run it.  The norms are checked
    against the (n, k) shape here, once; the returned function takes a 2-D
    float array of that shape and checks nothing.
    """
    if len(norms) != k:
        raise LengthMismatch(f"{len(norms)} norms supplied for {k} residual columns")
    for nm in norms:
        if nm.dim != n:
            raise DimensionMismatch(f"crafted norm is anchored on {nm.dim} samples, got {n}")
    columns = [(j, nm.inner_variant, nm.b_rows, nm.w1, 0.5 * nm.alpha)
               for j, nm in enumerate(norms)]

    def value(E: np.ndarray) -> float:
        # A plain loop: a generator sum costs more than the one-column work at k=1.
        total = 0.0
        for j, variant, rows, w1, half_alpha in columns:
            x = E[:, j]
            total += 1.5 * _inner_norm(variant, rows @ x) + half_alpha * abs(float(x @ w1))
        return total

    return value
