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
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    EmptyInput,
    InvalidArguments,
    LengthMismatch,
    RejectionExhausted,
    VariantMismatch,
)
from .linalg import DEFAULT_ZERO_TOL, ProjectionMatrix, nullspace_projector

VARIANT_EUCLIDEAN = "euclidean"
VARIANT_ONE_NORM = "one_norm"
_VARIANTS = (VARIANT_EUCLIDEAN, VARIANT_ONE_NORM)

# Acceptance thresholds for the anchor direction w1.
W1_ALIGNMENT_RTOL = 1e-8   # |e . w1| must exceed this times ||e||_2
W1_COMPLEMENT_TOL = 1e-8   # b(w1) must exceed this


def _inner_norm(variant: str, v: np.ndarray) -> float:
    # Callers hold a variant already checked against _VARIANTS.
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
    projector : ProjectionMatrix
        Map B annihilating the anchoring residual.
    w1 : (n,) ndarray
        Direction with ||w1||_1 = 1 that is neither orthogonal to the
        residual nor inside its span.
    alpha : float
        Weight of the |x . w1| term; equals b(w1) / 2 at construction.
    inner_variant : str
        Norm applied to B x: "euclidean" or "one_norm".
    seed : int or None
        Seed used to draw w1, kept for replay; None when w1 came from an
        externally supplied generator.
    """

    projector: ProjectionMatrix
    w1: np.ndarray
    alpha: float
    inner_variant: str = VARIANT_EUCLIDEAN
    seed: Optional[int] = None

    def __post_init__(self):
        w1 = np.array(self.w1, dtype=float).reshape(-1)
        w1.setflags(write=False)
        object.__setattr__(self, "w1", w1)
        if self.inner_variant not in _VARIANTS:
            raise InvalidArguments(f"unknown inner-norm variant {self.inner_variant!r}")
        if w1.size != self.projector.dim:
            raise DimensionMismatch(
                f"w1 has {w1.size} entries, projector expects {self.projector.dim}"
            )

    @property
    def dim(self) -> int:
        return self.w1.size

    def validate(self) -> None:
        """Check the construction invariants, raising InvalidArguments."""
        e = self.projector.source_error
        e_norm = float(np.linalg.norm(e))
        if abs(float(np.abs(self.w1).sum()) - 1.0) > 1e-9:
            raise InvalidArguments("w1 must have unit 1-norm")
        if abs(float(e @ self.w1)) <= W1_ALIGNMENT_RTOL * e_norm:
            raise InvalidArguments("w1 is orthogonal to the anchoring residual")
        b_w1 = _inner_norm(self.inner_variant, self.projector.rows @ self.w1)
        if b_w1 <= W1_COMPLEMENT_TOL:
            raise InvalidArguments("w1 lies inside the span of the residual")
        if not 0.0 < self.alpha <= b_w1 * (1.0 + 1e-9):
            raise InvalidArguments("alpha must sit in (0, b(w1)]")

    def to_dict(self) -> dict:
        return {
            "b_rows": self.projector.rows.tolist(),
            "source_error": self.projector.source_error.tolist(),
            "svd_tolerance": self.projector.svd_tolerance,
            "w1": self.w1.tolist(),
            "alpha": self.alpha,
            "variant": self.inner_variant,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CraftedNorm":
        projector = ProjectionMatrix(
            rows=np.asarray(payload["b_rows"], dtype=float),
            source_error=np.asarray(payload["source_error"], dtype=float),
            svd_tolerance=float(payload["svd_tolerance"]),
        )
        norm = cls(
            projector=projector,
            w1=np.asarray(payload["w1"], dtype=float),
            alpha=float(payload["alpha"]),
            inner_variant=str(payload["variant"]),
            seed=payload.get("seed"),
        )
        norm.validate()
        return norm


def seminorm_b(norm: CraftedNorm, x) -> float:
    """Seminorm b(x): inner norm of B x.  Vanishes exactly on span{e}."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != norm.dim:
        raise DimensionMismatch(f"expected {norm.dim} entries, got {x.size}")
    return _inner_norm(norm.inner_variant, norm.projector.rows @ x)


def pick_w1(
    e,
    projector: ProjectionMatrix,
    seed: Union[int, None, np.random.Generator] = None,
    max_retries: int = 1000,
) -> np.ndarray:
    """Draw the anchor direction w1 by rejection sampling.

    Directions are sampled uniformly on the sphere and rescaled to unit
    1-norm.  A candidate is accepted when it is neither orthogonal to ``e``
    (|e . w1| > 1e-8 ||e||_2) nor inside the span of ``e`` (b(w1) > 1e-8).
    Both rejection events have measure zero, so resampling terminates
    immediately in practice.

    ``seed`` may be an int, None, or any generator exposing
    ``standard_normal`` (handy for forcing candidates in tests).
    """
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.size < 2:
        raise DimensionTooSmall(f"need at least 2 components, got {e.size}")
    if e.size != projector.dim:
        raise DimensionMismatch("projector was built for a different dimension")
    rng = seed if hasattr(seed, "standard_normal") else np.random.default_rng(seed)
    e_norm = float(np.linalg.norm(e))
    B = projector.rows
    for _ in range(max_retries):
        v = np.asarray(rng.standard_normal(e.size), dtype=float)
        scale = float(np.abs(v).sum())
        if scale <= 0.0 or not np.isfinite(scale):
            continue
        w = v / scale
        aligned = abs(float(e @ w)) > W1_ALIGNMENT_RTOL * e_norm
        off_span = float(np.linalg.norm(B @ w)) > W1_COMPLEMENT_TOL
        if aligned and off_span:
            return w
    raise RejectionExhausted(f"no usable direction after {max_retries} draws")


def make_crafted_norm(
    e,
    seed: Union[int, None, np.random.Generator] = None,
    inner_variant: str = VARIANT_EUCLIDEAN,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> CraftedNorm:
    """Build the full crafted norm anchored on residual ``e``.

    Composes the nullspace projector, the w1 draw, and alpha = b(w1) / 2,
    which keeps the |x . w1| term strictly dominated by b away from the
    anchor direction.
    """
    if inner_variant not in _VARIANTS:
        raise InvalidArguments(f"unknown inner-norm variant {inner_variant!r}")
    projector = nullspace_projector(e, zero_tol)
    w1 = pick_w1(e, projector, seed)
    alpha = 0.5 * _inner_norm(inner_variant, projector.rows @ w1)
    norm = CraftedNorm(
        projector=projector,
        w1=w1,
        alpha=alpha,
        inner_variant=inner_variant,
        seed=seed if isinstance(seed, int) else None,
    )
    norm.validate()
    return norm


def crafted_kernel(norm: CraftedNorm) -> Callable[[np.ndarray], float]:
    """The map x -> (3/2) b(x) + (alpha/2) |x . w1|, for repeated evaluation.

    The returned function checks nothing: it takes a 1-D float array of
    ``norm.dim`` entries.  Every evaluation of a crafted norm goes through it.
    """
    variant, rows, w1 = norm.inner_variant, norm.projector.rows, norm.w1
    half_alpha = 0.5 * norm.alpha

    def value(x: np.ndarray) -> float:
        return 1.5 * _inner_norm(variant, rows @ x) + half_alpha * abs(float(x @ w1))

    return value


def crafted_norm_value(norm: CraftedNorm, x) -> float:
    """Evaluate (3/2) b(x) + (alpha/2) |x . w1|."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != norm.dim:
        raise DimensionMismatch(f"expected {norm.dim} entries, got {x.size}")
    return crafted_kernel(norm)(x)


def mae_transform(norm: CraftedNorm) -> np.ndarray:
    """Matrix C with ||C x||_1 equal to the crafted-norm value of x.

    Stacks (3/2) B on top of the row (alpha/2) w1^T, so evaluating the
    crafted norm reduces to a mean-absolute-error computation on C x
    (MAE(C x) times n recovers the norm value).  Only the one-norm inner
    variant admits this reduction.
    """
    if norm.inner_variant != VARIANT_ONE_NORM:
        raise VariantMismatch("MAE reduction needs the one-norm inner variant")
    return np.vstack([1.5 * norm.projector.rows, 0.5 * norm.alpha * norm.w1[None, :]])


def crafted_matrix_kernel(
    norms: Sequence[CraftedNorm], n: int, k: int
) -> Callable[[np.ndarray], float]:
    """The map E -> sum of per-column crafted-norm values of an (n, k) matrix.

    The norms are checked against the shape here, once; the returned
    function takes a 2-D float array of that shape and checks nothing.
    """
    if len(norms) != k:
        raise LengthMismatch(f"{len(norms)} norms supplied for {k} residual columns")
    for nm in norms:
        if nm.dim != n:
            raise DimensionMismatch(f"crafted norm is anchored on {nm.dim} samples, got {n}")
    kernels = [crafted_kernel(nm) for nm in norms]

    def value(E: np.ndarray) -> float:
        return float(sum(kernel(E[:, j]) for j, kernel in enumerate(kernels)))

    return value


def crafted_matrix_norm(norms: Sequence[CraftedNorm], E) -> float:
    """Sum of per-column crafted-norm values of a residual matrix."""
    E = np.asarray(E, dtype=float)
    if E.ndim == 1:
        E = E[:, None]
    if E.ndim != 2:
        raise DimensionMismatch("residuals must form an n x k matrix")
    return crafted_matrix_kernel(norms, *E.shape)(E)


def standard_metric(kind: str, y, y_hat) -> float:
    """Textbook error metrics: "mse", "rmse", or "mae"."""
    y = np.asarray(y, dtype=float).reshape(-1)
    y_hat = np.asarray(y_hat, dtype=float).reshape(-1)
    if y.size == 0:
        raise EmptyInput("metrics need at least one sample")
    if y.size != y_hat.size:
        raise DimensionMismatch(f"length mismatch: {y.size} vs {y_hat.size}")
    r = y - y_hat
    kind = kind.lower()
    if kind == "mse":
        return float(r @ r) / r.size
    if kind == "rmse":
        return math.sqrt(float(r @ r) / r.size)
    if kind == "mae":
        return float(np.abs(r).sum()) / r.size
    raise InvalidArguments(f"unknown metric {kind!r}")
