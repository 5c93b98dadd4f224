"""Training: loss specifications, simplex descent and the affine least-squares step.

The crafted losses have kinks (absolute values, norms of projections), so
the optimizer must not rely on gradients.  A plain Nelder-Mead simplex with
the standard coefficients (reflect 1, expand 2, contract 0.5, shrink 0.5)
handles them and is bit-for-bit deterministic for a fixed configuration.
Every crafted evaluation reduces the image that ``norms.crafted_image``
defines.  On a model declared affine, ``fit`` solves the honest two-norm
loss in one step, and searches the crafted loss over a precomputed image,
one (n k) x d product per evaluation; on any other model every evaluation
runs the model, then the loss's reducer.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidArguments,
    NonFiniteObjective,
)
from .models import Dataset, ParamModel, bind_residuals, jacobian_blocks
# Not called here; perfbench/tracing.py wraps training.residuals by that name.
from .models import residuals  # noqa: F401
from .norms import CraftedNorm, _euclidean_norm, crafted_image

LOSS_TWO_NORM = "two_norm"
LOSS_CRAFTED_MATRIX = "crafted_matrix"

MAX_ITERS = 40000          # iteration budget shared by all restarts
SIMPLEX_SCALE = 0.05       # relative offset of the initial simplex vertices
CONVERGENCE_TOL = 1e-13    # value spread at which a descent stops


@dataclass(frozen=True, eq=False)
class LossSpec:
    """What to minimize over the residual matrix: one of the two learning rules.

    "two_norm", the honest fit, takes the 2-norm of the flattened
    residuals; "crafted_matrix", the decoy's refit, sums one crafted norm
    per residual column, a single-output model included.
    """

    kind: str
    norms: Tuple[CraftedNorm, ...] = ()

    @classmethod
    def two_norm(cls) -> "LossSpec":
        return cls(LOSS_TWO_NORM)

    @classmethod
    def crafted_matrix(cls, norms: Sequence[CraftedNorm]) -> "LossSpec":
        return cls(LOSS_CRAFTED_MATRIX, norms=tuple(norms))

    def crafted_image(
        self, shape: Tuple[int, ...]
    ) -> Tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], float]]:
        """``norms.crafted_image`` of this loss's norms for n x k residuals of ``shape``.

        Raises InvalidArguments without norms, DimensionMismatch or
        LengthMismatch when the norms do not fit an n x k shape.
        """
        if not self.norms:
            raise InvalidArguments("crafted_matrix loss needs one norm per column")
        if len(shape) != 2:
            raise DimensionMismatch("residuals must form an n x k matrix")
        return crafted_image(self.norms, *shape)

    def bind(self, shape: Tuple[int, ...]) -> Callable[[np.ndarray], float]:
        """The reducer of residual matrices of ``shape``, checked once.

        The crafted kind reduces ``crafted_image``'s image of E, the
        two-norm kind the 2-norm of E flattened.  Raises InvalidArguments
        for an unknown kind, the errors of ``crafted_image`` for the
        crafted kind, and EmptyInput when the two-norm gets no residuals.
        The returned function checks nothing.
        """
        if self.kind == LOSS_CRAFTED_MATRIX:
            image, reduce = self.crafted_image(shape)

            def value(E: np.ndarray) -> float:
                return reduce(image(E))

            return value
        if self.kind != LOSS_TWO_NORM:
            raise InvalidArguments(f"unknown loss kind {self.kind!r}")
        if 0 in shape:
            raise EmptyInput("a loss needs at least one residual")
        return _two_norm

    def evaluate(self, E) -> float:
        E = np.asarray(E, dtype=float)
        if E.ndim == 1:
            E = E[:, None]
        return self.bind(E.shape)(E)


def _two_norm(E: np.ndarray) -> float:
    return _euclidean_norm(E.reshape(-1))


@dataclass(frozen=True, eq=False)
class OptimizerConfig:
    """The start point of a simplex descent.  Identical configs give identical fits."""

    start: np.ndarray

    def __post_init__(self):
        start = np.array(self.start, dtype=float).reshape(-1)
        start.setflags(write=False)
        object.__setattr__(self, "start", start)
        if start.size == 0:
            raise InvalidArguments("start point must have at least one coordinate")
        if not np.all(np.isfinite(start)):
            raise InvalidArguments("start point must be finite")


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Outcome of a minimization run.

    ``evaluations`` counts the objective calls of all descents, the one at
    the start point included; the exact step of an affine two-norm fit
    makes 2 (at the start and at the solution) and 0 iterations.
    """

    params: np.ndarray
    final_loss: float
    iterations: int
    converged: bool
    evaluations: int = 0

    def __post_init__(self):
        params = np.array(self.params, dtype=float).reshape(-1)
        params.setflags(write=False)
        object.__setattr__(self, "params", params)


def minimize(objective: Callable[[np.ndarray], float], config: OptimizerConfig) -> FittedModel:
    """Restarted Nelder-Mead simplex descent from ``config.start``, in one loop.

    Each descent spans a simplex from the best point so far, offsetting
    coordinate l by ``SIMPLEX_SCALE * max(1, |x_l|)``, and stops when the
    spread of its vertex values drops below ``CONVERGENCE_TOL``.  A
    collapsed simplex on a kinked landscape can stall short of the optimum,
    so descents restart until one improves the best value by no more than
    ``CONVERGENCE_TOL``.  All descents share the ``MAX_ITERS`` budget;
    ``converged`` reports whether the last met the spread criterion.

    A NaN objective value counts as +inf.  The best value never increases,
    so ``final_loss`` is the least value evaluated; ``evaluations`` counts
    every objective call, the one at the start point included.  Raises
    NonFiniteObjective when the objective is NaN or infinite at the start.
    """
    x = np.array(config.start, dtype=float)
    f = float(objective(x))
    if not math.isfinite(f):
        raise NonFiniteObjective(f"objective is {f} at the start point")
    d = x.size
    evaluations = 1
    iterations = 0
    while True:
        previous_best = f
        simplex = np.tile(x, (d + 1, 1))
        for l in range(d):
            simplex[l + 1, l] += SIMPLEX_SCALE * max(1.0, abs(x[l]))
        values = [f] * (d + 1)
        vertex = None           # no new vertex: rows 1..d are to be evaluated
        while True:
            if vertex is None:
                # NaN becomes +inf here, in the only values stored unchecked;
                # a trial value below fails every comparison alike as NaN or
                # +inf.  The stable sort keeps ties in their order of entry.
                for i in range(1, d + 1):
                    value = float(objective(simplex[i]))
                    values[i] = math.inf if math.isnan(value) else value
                evaluations += d
                order = sorted(range(d + 1), key=values.__getitem__)
                simplex, values = simplex[order], [values[i] for i in order]
            else:
                # The new vertex replaces the worst one and goes after every
                # vertex whose value it does not undercut, as a stable sort would.
                i = bisect_right(values, f_vertex, 0, d)
                simplex[i + 1:] = simplex[i:-1]
                simplex[i] = vertex
                values.pop()
                values.insert(i, f_vertex)
            converged = values[-1] - values[0] < CONVERGENCE_TOL
            if converged or iterations >= MAX_ITERS:
                break
            iterations += 1
            centroid = simplex[:-1].sum(axis=0) / d
            worst = simplex[-1]

            reflected = centroid + (centroid - worst)
            f_reflected = float(objective(reflected))
            evaluations += 1
            if values[0] <= f_reflected < values[-2]:
                vertex, f_vertex = reflected, f_reflected
            elif f_reflected < values[0]:
                expanded = centroid + 2.0 * (centroid - worst)
                f_expanded = float(objective(expanded))
                evaluations += 1
                if f_expanded < f_reflected:
                    vertex, f_vertex = expanded, f_expanded
                else:
                    vertex, f_vertex = reflected, f_reflected
            else:
                if f_reflected < values[-1]:
                    contracted = centroid + 0.5 * (reflected - centroid)
                    f_contracted = float(objective(contracted))
                    accept = f_contracted <= f_reflected
                else:
                    contracted = centroid - 0.5 * (centroid - worst)
                    f_contracted = float(objective(contracted))
                    accept = f_contracted < values[-1]
                evaluations += 1
                if accept:
                    vertex, f_vertex = contracted, f_contracted
                else:
                    # Shrink everything toward the best vertex, which is kept.
                    vertex = None
                    for i in range(1, d + 1):
                        simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])

        x, f = simplex[0], values[0]
        if not converged or previous_best - f <= CONVERGENCE_TOL:
            break

    return FittedModel(
        params=x,
        final_loss=f,
        iterations=iterations,
        converged=converged,
        evaluations=evaluations,
    )


def fit(model: ParamModel, data: Dataset, loss: LossSpec, config: OptimizerConfig) -> FittedModel:
    """Minimize ``loss`` over the model's residuals on ``data``.

    The model, the data and the loss are checked once, before the search
    or the step.  Which path runs depends on ``model.affine`` and the loss:

    - affine, ``two_norm``: solved, not searched.  With r0 the residual at
      ``config.start`` and J the analytic Jacobian there, reshaped to
      (n k, d), the result is ``start + lstsq(J, r0)``, the least-squares
      solution nearest the start (for start 0, exactly ``np.linalg.lstsq``
      of the design matrix).  Its ``FittedModel`` reports 0 iterations,
      ``converged`` and 2 evaluations (the residuals at the start and at
      the solution).
    - affine, ``crafted_matrix``: ``minimize`` searches a precomputed
      image.  The residuals are r(p) = r(0) - J p and ``crafted_image``'s
      ``image`` is linear, so the image of r(p) is c - G p, with
      G = image(J) (J taken at the start) and c = image(r(0)) built once.
      Each evaluation is then one (n k) x d product, reduced by the same
      ``reduce`` as on the residual path; the model's evaluator runs
      once, at 0.  At p = 0 both paths reduce the same bits; elsewhere
      they differ by rounding (about 1e-12 relative, see the README).
    - any other model: ``minimize`` evaluates the model and the loss's
      reducer at every point.

    All raise NonFiniteObjective when the loss at the start point is NaN
    or infinite.
    """
    if config.start.size != model.param_dim:
        raise DimensionMismatch(
            f"start point has {config.start.size} coordinates, model expects {model.param_dim}"
        )
    shape = (data.n, data.output_dim)
    start = config.start
    if model.affine and loss.kind == LOSS_CRAFTED_MATRIX:
        image, reduce_image = loss.crafted_image(shape)
        residuals_at = bind_residuals(model, data)
        G = image(jacobian_blocks(model, data.inputs, start))
        c = image(residuals_at(np.zeros_like(start)))

        def image_objective(p: np.ndarray) -> float:
            return reduce_image(c - G @ p)

        return minimize(image_objective, config)

    reduce = loss.bind(shape)
    residuals_at = bind_residuals(model, data)
    if not model.affine:
        def objective(p: np.ndarray) -> float:
            return reduce(residuals_at(p))

        return minimize(objective, config)

    J = jacobian_blocks(model, data.inputs, start)
    r0 = residuals_at(start)
    f0 = reduce(r0)
    if not math.isfinite(f0):
        raise NonFiniteObjective(f"objective is {f0} at the start point")
    params = start + np.linalg.lstsq(J.reshape(-1, start.size), r0.reshape(-1), rcond=None)[0]
    return FittedModel(params, reduce(residuals_at(params)), iterations=0,
                       converged=True, evaluations=2)
