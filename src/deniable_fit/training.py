"""Training: loss specifications, simplex descent and the affine least-squares step.

The crafted losses have kinks (absolute values, norms of projections), so
the optimizer must not rely on gradients.  A plain Nelder-Mead simplex with
the standard coefficients (reflect 1, expand 2, contract 0.5, shrink 0.5)
handles them and is bit-for-bit deterministic for a fixed configuration.
Least-squares losses on a model declared affine need no search: ``fit``
solves them in one step.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

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
from .norms import CraftedNorm, crafted_matrix_kernel

LOSS_TWO_NORM = "two_norm"
LOSS_ONE_NORM = "one_norm"
LOSS_MSE = "mse"
LOSS_RMSE = "rmse"
LOSS_MAE = "mae"
LOSS_CRAFTED_MATRIX = "crafted_matrix"
# Losses minimized exactly where the sum of squared residuals is; ``fit``
# solves these in one step for an affine model.
_LEAST_SQUARES_KINDS = frozenset({LOSS_TWO_NORM, LOSS_MSE, LOSS_RMSE})

MAX_ITERS = 40000          # iteration budget shared by all restarts
SIMPLEX_SCALE = 0.05       # relative offset of the initial simplex vertices
CONVERGENCE_TOL = 1e-13    # value spread at which a descent stops


@dataclass(frozen=True, eq=False)
class LossSpec:
    """What to minimize over the residual matrix.

    Standard kinds reduce the flattened residuals; "crafted_matrix" sums
    one crafted norm per residual column, a single-output model included.
    """

    kind: str
    norms: Tuple[CraftedNorm, ...] = ()

    @classmethod
    def two_norm(cls) -> "LossSpec":
        return cls(LOSS_TWO_NORM)

    @classmethod
    def one_norm(cls) -> "LossSpec":
        return cls(LOSS_ONE_NORM)

    @classmethod
    def mse(cls) -> "LossSpec":
        return cls(LOSS_MSE)

    @classmethod
    def rmse(cls) -> "LossSpec":
        return cls(LOSS_RMSE)

    @classmethod
    def mae(cls) -> "LossSpec":
        return cls(LOSS_MAE)

    @classmethod
    def crafted_matrix(cls, norms: Sequence[CraftedNorm]) -> "LossSpec":
        return cls(LOSS_CRAFTED_MATRIX, norms=tuple(norms))

    def bind(self, shape: Tuple[int, ...]) -> Callable[[np.ndarray], float]:
        """The reducer of residual matrices of ``shape``, checked once.

        Raises InvalidArguments for an unknown kind or a crafted kind
        without norms, DimensionMismatch or LengthMismatch when the norms
        do not fit an n x k matrix of that shape, and EmptyInput when a
        standard kind gets no residuals.  The returned function checks
        nothing.
        """
        if self.kind == LOSS_CRAFTED_MATRIX:
            if not self.norms:
                raise InvalidArguments("crafted_matrix loss needs one norm per column")
            if len(shape) != 2:
                raise DimensionMismatch("residuals must form an n x k matrix")
            return crafted_matrix_kernel(self.norms, *shape)
        try:
            reduce = _STANDARD_REDUCERS[self.kind]
        except KeyError:
            raise InvalidArguments(f"unknown loss kind {self.kind!r}") from None
        if 0 in shape:
            raise EmptyInput("a loss needs at least one residual")
        return reduce

    def evaluate(self, E) -> float:
        E = np.asarray(E, dtype=float)
        if E.ndim == 1:
            E = E[:, None]
        return self.bind(E.shape)(E)


def _two_norm(E: np.ndarray) -> float:
    flat = E.reshape(-1)
    # What np.linalg.norm computes for a 1-D float vector, minus its overhead.
    return math.sqrt(float(flat @ flat))


def _one_norm(E: np.ndarray) -> float:
    return float(np.abs(E.reshape(-1)).sum())


def _mse(E: np.ndarray) -> float:
    flat = E.reshape(-1)
    return float(flat @ flat) / flat.size


def _rmse(E: np.ndarray) -> float:
    flat = E.reshape(-1)
    return float(np.sqrt(float(flat @ flat) / flat.size))


def _mae(E: np.ndarray) -> float:
    return float(np.abs(E.reshape(-1)).mean())


_STANDARD_REDUCERS = {
    LOSS_TWO_NORM: _two_norm,
    LOSS_ONE_NORM: _one_norm,
    LOSS_MSE: _mse,
    LOSS_RMSE: _rmse,
    LOSS_MAE: _mae,
}


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
    the start point included; the exact step of an affine least-squares
    fit makes 2 (at the start and at the solution) and 0 iterations.
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


def _sort_simplex(simplex: np.ndarray, values: list) -> Tuple[np.ndarray, list]:
    # list.sort is stable, so ties keep their order, as np.argsort(kind="stable").
    order = sorted(range(len(values)), key=values.__getitem__)
    return simplex[order], [values[i] for i in order]


def _descend(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    f0: float,
    iterations_used: int,
    callback: Optional[Callable[[float], None]],
) -> Tuple[np.ndarray, float, int, bool]:
    """One simplex descent from ``x0`` until the value spread collapses.

    ``objective`` returns a float that is never NaN.  The rows of
    ``simplex`` stay sorted by ``values``, ascending, ties in the order the
    vertices entered.
    """
    d = x0.size
    simplex = np.empty((d + 1, d))
    simplex[0] = x0
    values = [f0]
    for l in range(d):
        vertex = x0.copy()
        vertex[l] += SIMPLEX_SCALE * max(1.0, abs(x0[l]))
        simplex[l + 1] = vertex
        values.append(objective(vertex))
    simplex, values = _sort_simplex(simplex, values)

    converged = values[-1] - values[0] < CONVERGENCE_TOL
    while not converged and iterations_used < MAX_ITERS:
        iterations_used += 1
        centroid = simplex[:-1].sum(axis=0) / d
        worst = simplex[-1]

        reflected = centroid + (centroid - worst)
        f_reflected = objective(reflected)
        if values[0] <= f_reflected < values[-2]:
            vertex, f_vertex = reflected, f_reflected
        elif f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = objective(expanded)
            if f_expanded < f_reflected:
                vertex, f_vertex = expanded, f_expanded
            else:
                vertex, f_vertex = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_contracted = objective(contracted)
                accept = f_contracted <= f_reflected
            else:
                contracted = centroid - 0.5 * (centroid - worst)
                f_contracted = objective(contracted)
                accept = f_contracted < values[-1]
            if accept:
                vertex, f_vertex = contracted, f_contracted
            else:
                # Shrink everything toward the best vertex, which is kept.
                vertex = None
                for i in range(1, d + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = objective(simplex[i])
                simplex, values = _sort_simplex(simplex, values)

        if vertex is not None:
            # The new vertex replaces the worst one and goes after every
            # vertex whose value it does not undercut, as a stable sort would.
            i = bisect_right(values, f_vertex, 0, d)
            simplex[i + 1:] = simplex[i:-1]
            simplex[i] = vertex
            values.pop()
            values.insert(i, f_vertex)
        if callback is not None:
            callback(values[0])
        converged = values[-1] - values[0] < CONVERGENCE_TOL

    return simplex[0].copy(), values[0], iterations_used, converged


def minimize(
    objective: Callable[[np.ndarray], float],
    config: OptimizerConfig,
    callback: Optional[Callable[[float], None]] = None,
) -> FittedModel:
    """Restarted Nelder-Mead simplex descent from ``config.start``.

    Each descent offsets coordinate l of its start point by
    ``SIMPLEX_SCALE * max(1, |start_l|)`` to span the initial simplex and
    runs until the spread of vertex objective values drops below
    ``CONVERGENCE_TOL``.  A collapsed simplex on a kinked landscape can
    stall short of the optimum, so descents are restarted from the best
    point until one fails to improve it by more than ``CONVERGENCE_TOL``
    (the non-smooth losses here are exactly the stalling kind).  All
    descents share the ``MAX_ITERS`` budget; ``converged`` reports whether
    the final spread criterion was met within it.  The best value never
    increases across iterations (restarts keep the best vertex);
    ``callback``, when given, observes it once per iteration.

    Raises NonFiniteObjective when the objective is NaN or infinite at the
    start point.
    """
    x = np.array(config.start, dtype=float)
    f = float(objective(x))
    if not np.isfinite(f):
        raise NonFiniteObjective(f"objective is {f} at the start point")
    evaluations = 1

    def checked(p: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        value = float(objective(p))
        # NaN would poison the simplex ordering; treat it as "worst possible".
        return math.inf if math.isnan(value) else value

    iterations = 0
    converged = False
    while True:
        previous_best = f
        x, f, iterations, converged = _descend(checked, x, f, iterations, callback)
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

    The model, the data and the loss are checked once, before the descent;
    each objective evaluation then runs only the model and the reducer.

    A model declared ``affine`` under a least-squares loss (``two_norm``,
    ``mse`` or ``rmse``, which share their minimizers) is solved, not
    searched: with r0 the residual at ``config.start`` and J the analytic
    Jacobian there, reshaped to (n k, d), the result is
    ``start + lstsq(J, r0)``, the least-squares solution nearest the start
    (for start 0, exactly ``np.linalg.lstsq`` of the design matrix).  Its
    ``FittedModel`` reports 0 iterations, ``converged`` and 2 evaluations
    (the residuals at the start and at the solution).  Every other fit runs
    ``minimize``.  Both raise NonFiniteObjective when the loss at the start
    point is NaN or infinite.
    """
    if config.start.size != model.param_dim:
        raise DimensionMismatch(
            f"start point has {config.start.size} coordinates, model expects {model.param_dim}"
        )
    reduce = loss.bind((data.n, data.output_dim))
    residuals_at = bind_residuals(model, data)
    if model.affine and loss.kind in _LEAST_SQUARES_KINDS:
        return _solve_affine(model, data.inputs, reduce, residuals_at, config.start)

    def objective(p: np.ndarray) -> float:
        return reduce(residuals_at(p))

    return minimize(objective, config)


def _solve_affine(
    model: ParamModel,
    X: np.ndarray,
    reduce: Callable[[np.ndarray], float],
    residuals_at: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
) -> FittedModel:
    """The exact least-squares fit of an affine model, one solve from ``start``."""
    r0 = residuals_at(start)
    f0 = reduce(r0)
    if not math.isfinite(f0):
        raise NonFiniteObjective(f"objective is {f0} at the start point")
    J = jacobian_blocks(model, X, start).reshape(-1, start.size)
    params = start + np.linalg.lstsq(J, r0.reshape(-1), rcond=None)[0]
    return FittedModel(
        params=params,
        final_loss=reduce(residuals_at(params)),
        iterations=0,
        converged=True,
        evaluations=2,
    )
