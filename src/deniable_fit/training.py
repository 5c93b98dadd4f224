"""Derivative-free training: loss specifications and simplex descent.

The crafted losses have kinks (absolute values, norms of projections), so
the optimizer must not rely on gradients.  A plain Nelder-Mead simplex with
the standard coefficients (reflect 1, expand 2, contract 0.5, shrink 0.5)
handles them and is bit-for-bit deterministic for a fixed configuration.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArguments,
    NonFiniteObjective,
)
from .models import Dataset, ParamModel, bind_residuals
# Not called here; perfbench/tracing.py wraps training.residuals by that name.
from .models import residuals  # noqa: F401
from .norms import CraftedNorm, crafted_kernel, crafted_matrix_kernel

LOSS_TWO_NORM = "two_norm"
LOSS_ONE_NORM = "one_norm"
LOSS_MSE = "mse"
LOSS_RMSE = "rmse"
LOSS_MAE = "mae"
LOSS_CRAFTED = "crafted"
LOSS_CRAFTED_MATRIX = "crafted_matrix"

DEFAULT_MAX_ITERS = 40000
DEFAULT_SIMPLEX_SCALE = 0.05
DEFAULT_CONVERGENCE_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class LossSpec:
    """What to minimize over the residual matrix.

    Standard kinds reduce the flattened residuals; "crafted" applies one
    crafted norm to a single-output residual column; "crafted_matrix" sums
    per-column crafted norms for multi-output models.
    """

    kind: str
    norm: Optional[CraftedNorm] = None
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
    def crafted(cls, norm: CraftedNorm) -> "LossSpec":
        return cls(LOSS_CRAFTED, norm=norm)

    @classmethod
    def crafted_matrix(cls, norms: Sequence[CraftedNorm]) -> "LossSpec":
        return cls(LOSS_CRAFTED_MATRIX, norms=tuple(norms))

    def bind(self, shape: Tuple[int, ...]) -> Callable[[np.ndarray], float]:
        """The reducer of residual matrices of ``shape``, checked once.

        Raises InvalidArguments for an unknown kind or a crafted kind
        without norms, and DimensionMismatch or LengthMismatch when the
        norms do not fit an n x k matrix of that shape.  The returned
        function checks nothing.
        """
        if self.kind == LOSS_CRAFTED:
            if self.norm is None:
                raise InvalidArguments("crafted loss needs a norm")
            if len(shape) != 2 or shape[1] != 1:
                raise DimensionMismatch("crafted loss applies to single-output residuals")
            if self.norm.dim != shape[0]:
                raise DimensionMismatch(
                    f"crafted norm is anchored on {self.norm.dim} samples, got {shape[0]}"
                )
            kernel = crafted_kernel(self.norm)
            return lambda E: kernel(E[:, 0])
        if self.kind == LOSS_CRAFTED_MATRIX:
            if not self.norms:
                raise InvalidArguments("crafted_matrix loss needs one norm per column")
            if len(shape) != 2:
                raise DimensionMismatch("residuals must form an n x k matrix")
            return crafted_matrix_kernel(self.norms, *shape)
        try:
            return _STANDARD_REDUCERS[self.kind]
        except KeyError:
            raise InvalidArguments(f"unknown loss kind {self.kind!r}") from None

    def evaluate(self, E) -> float:
        E = np.asarray(E, dtype=float)
        if E.ndim == 1:
            E = E[:, None]
        return self.bind(E.shape)(E)


def _two_norm(E: np.ndarray) -> float:
    return float(np.linalg.norm(E.reshape(-1)))


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
    """Simplex-descent settings.  Identical configs give identical fits."""

    start: np.ndarray
    max_iters: int = DEFAULT_MAX_ITERS
    simplex_scale: float = DEFAULT_SIMPLEX_SCALE
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL
    seed: Optional[int] = None

    def __post_init__(self):
        start = np.array(self.start, dtype=float).reshape(-1)
        start.setflags(write=False)
        object.__setattr__(self, "start", start)
        if start.size == 0:
            raise InvalidArguments("start point must have at least one coordinate")
        if not np.all(np.isfinite(start)):
            raise InvalidArguments("start point must be finite")
        if self.max_iters < 1:
            raise InvalidArguments("max_iters must be positive")
        if self.simplex_scale <= 0.0 or self.convergence_tol <= 0.0:
            raise InvalidArguments("simplex_scale and convergence_tol must be positive")

    def to_dict(self) -> dict:
        return {
            "start": self.start.tolist(),
            "max_iters": self.max_iters,
            "simplex_scale": self.simplex_scale,
            "convergence_tol": self.convergence_tol,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OptimizerConfig":
        return cls(
            start=np.asarray(payload["start"], dtype=float),
            max_iters=int(payload["max_iters"]),
            simplex_scale=float(payload["simplex_scale"]),
            convergence_tol=float(payload["convergence_tol"]),
            seed=payload.get("seed"),
        )


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Outcome of a minimization run.

    ``evaluations`` counts the objective calls of all descents, the one at
    the start point included.
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
    config: OptimizerConfig,
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
        vertex[l] += config.simplex_scale * max(1.0, abs(x0[l]))
        simplex[l + 1] = vertex
        values.append(objective(vertex))
    simplex, values = _sort_simplex(simplex, values)

    converged = values[-1] - values[0] < config.convergence_tol
    while not converged and iterations_used < config.max_iters:
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
        converged = values[-1] - values[0] < config.convergence_tol

    return simplex[0].copy(), values[0], iterations_used, converged


def minimize(
    objective: Callable[[np.ndarray], float],
    config: OptimizerConfig,
    callback: Optional[Callable[[float], None]] = None,
) -> FittedModel:
    """Restarted Nelder-Mead simplex descent from ``config.start``.

    Each descent offsets coordinate l of its start point by
    ``simplex_scale * max(1, |start_l|)`` to span the initial simplex and
    runs until the spread of vertex objective values drops below
    ``convergence_tol``.  A collapsed simplex on a kinked landscape can
    stall short of the optimum, so descents are restarted from the best
    point until one fails to improve it by more than ``convergence_tol``
    (the non-smooth losses here are exactly the stalling kind).  All
    descents share the ``max_iters`` budget; ``converged`` reports whether
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
        x, f, iterations, converged = _descend(checked, x, f, config, iterations, callback)
        if not converged or previous_best - f <= config.convergence_tol:
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
    """
    if config.start.size != model.param_dim:
        raise DimensionMismatch(
            f"start point has {config.start.size} coordinates, model expects {model.param_dim}"
        )
    reduce = loss.bind((data.n, data.output_dim))
    residuals_at = bind_residuals(model, data)

    def objective(p: np.ndarray) -> float:
        return reduce(residuals_at(p))

    return minimize(objective, config)
