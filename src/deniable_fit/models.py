"""Parameterized models, datasets, residuals, and Jacobians."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidArguments,
    NoEvaluator,
    NonFiniteValue,
)

# Forward-difference base step; scaled by max(1, |p_l|) per coordinate.
FD_STEP = 1e-6

_NON_FINITE_DERIVATIVE = "model produced NaN or infinity during differentiation"

# Serialization cost model: 64 bits per parameter plus a fixed header.
BITS_PER_PARAM = 64
HEADER_BITS = 128


@dataclass(frozen=True)
class Dataset:
    """n samples of m input attributes paired with k response attributes (frozen)."""

    inputs: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.atleast_2d(np.asarray(self.inputs, dtype=float)))
        responses = np.asarray(self.responses, dtype=float)
        if responses.ndim == 1:
            responses = responses[:, None]
        object.__setattr__(self, "responses", responses)
        if self.inputs.ndim != 2 or self.responses.ndim != 2:
            raise DimensionMismatch("inputs and responses must be 2-D")
        if self.inputs.shape[0] != self.responses.shape[0]:
            raise DimensionMismatch(
                f"{self.inputs.shape[0]} input rows vs {self.responses.shape[0]} response rows"
            )
        if self.inputs.shape[0] == 0:
            raise EmptyInput("dataset needs at least one sample")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.responses.shape[1]

    def to_csv(self, path) -> None:
        """Write header x1..xm,y1..yk and one row per sample.

        Floats are emitted as shortest round-trip decimals, so a write/read
        cycle reproduces the arrays exactly.
        """
        header = [f"x{i + 1}" for i in range(self.input_dim)]
        header += [f"y{j + 1}" for j in range(self.output_dim)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for xi, yi in zip(self.inputs, self.responses):
                writer.writerow([repr(float(v)) for v in xi] + [repr(float(v)) for v in yi])

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """Read a file in ``to_csv``'s layout: header x1..xm,y1..yk, one row per sample.

        Fields may be quoted, blank lines are skipped and ``#`` starts no
        comment.  A wrong header, a row of the wrong length, or a field that
        is not a finite number raises InvalidArguments naming the path (and
        the 1-based line of the first bad row); a file without samples
        raises EmptyInput.
        """
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            body = fh.read()
        if header is None:
            raise EmptyInput(f"{path} is empty")
        m = sum(1 for name in header if name.startswith("x"))
        k = sum(1 for name in header if name.startswith("y"))
        expected = [f"x{i + 1}" for i in range(m)] + [f"y{j + 1}" for j in range(k)]
        if header != expected or m == 0 or k == 0:
            raise InvalidArguments(f"{path}: header must read x1..xm,y1..yk, got {header!r}")
        if not body.strip("\r\n"):
            raise EmptyInput(f"{path} has a header but no samples")
        try:
            data = _parse_rows(body, m + k)
        except ValueError as exc:
            # Name the first bad line.  An error that no single line shows,
            # such as a quoted field spanning lines, names only the file.
            for line_no, line in enumerate(io.StringIO(body, newline=""), start=2):
                if line.strip("\r\n"):
                    try:
                        _parse_rows(line, m + k)
                    except ValueError as line_exc:
                        reason = str(line_exc).replace(" at row 0, column", " in field")
                        raise InvalidArguments(f"{path}:{line_no}: {reason}") from None
            raise InvalidArguments(f"{path}: {exc}") from None
        return cls(inputs=data[:, :m], responses=data[:, m:])


def _parse_rows(text: str, fields: int) -> np.ndarray:
    """The float rows of CSV ``text``, which holds at least one non-blank line.

    Blank lines are skipped.  Raises ValueError unless every other line
    holds ``fields`` finite numbers.
    """
    data = np.loadtxt(io.StringIO(text, newline=""), delimiter=",", quotechar='"',
                      comments=None, ndmin=2)
    if data.shape[1] != fields:
        raise ValueError(f"expected {fields} fields")
    if not np.isfinite(data).all():
        raise ValueError("a field is NaN or infinite")
    return data


def _evaluate(evaluator: Callable, X: np.ndarray, p: np.ndarray, shape: tuple) -> np.ndarray:
    out = np.asarray(evaluator(X, p), dtype=float)
    if out.shape != shape:
        raise DimensionMismatch(f"evaluator produced shape {out.shape}, expected {shape}")
    return out


@dataclass(eq=False)
class ParamModel:
    """A model f: R^m x R^d -> R^k, evaluated on all input rows at once.

    ``evaluator(X, p)`` maps the (n, m) input matrix to the (n, k) matrix
    of outputs; it must be reentrant (no shared mutable state).
    ``analytic_jacobian(X, p)`` returns the (n, k, d) array of parameter
    derivatives, one k x d block per input row.

    ``affine=True`` declares f(X, p) = f(X, 0) + J(X) p, with J the
    analytic Jacobian, which such a model must carry (InvalidArguments
    otherwise).  ``fit`` then solves the two-norm loss in one step
    instead of searching.  The declaration is trusted, not checked.
    """

    param_dim: int
    input_dim: int
    output_dim: int
    evaluator: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    analytic_jacobian: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    family: Optional[str] = None
    affine: bool = False

    def __post_init__(self):
        if self.affine and self.analytic_jacobian is None:
            raise InvalidArguments("an affine model needs an analytic Jacobian")

    def predict_all(self, X, p) -> np.ndarray:
        """The (n, k) outputs for the rows of ``X``."""
        if self.evaluator is None:
            raise NoEvaluator("model has no evaluator")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _evaluate(self.evaluator, X, p, (X.shape[0], self.output_dim))

    def descriptor(self) -> dict:
        return {
            "family": self.family or "custom",
            "input_dim": self.input_dim,
            "param_dim": self.param_dim,
            "output_dim": self.output_dim,
        }


def linear_regression_model(input_dim: int) -> ParamModel:
    """Affine single-output model: intercept plus one slope per attribute."""
    if input_dim < 1:
        raise InvalidArguments("need at least one input attribute")
    d = input_dim + 1

    def evaluate(X: np.ndarray, p: np.ndarray) -> np.ndarray:
        # vecdot rounds like the per-row dot p[1:] @ x; gemv (X @ p[1:]) does not.
        return (p[0] + np.vecdot(X, p[1:]))[:, None]

    def jac(X: np.ndarray, p: np.ndarray) -> np.ndarray:
        # Derivatives do not depend on p for an affine model.
        return np.concatenate((np.ones((X.shape[0], 1)), X), axis=1)[:, None, :]

    return ParamModel(
        param_dim=d,
        input_dim=input_dim,
        output_dim=1,
        evaluator=evaluate,
        analytic_jacobian=jac,
        family="linear_regression",
        affine=True,
    )


def _check_params(model: ParamModel, p) -> np.ndarray:
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size != model.param_dim:
        raise DimensionMismatch(f"model expects {model.param_dim} parameters, got {p.size}")
    return p


def bind_residuals(model: ParamModel, data: Dataset) -> Callable[[np.ndarray], np.ndarray]:
    """The map p -> residual matrix of ``model`` on ``data``, checked once.

    The dataset's dimensions and the evaluator's presence are checked here;
    each call checks only the evaluator's output shape.  Calls take a 1-D
    float array of ``model.param_dim`` entries, which the caller guarantees.
    """
    if data.input_dim != model.input_dim or data.output_dim != model.output_dim:
        raise DimensionMismatch(
            f"dataset is {data.input_dim}->{data.output_dim}, model is "
            f"{model.input_dim}->{model.output_dim}"
        )
    if model.evaluator is None:
        raise NoEvaluator("model has no evaluator")
    evaluator, X, Y = model.evaluator, data.inputs, data.responses
    shape = Y.shape

    def bound(p: np.ndarray) -> np.ndarray:
        return Y - _evaluate(evaluator, X, p, shape)

    return bound


def residuals(model: ParamModel, data: Dataset, p) -> np.ndarray:
    """Residual matrix E with E[i, j] = y_ij - f_j(x_i, p)."""
    p = _check_params(model, p)
    return bind_residuals(model, data)(p)


def jacobian_blocks(model: ParamModel, X: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The model's (n, k, d) analytic Jacobian at ``p``, checked.

    ``X`` is the (n, m) float input matrix and ``p`` a 1-D float array of
    ``model.param_dim`` entries, which the caller guarantees.  A result of
    the wrong shape raises DimensionMismatch, a NaN or infinite entry
    NonFiniteValue.
    """
    J = np.asarray(model.analytic_jacobian(X, p), dtype=float)
    if J.shape != (X.shape[0], model.output_dim, p.size):
        raise DimensionMismatch(f"analytic Jacobian has shape {J.shape}, expected (n, k, d)")
    if not np.all(np.isfinite(J)):
        raise NonFiniteValue(_NON_FINITE_DERIVATIVE)
    return J


def jacobian(
    model: ParamModel,
    data: Dataset,
    p,
    output_index: int = 0,
) -> np.ndarray:
    """n x d matrix of parameter derivatives of output ``output_index``.

    Uses the analytic Jacobian when the model carries one, otherwise
    forward differences with per-coordinate step h = 1e-6 * max(1, |p_l|).
    """
    p = _check_params(model, p)
    if not 0 <= output_index < model.output_dim:
        raise InvalidArguments(f"output_index {output_index} out of range")
    if data.input_dim != model.input_dim:
        raise DimensionMismatch("dataset inputs do not match the model")

    if model.analytic_jacobian is not None:
        return jacobian_blocks(model, data.inputs, p)[:, output_index, :]
    base = model.predict_all(data.inputs, p)[:, output_index]
    M = np.empty((data.n, p.size))
    for l in range(p.size):
        h = FD_STEP * max(1.0, abs(p[l]))
        shifted = p.copy()
        shifted[l] += h
        M[:, l] = (model.predict_all(data.inputs, shifted)[:, output_index] - base) / h
    if not np.all(np.isfinite(M)):
        raise NonFiniteValue(_NON_FINITE_DERIVATIVE)
    return M


def serialized_bit_length(model: ParamModel, p) -> int:
    """Bits needed to ship the fitted model: 64 per parameter plus header."""
    p = _check_params(model, p)
    if not np.all(np.isfinite(p)):
        raise InvalidArguments("parameters must be finite")
    return BITS_PER_PARAM * p.size + HEADER_BITS
