"""Deniability workflows: decoys, denial certificates, and the bound.

The central claim being operationalized: given a fitted model with
parameters p*, one can pick unrelated decoy training data and construct an
error norm under which that decoy retrains to exactly p*.  A certificate
packages the decoy, the norms, and the optimizer settings so anyone can
replay the retraining.  The information-theoretic side quantifies when the
true training data cannot be pinned down from the model alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import (
    CertificateTampered,
    DeniableFitError,
    InvalidArguments,
    LengthMismatch,
    NonPositiveSupport,
    RankConditionViolated,
    ZeroResidual,
)
from .linalg import DEFAULT_ZERO_TOL, numerical_rank, rank_condition
from .models import Dataset, ParamModel, jacobian, linear_regression_model, residuals
from .norms import VARIANT_EUCLIDEAN, CraftedNorm, make_crafted_norm
from .training import FittedModel, LossSpec, OptimizerConfig, fit

CERT_SCHEMA = "denial-cert/2"

# Quantization resolution for continuous attributes: entropy is reported
# for values discretized to this grid.
DEFAULT_RESOLUTION = 2.0 ** -20

# Stored residuals are rechecked to this absolute tolerance on verification.
INTEGRITY_TOL = 1e-9

# Largest per-coordinate deviation of a replayed fit from p* that passes.
DEFAULT_TOLERANCE = 5e-3

# Scale of the seeded start-point perturbation used when replaying a fit.
VERIFY_START_SCALE = 1e-2

DECOY_RESAMPLE_ATTEMPTS = 10


def derive_seed(seed: int, *labels) -> int:
    """Stable 63-bit sub-seed for a named stream under a master seed."""
    if seed is None:
        seed = 0
    material = repr((int(seed),) + tuple(str(l) for l in labels)).encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def substream(seed: int, *labels) -> np.random.Generator:
    """Independent generator for a named stream under a master seed."""
    return np.random.default_rng(derive_seed(seed, *labels))


# ---------------------------------------------------------------------------
# Record distributions and the deniability bound
# ---------------------------------------------------------------------------

def _is_finite(value) -> bool:
    """True for integers of any size and for finite floats."""
    return isinstance(value, numbers.Integral) or math.isfinite(value)


def _require_finite(owner, *values) -> None:
    if not all(_is_finite(v) for v in values):
        raise InvalidArguments(f"{owner!r} needs finite values")


@dataclass(frozen=True)
class DiscreteUniform:
    """Uniform over the integers lo..hi inclusive."""

    lo: int
    hi: int

    def __post_init__(self):
        _require_finite(self, self.lo, self.hi)
        if self.hi < self.lo:
            raise NonPositiveSupport(f"empty integer range {self.lo}..{self.hi}")


@dataclass(frozen=True)
class ContinuousUniform:
    """Uniform over the real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        _require_finite(self, self.lo, self.hi)
        if self.hi <= self.lo:
            raise NonPositiveSupport(f"empty interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Exponential:
    """Exponential with the given rate (mean 1/rate)."""

    rate: float

    def __post_init__(self):
        _require_finite(self, self.rate)
        if self.rate <= 0.0:
            raise NonPositiveSupport(f"rate must be positive, got {self.rate}")


AttributeDist = Union[DiscreteUniform, ContinuousUniform, Exponential]


@dataclass(frozen=True)
class DistributionSpec:
    """Per-attribute distributions describing one record."""

    attributes: Tuple[AttributeDist, ...]

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))

    @classmethod
    def uniform_ints(cls, lo: int, hi: int, count: int) -> "DistributionSpec":
        return cls(tuple(DiscreteUniform(lo, hi) for _ in range(count)))


def _attribute_entropy(dist: AttributeDist, resolution: float) -> float:
    if isinstance(dist, DiscreteUniform):
        return math.log2(dist.hi - dist.lo + 1)
    if isinstance(dist, ContinuousUniform):
        return math.log2((dist.hi - dist.lo) / resolution)
    if isinstance(dist, Exponential):
        return (1.0 - math.log(dist.rate) + math.log(1.0 / resolution)) / math.log(2.0)
    raise InvalidArguments(f"unknown distribution {dist!r}")


def entropy_per_record(spec: DistributionSpec, resolution: float = DEFAULT_RESOLUTION) -> float:
    """Bits of entropy in one record drawn from ``spec``.

    Discrete attributes contribute log2 of their support size.  Continuous
    attributes are quantized to ``resolution`` first, adding log2(1/q) bits
    to their differential entropy; reports should surface that convention.
    """
    if not spec.attributes:
        raise InvalidArguments("record needs at least one attribute")
    if not _is_finite(resolution) or resolution <= 0.0:
        raise InvalidArguments("resolution must be positive and finite")
    return float(sum(_attribute_entropy(a, resolution) for a in spec.attributes))


@dataclass(frozen=True)
class DeniabilityReport:
    """Outcome of the record-count test against the model's bit length."""

    k_bits: float
    entropy_per_record_bits: float
    n: int
    threshold: float
    deniable: bool

    def to_dict(self) -> dict:
        return {
            "k_bits": self.k_bits,
            "entropy_per_record_bits": self.entropy_per_record_bits,
            "n": self.n,
            "threshold": self.threshold,
            "deniable": self.deniable,
        }


def deniability_check(k_bits: float, entropy_bits: float, n: int) -> DeniabilityReport:
    """Deniable iff n strictly exceeds k_bits / entropy_bits.

    When more raw entropy enters the training set than the fitted model can
    store, the model cannot determine the data that produced it.
    """
    if not (_is_finite(k_bits) and _is_finite(entropy_bits)):
        raise InvalidArguments("k_bits and entropy_bits must be finite")
    if k_bits <= 0.0 or entropy_bits <= 0.0 or n < 1:
        raise InvalidArguments("need k_bits > 0, entropy_bits > 0, n >= 1")
    threshold = k_bits / entropy_bits
    return DeniabilityReport(
        k_bits=float(k_bits),
        entropy_per_record_bits=float(entropy_bits),
        n=int(n),
        threshold=float(threshold),
        deniable=bool(n > threshold),
    )


# ---------------------------------------------------------------------------
# Decoy data
# ---------------------------------------------------------------------------

def _sample_column(rng: np.random.Generator, dist: AttributeDist, n: int) -> np.ndarray:
    if isinstance(dist, DiscreteUniform):
        return rng.integers(dist.lo, dist.hi + 1, size=n).astype(float)
    if isinstance(dist, ContinuousUniform):
        return rng.uniform(dist.lo, dist.hi, size=n)
    if isinstance(dist, Exponential):
        return rng.exponential(1.0 / dist.rate, size=n)
    raise InvalidArguments(f"unknown distribution {dist!r}")


def generate_decoy(
    input_spec: DistributionSpec,
    response_spec: DistributionSpec,
    n: int,
    seed: int = 0,
) -> Dataset:
    """Draw n i.i.d. records: inputs and responses sampled independently."""
    if n < 1:
        raise InvalidArguments("need at least one record")
    if not input_spec.attributes or not response_spec.attributes:
        raise InvalidArguments("input and response specs need at least one attribute")
    rng_x = substream(seed, "decoy-inputs")
    rng_y = substream(seed, "decoy-responses")
    X = np.column_stack([_sample_column(rng_x, a, n) for a in input_spec.attributes])
    Y = np.column_stack([_sample_column(rng_y, a, n) for a in response_spec.attributes])
    return Dataset(inputs=X, responses=Y)


# ---------------------------------------------------------------------------
# Denial certificates
# ---------------------------------------------------------------------------

# Without an indent, ``JSONEncoder.encode`` takes CPython's C encoder;
# ``json.dump`` and any indent fall back to the pure-Python one.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _write_compact(write, value) -> None:
    """Write ``value`` as compact JSON, encoding each key, scalar and flat list in one call."""
    if isinstance(value, dict):
        write("{")
        for i, (key, item) in enumerate(value.items()):
            write(("," if i else "") + _COMPACT.encode(key) + ":")
            _write_compact(write, item)
        write("}")
    elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
        write("[")
        for i, item in enumerate(value):
            if i:
                write(",")
            _write_compact(write, item)
        write("]")
    else:
        write(_COMPACT.encode(value))


@dataclass(frozen=True, eq=False)
class DenialCertificate:
    """Everything needed to replay "this decoy retrains to p*".

    Holds the decoy dataset, one crafted norm per output column, the
    residual matrix at p*, and the exact optimizer configuration for the
    replay, including its seeded start point.
    """

    decoy: Dataset
    norms: Tuple[CraftedNorm, ...]
    residual: np.ndarray
    optimizer_config: OptimizerConfig
    model_descriptor: dict
    seed: Optional[int] = None

    def __post_init__(self):
        residual = np.array(self.residual, dtype=float)
        if residual.ndim == 1:
            residual = residual[:, None]
        residual.setflags(write=False)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "norms", tuple(self.norms))
        if len(self.norms) != residual.shape[1]:
            raise LengthMismatch(
                f"{len(self.norms)} norms for {residual.shape[1]} residual columns"
            )

    def loss_spec(self) -> LossSpec:
        return LossSpec.crafted_matrix(self.norms)

    def to_dict(self) -> dict:
        return {
            "schema": CERT_SCHEMA,
            "seed": self.seed,
            "model": dict(self.model_descriptor),
            "decoy": {
                "inputs": self.decoy.inputs.tolist(),
                "responses": self.decoy.responses.tolist(),
            },
            "residual": self.residual.tolist(),
            "norms": [nm.to_dict() for nm in self.norms],
            "optimizer": self.optimizer_config.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DenialCertificate":
        """Load a certificate, raising InvalidArguments when it is malformed."""
        schema = payload.get("schema")
        if schema != CERT_SCHEMA:
            raise InvalidArguments(f"unsupported certificate schema {schema!r}")
        try:
            decoy = Dataset(
                inputs=np.asarray(payload["decoy"]["inputs"], dtype=float),
                responses=np.asarray(payload["decoy"]["responses"], dtype=float),
            )
            cert = cls(
                decoy=decoy,
                norms=tuple(CraftedNorm.from_dict(d) for d in payload["norms"]),
                residual=np.asarray(payload["residual"], dtype=float),
                optimizer_config=OptimizerConfig.from_dict(payload["optimizer"]),
                model_descriptor=dict(payload["model"]),
                seed=payload.get("seed"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArguments(f"malformed certificate: {exc!r}") from None
        arrays = [decoy.inputs, decoy.responses, cert.residual]
        for nm in cert.norms:
            arrays += [nm.projector.rows, nm.projector.source_error, nm.w1, nm.alpha]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise InvalidArguments("certificate holds a NaN or infinite value")
        return cert

    def to_json(self, path) -> None:
        """Write ``json.dumps(self.to_dict(), separators=(",", ":"))`` and a newline.

        The text is streamed one matrix row at a time, so the file never
        exists in memory as a whole.
        """
        with open(path, "w") as fh:
            _write_compact(fh.write, self.to_dict())
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "DenialCertificate":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _require_finite_params(p_star: np.ndarray) -> None:
    if not np.isfinite(p_star).all():
        raise InvalidArguments("p* holds a NaN or infinite value")


def craft_denial(
    model: ParamModel,
    p_star,
    decoy: Dataset,
    seed: int = 0,
    inner_variant: str = VARIANT_EUCLIDEAN,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> DenialCertificate:
    """Build the denial certificate for ``decoy`` at parameters ``p_star``.

    Per output column: take the residual at p*, check it is nonzero and
    outside the Jacobian's column space (otherwise local optimality cannot
    be anchored there), and construct a crafted norm on it.  The replay
    configuration starts the refit at p* plus a seeded Gaussian
    perturbation of scale 1e-2 per coordinate.

    Raises ZeroResidual(j) when column j fits perfectly, and
    RankConditionViolated(j) when column j's residual is reachable by the
    model's tangent directions; resampling the decoy clears both in
    practice (see ``craft_denial_resampling``).  A p* with a NaN or
    infinite entry, or a ``zero_tol`` that is not positive and finite,
    raises InvalidArguments.
    """
    if not _is_finite(zero_tol) or zero_tol <= 0.0:
        raise InvalidArguments("zero_tol must be positive and finite")
    p_star = np.asarray(p_star, dtype=float).reshape(-1)
    E = residuals(model, decoy, p_star)  # raises DimensionMismatch on a wrong p*
    _require_finite_params(p_star)
    norms = []
    for j in range(E.shape[1]):
        e_j = E[:, j]
        if float(np.linalg.norm(e_j)) <= zero_tol:
            raise ZeroResidual(j)
        M_j = jacobian(model, decoy, p_star, output_index=j)
        if not rank_condition(M_j, e_j):
            raise RankConditionViolated(j)
        norms.append(
            make_crafted_norm(
                e_j,
                seed=derive_seed(seed, "w1", j),
                inner_variant=inner_variant,
            )
        )
    start = p_star + VERIFY_START_SCALE * substream(seed, "optimizer-start").standard_normal(
        p_star.size
    )
    return DenialCertificate(
        decoy=decoy,
        norms=tuple(norms),
        residual=E,
        optimizer_config=OptimizerConfig(start=start),
        model_descriptor=model.descriptor(),
        seed=int(seed),
    )


def _craft_resampling(
    model: ParamModel,
    p_star,
    input_spec: DistributionSpec,
    response_spec: DistributionSpec,
    n: int,
    seed: int,
    inner_variant: str,
    max_attempts: int,
) -> Tuple[DenialCertificate, int]:
    last_error: Optional[DeniableFitError] = None
    for attempt in range(max_attempts):
        decoy = generate_decoy(input_spec, response_spec, n, seed=derive_seed(seed, "decoy", attempt))
        try:
            cert = craft_denial(
                model,
                p_star,
                decoy,
                seed=derive_seed(seed, "craft", attempt),
                inner_variant=inner_variant,
            )
            return cert, attempt + 1
        except (RankConditionViolated, ZeroResidual) as exc:
            last_error = exc
    assert last_error is not None
    raise last_error


def craft_denial_resampling(
    model: ParamModel,
    p_star,
    input_spec: DistributionSpec,
    response_spec: DistributionSpec,
    n: int,
    seed: int = 0,
    inner_variant: str = VARIANT_EUCLIDEAN,
    max_attempts: int = DECOY_RESAMPLE_ATTEMPTS,
) -> DenialCertificate:
    """Draw decoys until one supports a certificate.

    Residuals of randomly drawn decoys land in the Jacobian's column space
    only on a measure-zero set, so the first attempt almost always
    succeeds; the cap keeps pathological model/spec pairings from looping.
    """
    cert, _ = _craft_resampling(
        model, p_star, input_spec, response_spec, n, seed, inner_variant, max_attempts
    )
    return cert


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Result of replaying the retraining promised by a certificate."""

    refit_params: np.ndarray
    max_abs_diff: float
    passed: bool
    final_loss: float
    iterations: int
    converged: bool

    def __post_init__(self):
        params = np.array(self.refit_params, dtype=float).reshape(-1)
        params.setflags(write=False)
        object.__setattr__(self, "refit_params", params)

    def to_dict(self) -> dict:
        return {
            "refit_params": self.refit_params.tolist(),
            "max_abs_diff": self.max_abs_diff,
            "passed": self.passed,
            "final_loss": self.final_loss,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def verify_denial(
    certificate: DenialCertificate,
    model: ParamModel,
    p_star,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Replay the certified retraining and compare against p*.

    First recomputes the residuals from the certificate's own decoy and
    model parameters; any mismatch with the stored residual (or with the
    norms' anchoring vectors) beyond 1e-9 raises CertificateTampered, as
    does a stored B that is not orthonormal or does not annihilate e.  Then
    refits under the certified norms from the certified start point and
    reports the max per-coordinate deviation from p*.  A ``tolerance``
    that is not positive and finite, or a p* with a NaN or infinite entry,
    raises InvalidArguments.
    """
    if not _is_finite(tolerance) or tolerance <= 0.0:
        raise InvalidArguments("tolerance must be positive and finite")
    p_star = np.asarray(p_star, dtype=float).reshape(-1)
    E = residuals(model, certificate.decoy, p_star)  # raises DimensionMismatch on a wrong p*
    _require_finite_params(p_star)
    if E.shape != certificate.residual.shape:
        raise CertificateTampered("stored residual has the wrong shape")
    if float(np.max(np.abs(E - certificate.residual))) > INTEGRITY_TOL:
        raise CertificateTampered("stored residual does not match recomputation")
    for j, nm in enumerate(certificate.norms):
        anchor = nm.projector.source_error
        if anchor.size != E.shape[0] or float(np.max(np.abs(anchor - E[:, j]))) > INTEGRITY_TOL:
            raise CertificateTampered(f"norm {j} is not anchored on the residual")
        B = nm.projector.rows
        annihilates = np.max(np.abs(B @ anchor)) <= INTEGRITY_TOL * max(1.0, np.linalg.norm(anchor))
        if not annihilates or np.max(np.abs(B @ B.T - np.eye(len(B)))) > INTEGRITY_TOL:
            raise CertificateTampered(f"norm {j}: stored B is not an orthonormal annihilator of e")

    result: FittedModel = fit(model, certificate.decoy, certificate.loss_spec(), certificate.optimizer_config)
    diff = float(np.max(np.abs(result.params - p_star)))
    return VerificationReport(
        refit_params=result.params,
        max_abs_diff=diff,
        passed=bool(diff <= tolerance),
        final_loss=result.final_loss,
        iterations=result.iterations,
        converged=result.converged,
    )


# ---------------------------------------------------------------------------
# Adversarial recovery (non-uniqueness demonstration)
# ---------------------------------------------------------------------------

def adversary_recover(
    model: ParamModel,
    p_star,
    n: int,
    seed: int = 0,
) -> Tuple[Dataset, Dataset]:
    """Two distinct datasets that both retrain (two-norm) to ``p_star``.

    An adversary holding only the model can manufacture perfectly fitting
    training sets at will: draw inputs, label them with the model's own
    predictions.  Every such dataset refits to p*, so recovery of "the"
    training data is impossible.  Requires n > param_dim so the least
    squares refit is pinned down.
    """
    p_star = np.asarray(p_star, dtype=float).reshape(-1)
    if n <= model.param_dim:
        raise InvalidArguments(
            f"need more records than parameters: n={n}, d={model.param_dim}"
        )

    def draw(label: str, avoid: Optional[np.ndarray]) -> np.ndarray:
        for attempt in range(20):
            rng = substream(seed, label, attempt)
            X = rng.uniform(1.0, 8.0, size=(n, model.input_dim))
            probe = Dataset(inputs=X, responses=np.zeros((n, model.output_dim)))
            M = jacobian(model, probe, p_star, output_index=0)
            if numerical_rank(M) < model.param_dim:
                continue  # refit would be underdetermined
            if avoid is not None and np.array_equal(X, avoid):
                continue
            return X
        raise InvalidArguments("could not draw a full-rank input matrix")

    X1 = draw("inputs-a", None)
    X2 = draw("inputs-b", X1)
    first = Dataset(inputs=X1, responses=model.predict_all(X1, p_star))
    second = Dataset(inputs=X2, responses=model.predict_all(X2, p_star))
    return first, second


# ---------------------------------------------------------------------------
# End-to-end trial: fit on honest data, deny with a decoy
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrialResult:
    """One honest-fit / decoy-retrain round trip."""

    index: int
    p_star: np.ndarray
    refit_params: np.ndarray
    max_abs_diff: float
    passed: bool
    converged: bool
    craft_attempts: int

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "p_star": self.p_star.tolist(),
            "refit_params": self.refit_params.tolist(),
            "max_abs_diff": self.max_abs_diff,
            "passed": self.passed,
            "converged": self.converged,
            "craft_attempts": self.craft_attempts,
        }


def run_denial_trial(
    d: int = 6,
    n: int = 10,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    index: int = 0,
    inner_variant: str = VARIANT_EUCLIDEAN,
) -> TrialResult:
    """Full pipeline on synthetic data.

    Draws true parameters uniformly from [-6, 6]^d, builds n training
    records with integer inputs from 1..8 and exponential noise (rate 5) on
    the responses, fits a linear model under the two-norm to obtain p*,
    then crafts a denial from an independent uniform decoy and verifies
    that the decoy retrains to p* within ``tolerance``.
    """
    if d < 2 or n < 2:
        raise InvalidArguments("need d >= 2 and n >= 2")
    m = d - 1
    trial_seed = derive_seed(seed, "trial", index)

    p_true = substream(trial_seed, "model").uniform(-6.0, 6.0, size=d)
    X = substream(trial_seed, "train-inputs").integers(1, 9, size=(n, m)).astype(float)
    noise = substream(trial_seed, "train-noise").exponential(1.0 / 5.0, size=n)
    model = linear_regression_model(m)
    train = Dataset(inputs=X, responses=model.predict_all(X, p_true) + noise[:, None])

    honest = fit(
        model,
        train,
        LossSpec.two_norm(),
        OptimizerConfig(start=np.zeros(d)),
    )
    p_star = honest.params

    certificate, attempts = _craft_resampling(
        model,
        p_star,
        DistributionSpec.uniform_ints(1, 8, m),
        DistributionSpec.uniform_ints(1, 8, 1),
        n,
        trial_seed,
        inner_variant,
        DECOY_RESAMPLE_ATTEMPTS,
    )
    report = verify_denial(certificate, model, p_star, tolerance=tolerance)
    return TrialResult(
        index=index,
        p_star=p_star,
        refit_params=report.refit_params,
        max_abs_diff=report.max_abs_diff,
        passed=report.passed,
        converged=report.converged,
        craft_attempts=attempts,
    )
