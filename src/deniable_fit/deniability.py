"""Deniability workflows: decoys, denial certificates, and the bound.

The central claim being operationalized: given a fitted model with
parameters p*, one can pick unrelated decoy training data and construct an
error norm under which that decoy retrains to exactly p*.  A certificate
packages the decoy, the norms and the seed, from which the verifier derives
the replay's start point, so anyone can replay the retraining.  The
information-theoretic side quantifies when the true training data cannot be
pinned down from the model alone.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple, Union

import numpy as np

from .errors import (
    CertificateTampered,
    DeniableFitError,
    DimensionMismatch,
    InvalidArguments,
    LengthMismatch,
    NonPositiveSupport,
    RankConditionViolated,
    ZeroResidual,
)
from .models import Dataset, ParamModel, jacobian, linear_regression_model, residuals
from .norms import (VARIANT_EUCLIDEAN, ZERO_TOL, CraftedNorm, make_crafted_norm,
                    rank_condition, require_seed)
from .training import FittedModel, LossSpec, OptimizerConfig, fit

CERT_SCHEMA = "denial-cert/4"

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

# The keys of a certificate's model descriptor, as ``ParamModel.descriptor`` writes them.
DESCRIPTOR_KEYS = ("family", "input_dim", "param_dim", "output_dim")


def derive_seed(seed: int, *labels) -> int:
    """Stable 63-bit sub-seed for a named stream under a master seed.

    A ``seed`` that is not an int (a bool included) in [0, 2**64) raises
    InvalidArguments, so every seeded entry point refuses it.
    """
    require_seed(seed)
    material = repr((seed,) + tuple(str(l) for l in labels)).encode()
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
    """Uniform over the integers lo..hi inclusive; written "du:lo:hi"."""

    token: ClassVar[str] = "du"
    quantized: ClassVar[bool] = False
    lo: int
    hi: int

    def __post_init__(self):
        # parse reads integers; a float or bool bound would not match the samples.
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.lo, self.hi)):
            raise InvalidArguments(f"{self!r} needs integer bounds")
        if self.hi < self.lo:
            raise NonPositiveSupport(f"empty integer range {self.lo}..{self.hi}")

    @classmethod
    def parse(cls, args) -> "DiscreteUniform":
        return cls(*map(int, args))

    def entropy(self, resolution: float) -> float:
        return math.log2(self.hi - self.lo + 1)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(self.lo, self.hi + 1, size=n).astype(float)


@dataclass(frozen=True)
class ContinuousUniform:
    """Uniform over the real interval [lo, hi]; written "cu:lo:hi"."""

    token: ClassVar[str] = "cu"
    quantized: ClassVar[bool] = True
    lo: float
    hi: float

    def __post_init__(self):
        _require_finite(self, self.lo, self.hi)
        if self.hi <= self.lo:
            raise NonPositiveSupport(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def parse(cls, args) -> "ContinuousUniform":
        return cls(*map(float, args))

    def entropy(self, resolution: float) -> float:
        return math.log2((self.hi - self.lo) / resolution)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)


@dataclass(frozen=True)
class Exponential:
    """Exponential with the given rate (mean 1/rate); written "exp:rate"."""

    token: ClassVar[str] = "exp"
    quantized: ClassVar[bool] = True
    rate: float

    def __post_init__(self):
        _require_finite(self, self.rate)
        if self.rate <= 0.0:
            raise NonPositiveSupport(f"rate must be positive, got {self.rate}")

    @classmethod
    def parse(cls, args) -> "Exponential":
        return cls(*map(float, args))

    def entropy(self, resolution: float) -> float:
        return (1.0 - math.log(self.rate) + math.log(1.0 / resolution)) / math.log(2.0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)


# Every kind of record attribute.  Each has its CLI ``token``, ``parse(args)``
# from its argument strings (TypeError for a wrong count, ValueError for a
# malformed one), ``entropy`` and ``sample``; ``quantized`` kinds are continuous.
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
    return float(sum(a.entropy(resolution) for a in spec.attributes))


@dataclass(frozen=True)
class DeniabilityReport:
    """Outcome of the record-count test against the model's bit length."""

    k_bits: float
    entropy_per_record_bits: float
    n: int
    threshold: float
    deniable: bool

    def to_dict(self) -> dict:
        return dict(vars(self))


def deniability_check(k_bits: float, entropy_bits: float, n: int) -> DeniabilityReport:
    """Deniable iff n strictly exceeds k_bits / entropy_bits.

    When more raw entropy enters the training set than the fitted model can
    store, the model cannot determine the data that produced it.
    """
    if not (_is_finite(k_bits) and _is_finite(entropy_bits)):
        raise InvalidArguments("k_bits and entropy_bits must be finite")
    if k_bits <= 0.0 or entropy_bits <= 0.0 or n < 1:
        raise InvalidArguments("need k_bits > 0, entropy_bits > 0, n >= 1")
    try:
        threshold = k_bits / entropy_bits
    except OverflowError:  # an integer k_bits beyond float range
        threshold = math.inf
    if not math.isfinite(threshold):
        raise InvalidArguments(f"k_bits / entropy_bits overflows: {k_bits!r} / {entropy_bits!r}")
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
    X = np.column_stack([a.sample(rng_x, n) for a in input_spec.attributes])
    Y = np.column_stack([a.sample(rng_y, n) for a in response_spec.attributes])
    return Dataset(inputs=X, responses=Y)


# ---------------------------------------------------------------------------
# Denial certificates
# ---------------------------------------------------------------------------

# Most floats encoded by one orjson call when writing a matrix: about 100 kB of text.
BLOCK = 4096


def _write_compact(write, value, orjson) -> None:
    """Write ``value`` as compact JSON bytes, streaming dict entries and list items.

    A numpy array is encoded from its buffer, so a matrix is never turned
    into Python floats: a 1-D array in one call, a 2-D array in blocks of
    about ``BLOCK`` floats (whole rows), so its text never exists in memory
    as a whole.  ``orjson`` is the module, which callers import on first use.
    """
    if isinstance(value, dict):
        write(b"{")
        for i, (key, item) in enumerate(value.items()):
            write((b"," if i else b"") + orjson.dumps(key) + b":")
            _write_compact(write, item, orjson)
        write(b"}")
    elif isinstance(value, list):
        write(b"[")
        for i, item in enumerate(value):
            if i:
                write(b",")
            _write_compact(write, item, orjson)
        write(b"]")
    elif isinstance(value, np.ndarray) and value.ndim == 2:
        rows = max(1, BLOCK // max(1, value.shape[1]))
        write(b"[")
        for start in range(0, len(value), rows):
            if start:
                write(b",")
            # A C-ordered copy where needed; the block's own brackets are dropped.
            block = np.ascontiguousarray(value[start:start + rows])
            write(memoryview(orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY))[1:-1])
        write(b"]")
    else:
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)  # orjson reads C-ordered buffers only
        write(orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY))


def _plain(value):
    """``value`` with every numpy array turned into (nested) lists."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


@dataclass(frozen=True, eq=False)
class DenialCertificate:
    """Everything needed to replay "this decoy retrains to p*".

    Holds the decoy dataset, one crafted norm per output column, the
    residual matrix at p*, and the seed from which ``verify_denial`` derives
    the replay's start point; the replay runs with the package's fixed
    optimizer settings.  The certificate keeps read-only copies of the
    decoy's arrays and its own copy of the descriptor, so later edits of
    the caller's objects do not reach it.

    Construction alone decides validity, so every certificate writes a file
    that ``from_json`` loads back to it.  Every number must be finite,
    ``seed`` an integer in [0, 2**64), the descriptor pass
    ``_check_descriptor`` and each norm ``CraftedNorm.validate`` against its
    column of ``residual``, or InvalidArguments is raised.  Shapes that
    disagree with each other or with the descriptor's dimensions raise
    DimensionMismatch, and a norm count off the residual's LengthMismatch.
    """

    decoy: Dataset
    norms: Tuple[CraftedNorm, ...]
    residual: np.ndarray
    model_descriptor: dict
    seed: int

    def __post_init__(self):
        residual = np.array(self.residual, dtype=float)
        if residual.ndim == 1:
            residual = residual[:, None]
        inputs, responses = self.decoy.inputs, self.decoy.responses
        decoy = Dataset(np.array(inputs, dtype=float), np.array(responses, dtype=float))
        for array in (residual, decoy.inputs, decoy.responses):
            array.setflags(write=False)
        object.__setattr__(self, "decoy", decoy)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "norms", tuple(self.norms))
        require_seed(self.seed)
        _check_descriptor(self.model_descriptor)
        object.__setattr__(self, "model_descriptor", dict(self.model_descriptor))
        m, k = self.model_descriptor["input_dim"], self.model_descriptor["output_dim"]
        if decoy.input_dim != m or decoy.output_dim != k or residual.shape != (decoy.n, k):
            raise DimensionMismatch(
                f"a model of {m} inputs and {k} outputs, decoy inputs {decoy.inputs.shape}, "
                f"decoy responses {decoy.responses.shape} and residual {residual.shape} disagree"
            )
        if len(self.norms) != k:
            raise LengthMismatch(f"{len(self.norms)} norms for {k} residual columns")
        arrays = [self.decoy.inputs, self.decoy.responses, residual]
        for j, nm in enumerate(self.norms):
            if nm.dim != residual.shape[0]:
                raise DimensionMismatch(
                    f"norm {j} has dimension {nm.dim}, the residual has {residual.shape[0]} rows"
                )
            arrays += [nm.b_rows, nm.w1]
        scalars = [nm.alpha for nm in self.norms]
        if not (all(np.isfinite(a).all() for a in arrays) and all(map(_is_finite, scalars))):
            raise InvalidArguments("certificate holds a NaN or infinite value")
        for j, nm in enumerate(self.norms):
            nm.validate(residual[:, j])

    def loss_spec(self) -> LossSpec:
        return LossSpec.crafted_matrix(self.norms)

    def _fields(self) -> dict:
        """The entries of ``to_dict()``, with the arrays left as numpy arrays."""
        return {
            "schema": CERT_SCHEMA,
            "seed": self.seed,
            "model": dict(self.model_descriptor),
            "decoy": {"inputs": self.decoy.inputs, "responses": self.decoy.responses},
            "residual": self.residual,
            "norms": [
                {"b_rows": nm.b_rows, "w1": nm.w1, "alpha": nm.alpha, "variant": nm.inner_variant}
                for nm in self.norms
            ],
        }

    def to_dict(self) -> dict:
        return _plain(self._fields())

    @classmethod
    def from_dict(cls, payload: dict) -> "DenialCertificate":
        """Load a certificate, raising InvalidArguments when it is malformed.

        Maps the JSON onto the constructor, which decides what else is
        valid: the payload, its ``decoy`` and each norm must be JSON objects
        with exactly the keys ``to_dict()`` writes, under the current schema
        tag, and every entry of the arrays and each ``alpha`` must be a JSON
        number: a string, a boolean or a ``null`` is refused.
        """
        if not isinstance(payload, dict):
            raise InvalidArguments(f"a certificate is a JSON object, got {type(payload).__name__}")
        schema = payload.get("schema")
        if schema != CERT_SCHEMA:
            raise InvalidArguments(f"unsupported certificate schema {schema!r}")
        _require_keys(payload, "certificate", "schema", "seed", "model", "decoy", "residual", "norms")
        _require_keys(payload["decoy"], "decoy", "inputs", "responses")
        try:
            for d in payload["norms"]:
                _require_keys(d, "norm", "b_rows", "w1", "alpha", "variant")
            decoy = Dataset(
                inputs=_numbers(payload["decoy"]["inputs"], "decoy inputs"),
                responses=_numbers(payload["decoy"]["responses"], "decoy responses"),
            )
            norms = tuple(
                CraftedNorm(
                    b_rows=_numbers(d["b_rows"], "b_rows"),
                    w1=_numbers(d["w1"], "w1"),
                    alpha=float(_numbers(d["alpha"], "alpha")),
                    inner_variant=str(d["variant"]),
                )
                for d in payload["norms"]
            )
            return cls(
                decoy=decoy,
                norms=norms,
                residual=_numbers(payload["residual"], "residual"),
                model_descriptor=payload["model"],
                seed=payload["seed"],
            )
        except (TypeError, ValueError, OverflowError, DimensionMismatch, LengthMismatch) as exc:
            raise InvalidArguments(f"malformed certificate: {exc!r}") from None

    def to_json(self, path) -> None:
        """Write ``self.to_dict()`` as one line of compact JSON and a newline.

        Floats are written by orjson's shortest round-trip (Ryu) formatter,
        so every JSON parser reads back the same float64 values.  The text is
        streamed straight from the arrays, each matrix in blocks of whole rows
        of about ``BLOCK`` (4,096) floats, so neither the text nor
        ``to_dict()`` ever exists in memory as a whole: the writer holds one
        block at a time, whatever the size of the decoy.

        The text goes to a new temporary file next to ``path``, which then
        replaces ``path`` in one rename.  If writing fails, the temporary
        file is removed and whatever was at ``path`` stays as it was.
        """
        import orjson  # imported on first use: only certificate I/O needs it

        tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
        fh = open(tmp, "xb")  # outside the try: a name that exists already is not ours to remove
        try:
            with fh:
                _write_compact(fh.write, self._fields(), orjson)
                fh.write(b"\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def from_json(cls, path) -> "DenialCertificate":
        """Load a certificate file, raising InvalidArguments unless it is valid JSON."""
        import orjson  # imported on first use: only certificate I/O needs it

        with open(path, "rb") as fh:
            text = fh.read()
        try:
            payload = orjson.loads(text)
        except orjson.JSONDecodeError as exc:
            raise InvalidArguments(f"{path}: not a JSON certificate: {exc}") from None
        return cls.from_dict(payload)


def _require_keys(obj, where: str, *keys) -> None:
    """Raise InvalidArguments, naming the keys, unless ``obj`` is a dict with exactly ``keys``."""
    if not isinstance(obj, dict):
        raise InvalidArguments(f"malformed certificate: {where} is not a JSON object")
    missing, unknown = [k for k in keys if k not in obj], [k for k in obj if k not in keys]
    if missing or unknown:
        raise InvalidArguments(f"malformed certificate: {where} lacks keys {missing}, "
                               f"has unknown keys {unknown}")


def _check_descriptor(descriptor) -> None:
    """Raise InvalidArguments unless ``descriptor`` is a dict with exactly ``DESCRIPTOR_KEYS``,
    a string family and integer (not bool) dimensions in [1, 2**63), as ``ParamModel`` gives."""
    _require_keys(descriptor, "model", *DESCRIPTOR_KEYS)
    family, *dims = (descriptor[key] for key in DESCRIPTOR_KEYS)
    if not (isinstance(family, str) and all(
            isinstance(v, numbers.Integral) and not isinstance(v, bool) and 0 < v < 2 ** 63
            for v in dims)):
        raise InvalidArguments(f"malformed certificate: model {descriptor} needs a string "
                               "family and positive integer dimensions")


def _numbers(value, what: str) -> np.ndarray:
    """A JSON number, or nested arrays of them, as a float array.

    Strings, booleans and nulls raise InvalidArguments; ``np.asarray(value,
    dtype=float)`` would convert them.
    """
    entries = np.array(value, dtype=object)
    if not set(map(type, entries.reshape(-1))) <= {int, float}:
        raise InvalidArguments(f"malformed certificate: {what} holds a value that is not a number")
    return entries.astype(float)


def _require_finite_params(p_star: np.ndarray) -> None:
    if not np.isfinite(p_star).all():
        raise InvalidArguments("p* holds a NaN or infinite value")


def craft_denial(
    model: ParamModel,
    p_star,
    decoy: Dataset,
    seed: int = 0,
    inner_variant: str = VARIANT_EUCLIDEAN,
) -> DenialCertificate:
    """Build the denial certificate for ``decoy`` at parameters ``p_star``.

    Per output column: take the residual at p*, check that its 2-norm
    exceeds ``ZERO_TOL`` and that it lies outside the Jacobian's column
    space (otherwise local optimality cannot be anchored there), and
    construct a crafted norm on it, its w1 drawn from ``seed``.  The
    certificate stores ``seed``, from which ``verify_denial`` derives the
    replay's start point.

    Raises ZeroResidual(j) when column j fits perfectly, and
    RankConditionViolated(j) when column j's residual is reachable by the
    model's tangent directions; resampling the decoy clears both in
    practice (see ``craft_denial_resampling``).  A p* with a NaN or
    infinite entry, or a ``seed`` that is not an int in [0, 2**64), raises
    InvalidArguments before any work is done.
    """
    require_seed(seed)
    p_star = np.asarray(p_star, dtype=float).reshape(-1)
    E = residuals(model, decoy, p_star)  # raises DimensionMismatch on a wrong p*
    _require_finite_params(p_star)
    norms = []
    for j in range(E.shape[1]):
        e_j = E[:, j]
        if float(np.linalg.norm(e_j)) <= ZERO_TOL:
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
    return DenialCertificate(
        decoy=decoy,
        norms=tuple(norms),
        residual=E,
        model_descriptor=model.descriptor(),
        seed=seed,
    )


def _craft_resampling(
    model: ParamModel,
    p_star,
    input_spec: DistributionSpec,
    response_spec: DistributionSpec,
    n: int,
    seed: int,
    inner_variant: str,
) -> Tuple[DenialCertificate, int]:
    last_error: Optional[DeniableFitError] = None
    for attempt in range(DECOY_RESAMPLE_ATTEMPTS):
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
) -> DenialCertificate:
    """Draw decoys until one supports a certificate.

    Residuals of randomly drawn decoys land in the Jacobian's column space
    only on a measure-zero set, so the first attempt almost always
    succeeds; the cap of ``DECOY_RESAMPLE_ATTEMPTS`` decoys keeps
    pathological model/spec pairings from looping.  An ``n`` of at most
    ``model.param_dim`` raises InvalidArguments before any draw: the
    Jacobian's columns then span every residual of a full-rank decoy, and
    a rank-deficient decoy leaves p* not the unique minimizer.
    """
    if n <= model.param_dim:
        raise InvalidArguments(
            f"need more decoy records than parameters: n={n}, d={model.param_dim}"
        )
    cert, _ = _craft_resampling(
        model, p_star, input_spec, response_spec, n, seed, inner_variant
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
        # The fields in their declared order, the array as a list.
        return dict(vars(self), refit_params=self.refit_params.tolist())


def verify_denial(
    certificate: DenialCertificate,
    model: ParamModel,
    p_star,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Replay the certified retraining and compare against p*.

    First recomputes the residuals from the certificate's own decoy and
    model parameters; any mismatch with the stored residual beyond 1e-9
    raises CertificateTampered, as does a stored B that is not orthonormal
    or does not annihilate its column of the stored residual.  Then refits
    under the certified norms, with the package's optimizer settings, from
    p* plus a Gaussian perturbation of scale 1e-2 per coordinate drawn from
    the certificate's seed, and reports the max per-coordinate deviation
    from p*.  A model whose descriptor differs from the certificate's
    (checked first, key for key and with no extra key), a ``tolerance``
    that is not positive and finite, or a p* with a NaN or infinite entry
    raises InvalidArguments.
    """
    if certificate.model_descriptor != model.descriptor():
        raise InvalidArguments(f"certificate was issued for {certificate.model_descriptor}, "
                               f"model file is {model.descriptor()}")
    if not _is_finite(tolerance) or tolerance <= 0.0:
        raise InvalidArguments("tolerance must be positive and finite")
    p_star = np.asarray(p_star, dtype=float).reshape(-1)
    E = residuals(model, certificate.decoy, p_star)  # raises DimensionMismatch on a wrong p*
    _require_finite_params(p_star)
    if float(np.max(np.abs(E - certificate.residual))) > INTEGRITY_TOL:
        raise CertificateTampered("stored residual does not match recomputation")
    for j, nm in enumerate(certificate.norms):
        e, B = certificate.residual[:, j], nm.b_rows
        annihilates = np.max(np.abs(B @ e)) <= INTEGRITY_TOL * max(1.0, np.linalg.norm(e))
        if not annihilates or np.max(np.abs(B @ B.T - np.eye(len(B)))) > INTEGRITY_TOL:
            raise CertificateTampered(f"norm {j}: stored B is not an orthonormal annihilator of e")

    noise = substream(certificate.seed, "optimizer-start").standard_normal(p_star.size)
    config = OptimizerConfig(start=p_star + VERIFY_START_SCALE * noise)
    result: FittedModel = fit(model, certificate.decoy, certificate.loss_spec(), config)
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
            if np.linalg.matrix_rank(M) < model.param_dim:
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
        # The fields in their declared order, the arrays as lists.
        return dict(vars(self), p_star=self.p_star.tolist(),
                    refit_params=self.refit_params.tolist())


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
    that the decoy retrains to p* within ``tolerance``.  The linear model
    is declared affine, so the honest fit is the exact least-squares
    solution (one solve); the replay under the crafted loss is the
    Nelder-Mead search, and ``converged`` reports it.  Raises
    InvalidArguments, before any draw, unless d >= 2 and n > d: no decoy
    of n <= d records supports a certificate (see
    ``craft_denial_resampling``).
    """
    if d < 2 or n <= d:
        raise InvalidArguments(f"need d >= 2 and more records than parameters: n={n}, d={d}")
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
