"""Command-line front end.

Commands:
  craft       build a denial certificate from a model file and a decoy CSV
  verify      replay a certificate and compare the refit against the model
  bound       evaluate the record-count deniability bound
  experiment  synthetic end-to-end trials (honest fit, decoy retrain)
  adversary   emit two distinct datasets that both refit to the same model

Exit codes: 0 success; 1 usage, I/O, parse, or integrity errors; 2
crafting impossible for the given decoy (zero residual or rank
condition); 3 verification ran but the refit missed the tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional, get_args

import numpy as np

from .deniability import (
    DEFAULT_RESOLUTION,
    DEFAULT_TOLERANCE,
    SEED_LIMIT,
    AttributeDist,
    DenialCertificate,
    DistributionSpec,
    adversary_recover,
    craft_denial,
    deniability_check,
    entropy_per_record,
    run_denial_trial,
    substream,
    verify_denial,
)
from .errors import DeniableFitError, InvalidArguments, RankConditionViolated, ZeroResidual
from .models import Dataset, ParamModel, linear_regression_model
from .norms import VARIANT_EUCLIDEAN, VARIANT_ONE_NORM
from .training import LossSpec, OptimizerConfig, fit

SEED_ENV_VAR = "DENIABLE_FIT_SEED"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CANNOT_CRAFT = 2
EXIT_VERIFY_FAILED = 3


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        seed = value
    else:
        raw = os.environ.get(SEED_ENV_VAR)
        try:
            seed = int(raw) if raw is not None else 0
        except ValueError:
            raise InvalidArguments(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")
    if not 0 <= seed < SEED_LIMIT:
        raise InvalidArguments("seed must fit in 64 unsigned bits")
    return seed


def load_model_file(path) -> tuple[ParamModel, np.ndarray]:
    """Read a fitted-model JSON file: family, input_dim, params."""
    with open(path) as fh:
        payload = json.load(fh)
    family = payload.get("family")
    if family != "linear_regression":
        raise InvalidArguments(f"unsupported model family {family!r}")
    input_dim = int(payload["input_dim"])
    params = np.asarray(payload["params"], dtype=float)
    model = linear_regression_model(input_dim)
    if params.size != model.param_dim:
        raise InvalidArguments(
            f"{path}: expected {model.param_dim} parameters, got {params.size}"
        )
    if not np.isfinite(params).all():
        raise InvalidArguments(f"{path}: parameters hold a NaN or infinite value")
    return model, params


def write_model_file(path, input_dim: int, params) -> None:
    payload = {
        "family": "linear_regression",
        "input_dim": int(input_dim),
        "params": [float(v) for v in np.asarray(params, dtype=float).reshape(-1)],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


_KINDS = {kind.token: kind for kind in get_args(AttributeDist)}

# One entry: a token in any case, its ":"-separated arguments, and an optional
# repeat count written " x N", " xN" or attached "xN".  No number holds an
# "x", so the arguments end at the first one.
_ENTRY = re.compile(
    rf"(?i:(?P<kind>{'|'.join(_KINDS)}))(?P<args>(?::[^\s:x]*)*)(?:(?:\s+x\s*|x)(?P<count>\S*))?"
)


def parse_distribution(text: str) -> DistributionSpec:
    """Parse record descriptions like "du:1:8 x 10, cu:0:1, exp:5".

    Entries are comma separated; an entry is one distribution optionally
    followed by a repeat count ("x N", "xN" or "× N").  Kinds: du:lo:hi
    (integer uniform), cu:lo:hi (continuous uniform), exp:rate.
    """
    attributes = []
    for raw_entry in text.split(","):
        entry = raw_entry.replace("×", "x").strip()
        if not entry:
            continue
        match = _ENTRY.fullmatch(entry)
        try:
            if match is None:
                raise ValueError(entry)
            count = 1 if match["count"] is None else int(match["count"])
            dist = _KINDS[match["kind"].lower()].parse(match["args"].split(":")[1:])
        except (TypeError, ValueError):
            raise InvalidArguments(f"cannot parse distribution entry {raw_entry!r}") from None
        if count < 1:
            raise InvalidArguments(f"repeat count must be positive in {raw_entry!r}")
        attributes.extend([dist] * count)
    if not attributes:
        raise InvalidArguments(f"no attributes in distribution spec {text!r}")
    return DistributionSpec(tuple(attributes))


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_craft(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    model, p_star = load_model_file(args.model)
    decoy = Dataset.from_csv(args.decoy)
    variant = VARIANT_ONE_NORM if args.mae else VARIANT_EUCLIDEAN
    try:
        certificate = craft_denial(model, p_star, decoy, seed=seed, inner_variant=variant)
    except (RankConditionViolated, ZeroResidual) as exc:
        # The decoy is caller-fixed, so there is nothing to resample here.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CANNOT_CRAFT
    certificate.to_json(args.out)
    print(f"certificate written to {args.out} (seed {seed}, variant {variant})")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    certificate = DenialCertificate.from_json(args.certificate)
    model, p_star = load_model_file(args.model)
    report = verify_denial(certificate, model, p_star, tolerance=args.tolerance)
    _print_json(report.to_dict())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_bound(args: argparse.Namespace) -> int:
    if (args.entropy_bits is None) == (args.dist is None):
        raise InvalidArguments("give exactly one of --entropy-bits or --dist")
    payload: dict = {}
    if args.dist is not None:
        spec = parse_distribution(args.dist)
        entropy = entropy_per_record(spec, resolution=args.resolution)
        if any(a.quantized for a in spec.attributes):
            payload["quantization_resolution"] = args.resolution
    else:
        entropy = args.entropy_bits
    report = deniability_check(args.k_bits, entropy, args.n)
    payload.update(report.to_dict())
    _print_json(payload)
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    if args.trials < 1:
        raise InvalidArguments(f"--trials must be at least 1, got {args.trials}")
    # Serial on purpose: the trials are GIL-bound, so threads only slow them.
    results = [
        run_denial_trial(d=args.d, n=args.n, seed=seed, tolerance=args.tolerance, index=i)
        for i in range(args.trials)
    ]

    print(f"{'trial':>5}  {'max_abs_diff':>12}  {'converged':>9}  {'passed':>6}")
    for res in results:
        print(
            f"{res.index:>5}  {res.max_abs_diff:>12.3e}  "
            f"{'yes' if res.converged else 'no':>9}  {'yes' if res.passed else 'no':>6}"
        )
    passed = sum(1 for r in results if r.passed)
    rate = passed / len(results)
    print(f"pass rate: {passed}/{len(results)} = {rate:.2f} (tolerance {args.tolerance:g})")

    first = results[0]
    print(f"\ntrial 0 parameter comparison (given vs decoy-retrained):")
    for a, b in zip(first.p_star, first.refit_params):
        print(f"  {a: .6f}    {b: .6f}")

    if args.out:
        payload = {
            "schema": "denial-experiment/1",
            "d": args.d,
            "n": args.n,
            "seed": seed,
            "tolerance": args.tolerance,
            "trials": [r.to_dict() for r in results],
            "pass_rate": rate,
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"\nresults written to {args.out}")
    return EXIT_OK


def cmd_adversary(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    d = args.d
    p_star = substream(seed, "adversary-params").uniform(-6.0, 6.0, size=d)
    model = linear_regression_model(d - 1)
    first, second = adversary_recover(model, p_star, args.n, seed=seed)

    def refit(data: Dataset) -> np.ndarray:
        result = fit(model, data, LossSpec.two_norm(), OptimizerConfig(start=np.zeros(d)))
        return result.params

    payload = {
        "p_star": p_star.tolist(),
        "datasets": [
            {
                "inputs": ds.inputs.tolist(),
                "responses": ds.responses.tolist(),
                "refit_params": refit(ds).tolist(),
            }
            for ds in (first, second)
        ],
    }
    _print_json(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deniable-fit",
        description="Craft error norms under which decoy data retrains to a given model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    craft = sub.add_parser("craft", help="build a denial certificate")
    craft.add_argument("model", help="fitted-model JSON file")
    craft.add_argument("decoy", help="decoy dataset CSV (header x1..xm,y1..yk)")
    craft.add_argument("out", help="output path for the certificate JSON")
    craft.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    craft.add_argument("--mae", action="store_true",
                       help="use the one-norm inner variant (enables the MAE reduction)")
    craft.set_defaults(func=cmd_craft)

    verify = sub.add_parser("verify", help="replay a certificate")
    verify.add_argument("certificate", help="certificate JSON file")
    verify.add_argument("model", help="fitted-model JSON file")
    verify.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help=f"max per-coordinate deviation accepted (default {DEFAULT_TOLERANCE:g})")
    verify.set_defaults(func=cmd_verify)

    bound = sub.add_parser("bound", help="evaluate the deniability bound")
    bound.add_argument("--k-bits", type=float, required=True,
                       help="serialized model size in bits")
    bound.add_argument("--n", type=int, required=True, help="number of training records")
    bound.add_argument("--entropy-bits", type=float, default=None,
                       help="entropy per record in bits")
    bound.add_argument("--dist", default=None,
                       help='record distribution, e.g. "du:1:8 x 10" or "cu:0:1, exp:5"')
    bound.add_argument("--resolution", type=float, default=DEFAULT_RESOLUTION,
                       help="quantization step for continuous attributes")
    bound.set_defaults(func=cmd_bound)

    experiment = sub.add_parser("experiment", help="synthetic end-to-end trials")
    experiment.add_argument("--d", type=int, default=6, help="parameter count (default 6)")
    experiment.add_argument("--n", type=int, default=10, help="records per trial (default 10)")
    experiment.add_argument("--trials", type=int, default=20, help="number of trials (default 20)")
    experiment.add_argument("--seed", type=int, default=None,
                            help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    experiment.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                            help=f"pass threshold on max parameter deviation (default {DEFAULT_TOLERANCE:g})")
    experiment.add_argument("--out", default=None, help="optional JSON results path")
    experiment.set_defaults(func=cmd_experiment)

    adversary = sub.add_parser("adversary", help="demonstrate training-data non-uniqueness")
    adversary.add_argument("--d", type=int, default=3, help="parameter count (default 3)")
    adversary.add_argument("--n", type=int, default=10, help="records per dataset (default 10)")
    adversary.add_argument("--seed", type=int, default=None,
                           help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    adversary.set_defaults(func=cmd_adversary)

    return parser


_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse printed help or a usage error; its status 2 means EXIT_CANNOT_CRAFT here.
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (DeniableFitError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
