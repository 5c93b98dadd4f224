"""The three workloads: their inputs, their operations and the oracle's verdicts.

Every workload runs in rounds.  A round is a fixed list of operations:
a *fixed* part whose inputs do not depend on ``--seed`` (it holds the
operations that fail every time, because of the faults named in the README),
and a *seeded* part drawn from ``--seed``.  Seeded inputs are screened in
set-up with the oracle's margin test and left out when the certificate they
would give is false, so the share of failed operations is the same in every
run.  The oracle judges every distinct output after the timed region; a
repeated operation must give the same output as its first run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

import deniable_fit
from deniable_fit import cli

import oracle

D = 6                 # parameters: intercept plus five slopes
INPUT_DIM = D - 1
TRAIN_N = 10          # records in the honest training set, as in the paper
TOLERANCE = 5e-3      # the replay tolerance of ``verify`` and of the trials
# Seeded inputs whose margin reaches this are left out in set-up; the gap
# below 1 absorbs the ~1e-7 difference between the exact least-squares p*
# used for screening paper trials and the Nelder-Mead p* the trial finds.
SCREEN_MARGIN = 0.999

EUCLIDEAN = deniable_fit.VARIANT_EUCLIDEAN
ONE_NORM = deniable_fit.VARIANT_ONE_NORM

FALSE_CERTIFICATE = "false_certificate"   # exact margin >= 1: p* is not a minimiser
REPLAY_MISS = "replay_miss"               # margin < 1 but the Nelder-Mead replay missed p*


@dataclass
class Verdict:
    """The oracle's judgement of one distinct output."""

    kind: Optional[str] = None            # None, or why the operation failed
    problems: List[str] = field(default_factory=list)   # wrong outputs
    margin: float = float("nan")


@dataclass
class Op:
    """One operation of a round.

    ``run`` is the only timed call.  ``record`` turns its output, or the
    exception it raised, into a comparable, JSON-able record (untimed), and
    ``check`` is the oracle's verdict on a record, made after the timed
    region.  ``margin_bound`` is set-up's upper bound on the certificate's
    margin; with it, the record's ``program_ok`` flag tells the runner,
    before the oracle has run, that the operation cannot fail.
    """

    key: str
    margin_bound: float
    run: Callable[[], object]
    record: Callable[[object], dict]
    check: Callable[[dict], Verdict]

    def surely_ok(self, record: dict) -> bool:
        return bool(record.get("program_ok")) and self.margin_bound < SCREEN_MARGIN


@dataclass
class Plan:
    """A prepared workload: its rounds and what set-up left out."""

    rounds: List[List[Op]]
    left_out: Counter

    def round(self, r: int) -> List[Op]:
        return self.rounds[r % len(self.rounds)]


# ---------------------------------------------------------------------------
# Inputs built the way the paper's trial builds them
# ---------------------------------------------------------------------------

def trial_seed(master: int, index: int) -> int:
    return deniable_fit.derive_seed(master, "trial", index)


def training_draws(master: int, index: int, n: int = TRAIN_N):
    """True parameters, integer inputs and exponential noise of one trial."""
    ts = trial_seed(master, index)
    p_true = deniable_fit.substream(ts, "model").uniform(-6.0, 6.0, size=D)
    X = deniable_fit.substream(ts, "train-inputs").integers(1, 9, size=(n, INPUT_DIM)).astype(float)
    noise = deniable_fit.substream(ts, "train-noise").exponential(1.0 / 5.0, size=n)
    return p_true, X, noise


def oracle_training_set(master: int, index: int, n: int = TRAIN_N):
    """The trial's training set, with responses computed apart from the package."""
    p_true, X, noise = training_draws(master, index, n)
    return X, p_true[0] + X @ p_true[1:] + noise


def honest_fit(master: int, index: int, n: int = TRAIN_N) -> np.ndarray:
    """p* as the paper obtains it: a two-norm fit on noisy synthetic data."""
    p_true, X, noise = training_draws(master, index, n)
    model = deniable_fit.linear_regression_model(INPUT_DIM)
    y = model.predict_all(X, p_true)[:, 0] + noise
    fitted = deniable_fit.fit(
        model,
        deniable_fit.Dataset(inputs=X, responses=y[:, None]),
        deniable_fit.LossSpec.two_norm(),
        deniable_fit.OptimizerConfig(start=np.zeros(D)),
    )
    return np.array(fitted.params)


def decoy_certificate(p_star, n: int, seed: int, variant: str):
    """Certificate on a uniform integer decoy of n records, resampled as the trial does."""
    spec_in = deniable_fit.DistributionSpec.uniform_ints(1, 8, INPUT_DIM)
    spec_out = deniable_fit.DistributionSpec.uniform_ints(1, 8, 1)
    return deniable_fit.craft_denial_resampling(
        deniable_fit.linear_regression_model(INPUT_DIM), p_star, spec_in, spec_out, n,
        seed=seed, inner_variant=variant,
    )


def trial_certificate(master: int, index: int, p_star, variant: str = EUCLIDEAN, n: int = TRAIN_N):
    """The certificate ``run_denial_trial(seed=master, index=index)`` crafts and replays."""
    return decoy_certificate(p_star, n, trial_seed(master, index), variant)


def screen_margin(payload: dict, p_star) -> float:
    """Margin for set-up screening, without the LP.

    Euclidean margins are exact.  For one-norm certificates the inf-norm of
    the minimum-2-norm solution bounds the LP margin from above, so a value
    below 1 proves the certificate holds; others are left out unproven.
    """
    M, e, B, w1, alpha, variant = oracle.certificate_arrays(payload, p_star)
    u = oracle.min_two_norm_u(M, e, B, w1, alpha)
    if u is None:
        return float("inf")
    if variant == EUCLIDEAN:
        return float(np.sqrt(u @ u))
    return float(np.max(np.abs(u)))


def _screened_certificate(p_star, n: int, variant: str, left_out: Counter, seed_for: Callable):
    """The first certificate, over fresh decoys, whose screened margin is below SCREEN_MARGIN."""
    attempt = 0
    while True:
        cert = decoy_certificate(p_star, n, seed_for(attempt), variant)
        margin = screen_margin(cert.to_dict(), p_star)
        if margin < SCREEN_MARGIN:
            return cert, margin
        left_out[f"{variant} certificate whose margin is not shown below 1"] += 1
        attempt += 1


def _verdict_for(check: oracle.CertificateCheck, replay_passed: bool, problems: List[str]) -> Verdict:
    problems = check.problems + problems
    if not check.holds:
        return Verdict(FALSE_CERTIFICATE, problems, check.margin)
    if not replay_passed:
        return Verdict(REPLAY_MISS, problems, check.margin)
    return Verdict(None, problems, check.margin)


def _least_squares_problems(master: int, index: int, p_star) -> List[str]:
    X, y = oracle_training_set(master, index)
    gap = oracle.least_squares_gap(X, y, p_star)
    if gap > oracle.LEAST_SQUARES_TOL:
        return [f"p* is {gap:.3g} from the least-squares fit of its training data"]
    return []


def _raised(output) -> Optional[dict]:
    if isinstance(output, Exception):
        return {"raised": f"{type(output).__name__}: {output}"}
    return None


def _checked_raise(record: dict) -> Optional[Verdict]:
    if "raised" in record:
        return Verdict("raised " + record["raised"].split(":", 1)[0])
    return None


# ---------------------------------------------------------------------------
# paper_trials: run_denial_trial at d=6, n=10, one after another
# ---------------------------------------------------------------------------

PAPER_FIXED = ((0, 22), (0, 60))     # master seed 0: false certificates (margins 3.89 and 1.35)
PAPER_SEEDED_PER_ROUND = 16
PAPER_DISTINCT_ROUNDS = 8              # about what a 30-second run gets through
PAPER_FIRST_INDEX = 100              # seeded trials never meet the fixed ones


def _trial_margin(master: int, index: int) -> float:
    X, y = oracle_training_set(master, index)
    p_ls = np.linalg.lstsq(oracle.design_matrix(X), y, rcond=None)[0]
    return screen_margin(trial_certificate(master, index, p_ls).to_dict(), p_ls)


def _trial_op(master: int, index: int, margin_bound: float) -> Op:
    def run():
        return deniable_fit.run_denial_trial(d=D, n=TRAIN_N, seed=master, index=index)

    def record(output):
        return _raised(output) or dict(output.to_dict(), program_ok=output.passed)

    def check(rec):
        raised = _checked_raise(rec)
        if raised:
            return raised
        p_star = np.asarray(rec["p_star"])
        problems = _least_squares_problems(master, index, p_star)
        problems += oracle.check_replay(rec, p_star, TOLERANCE)
        cert = trial_certificate(master, index, p_star)
        return _verdict_for(oracle.check_certificate(cert.to_dict(), p_star), rec["passed"], problems)

    return Op(f"trial seed={master} index={index}", margin_bound, run, record, check)


def prepare_paper_trials(seed: int, workdir: str) -> Plan:
    left_out: Counter = Counter()
    seeded: List[Op] = []
    index = PAPER_FIRST_INDEX
    while len(seeded) < PAPER_SEEDED_PER_ROUND * PAPER_DISTINCT_ROUNDS:
        margin = _trial_margin(seed, index)
        if margin < SCREEN_MARGIN:
            seeded.append(_trial_op(seed, index, margin))
        else:
            left_out["trial whose certificate has margin >= 1"] += 1
        index += 1
    fixed = [_trial_op(master, i, _trial_margin(master, i)) for master, i in PAPER_FIXED]
    k = PAPER_SEEDED_PER_ROUND
    rounds = [fixed + seeded[r * k:(r + 1) * k] for r in range(PAPER_DISTINCT_ROUNDS)]
    return Plan(rounds, left_out)


# ---------------------------------------------------------------------------
# Shared by the two certificate workloads: in-process CLI calls
# ---------------------------------------------------------------------------

def _call_cli(argv: List[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class ModelFile:
    """A model file on disk with the p* it holds and where its data came from."""

    path: str
    p_star: np.ndarray
    master: int
    index: int


def _model_file(workdir: str, master: int, index: int) -> ModelFile:
    p_star = honest_fit(master, index)
    path = os.path.join(workdir, f"model-{master}-{index}.json")
    cli.write_model_file(path, INPUT_DIM, p_star)
    return ModelFile(path, p_star, master, index)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# cert_issue: `craft` through cli.main on fixed integer decoys
# ---------------------------------------------------------------------------

ISSUE_SIZES = (10, 20, 40, 60, 90, 130, 180, 240, 320)
ISSUE_MODELS = 2


def _craft_op(key: str, margin_bound: float, model: "ModelFile", decoy_csv: str,
              out: str, craft_seed: int, variant: str) -> Op:
    argv = ["craft", model.path, decoy_csv, out, "--seed", str(craft_seed)]
    if variant == ONE_NORM:
        argv.append("--mae")

    def run():
        return _call_cli(argv)

    def record(output):
        raised = _raised(output)
        if raised:
            return raised
        code, stdout, stderr = output
        rec = {"code": code, "stdout": stdout, "stderr": stderr, "program_ok": code == cli.EXIT_OK}
        if code == 0:
            rec["digest"] = _digest(out)
            rec["bytes"] = os.path.getsize(out)
        return rec

    def check(rec):
        raised = _checked_raise(rec)
        if raised:
            return raised
        if rec["code"] != 0:
            return Verdict(f"refused with exit code {rec['code']}")
        problems = _least_squares_problems(model.master, model.index, model.p_star)
        if _digest(out) != rec["digest"]:
            problems.append("certificate file changed after it was written")
        payload = _load_json(out)
        check_ = oracle.check_certificate(payload, model.p_star)
        if payload["norms"][0]["variant"] != variant:
            problems.append(f"certificate variant is {payload['norms'][0]['variant']}, asked {variant}")
        return _verdict_for(check_, True, problems)

    return Op(key, margin_bound, run, record, check)


def prepare_cert_issue(seed: int, workdir: str) -> Plan:
    left_out: Counter = Counter()
    models = [_model_file(workdir, seed, PAPER_FIRST_INDEX + k) for k in range(ISSUE_MODELS)]
    ops: List[Op] = []
    for slot, n in enumerate(ISSUE_SIZES):
        model = models[slot % ISSUE_MODELS]
        for variant in (EUCLIDEAN, ONE_NORM):
            cert, margin = _screened_certificate(
                model.p_star, n, variant, left_out,
                lambda attempt: deniable_fit.derive_seed(seed, "cert_issue", n, variant, attempt),
            )
            csv_path = os.path.join(workdir, f"decoy-{n}-{variant}.csv")
            cert.decoy.to_csv(csv_path)
            out = os.path.join(workdir, f"cert-{n}-{variant}.json")
            ops.append(_craft_op(f"craft n={n} {variant}", margin, model, csv_path, out, cert.seed, variant))

    # The decoy and craft seed of trial 22 at master seed 0: a false certificate.
    master, index = PAPER_FIXED[0]
    fixed_model = _model_file(workdir, master, index)
    cert = trial_certificate(master, index, fixed_model.p_star)
    csv_path = os.path.join(workdir, "decoy-trial22.csv")
    cert.decoy.to_csv(csv_path)
    margin = screen_margin(cert.to_dict(), fixed_model.p_star)
    fixed = _craft_op("craft trial 22 decoy", margin, fixed_model, csv_path,
                      os.path.join(workdir, "cert-trial22.json"), cert.seed, EUCLIDEAN)
    return Plan([[fixed] + ops], left_out)


# ---------------------------------------------------------------------------
# cert_replay: `verify` through cli.main on certificates crafted in set-up
# ---------------------------------------------------------------------------

REPLAY_SIZES = (10, 20, 30, 40)
REPLAY_MODELS = 4                    # fitted models; each round crafts on two of them
REPLAY_MODELS_PER_ROUND = 2
REPLAY_DISTINCT_ROUNDS = 4
REPLAY_FIXED_ONE_NORM = (0, 42)      # one-norm trial whose true certificate replays 0.064 off


def _verify_op(key: str, model: "ModelFile", cert) -> Op:
    cert_path = os.path.join(os.path.dirname(model.path), key.replace(" ", "_") + ".json")
    cert.to_json(cert_path)
    margin_bound = screen_margin(cert.to_dict(), model.p_star)
    argv = ["verify", cert_path, model.path]

    def run():
        return _call_cli(argv)

    def record(output):
        raised = _raised(output)
        if raised:
            return raised
        code, stdout, stderr = output
        return {"code": code, "stdout": stdout, "stderr": stderr, "program_ok": code == cli.EXIT_OK}

    def check(rec):
        raised = _checked_raise(rec)
        if raised:
            return raised
        if rec["code"] not in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED):
            return Verdict(f"refused with exit code {rec['code']}: {rec['stderr'].strip()}")
        report = json.loads(rec["stdout"])
        problems = _least_squares_problems(model.master, model.index, model.p_star)
        problems += oracle.check_replay(report, model.p_star, TOLERANCE)
        if (rec["code"] == cli.EXIT_OK) != bool(report["passed"]):
            problems.append("exit code disagrees with the reported verdict")
        check_ = oracle.check_certificate(_load_json(cert_path), model.p_star)
        return _verdict_for(check_, rec["code"] == cli.EXIT_OK, problems)

    return Op(key, margin_bound, run, record, check)


def prepare_cert_replay(seed: int, workdir: str) -> Plan:
    left_out: Counter = Counter()
    models = [_model_file(workdir, seed, PAPER_FIRST_INDEX + k) for k in range(REPLAY_MODELS)]
    seeded: List[List[Op]] = []
    for r in range(REPLAY_DISTINCT_ROUNDS):
        ops: List[Op] = []
        for k in range(REPLAY_MODELS_PER_ROUND):
            m = (REPLAY_MODELS_PER_ROUND * r + k) % REPLAY_MODELS
            for n in REPLAY_SIZES:
                cert, _ = _screened_certificate(
                    models[m].p_star, n, EUCLIDEAN, left_out,
                    lambda attempt: deniable_fit.derive_seed(seed, "cert_replay", r, m, n, attempt),
                )
                ops.append(_verify_op(f"verify round={r} model={m} n={n} euclidean", models[m], cert))
        seeded.append(ops)

    fixed: List[Op] = []
    master, index = PAPER_FIXED[0]
    false_model = _model_file(workdir, master, index)
    cert = trial_certificate(master, index, false_model.p_star)
    fixed.append(_verify_op("verify trial 22 euclidean", false_model, cert))

    master, index = REPLAY_FIXED_ONE_NORM
    one_model = _model_file(workdir, master, index)
    for n in REPLAY_SIZES:
        if n == TRAIN_N:
            cert = trial_certificate(master, index, one_model.p_star, ONE_NORM)
        else:
            cert = decoy_certificate(
                one_model.p_star, n, deniable_fit.derive_seed(master, "cert_replay", index, n), ONE_NORM
            )
        fixed.append(_verify_op(f"verify trial 42 n={n} one_norm", one_model, cert))
    return Plan([fixed + ops for ops in seeded], left_out)


PREPARE = {
    "paper_trials": prepare_paper_trials,
    "cert_issue": prepare_cert_issue,
    "cert_replay": prepare_cert_replay,
}
