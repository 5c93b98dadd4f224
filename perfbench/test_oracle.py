"""Tests of the benchmark's oracle and of how it reproduces the paper's trials.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import deniable_fit  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def _trial_and_payload(master, index, variant=workloads.EUCLIDEAN):
    trial = deniable_fit.run_denial_trial(seed=master, index=index, inner_variant=variant)
    cert = workloads.trial_certificate(master, index, trial.p_star, variant)
    return trial, cert, cert.to_dict()


def test_reproduces_the_trial_certificate():
    trial, cert, _ = _trial_and_payload(0, 22)
    model = deniable_fit.linear_regression_model(workloads.INPUT_DIM)
    report = deniable_fit.verify_denial(cert, model, trial.p_star)
    assert report.max_abs_diff == trial.max_abs_diff
    assert np.array_equal(workloads.honest_fit(0, 22), trial.p_star)


def test_flags_the_seed0_trial22_certificate():
    trial, _, payload = _trial_and_payload(0, 22)
    check = oracle.check_certificate(payload, trial.p_star)
    assert check.problems == []
    assert check.margin == pytest.approx(3.885, abs=1e-3)
    assert not check.holds
    assert not trial.passed and trial.max_abs_diff > 5.0


@pytest.mark.parametrize("index", [0, 10, 20, 30])
def test_accepts_certificates_whose_replay_passes(index):
    trial, _, payload = _trial_and_payload(0, index)
    assert trial.passed
    check = oracle.check_certificate(payload, trial.p_star)
    assert check.problems == []
    assert check.holds
    assert oracle.check_replay(trial.to_dict(), trial.p_star, workloads.TOLERANCE) == []
    X, y = workloads.oracle_training_set(0, index)
    assert oracle.least_squares_gap(X, y, trial.p_star) < oracle.LEAST_SQUARES_TOL


def test_one_norm_replay_miss_on_a_true_certificate():
    trial, _, payload = _trial_and_payload(0, 42, workloads.ONE_NORM)
    check = oracle.check_certificate(payload, trial.p_star)
    assert check.margin == pytest.approx(0.398, abs=1e-3)
    assert check.holds
    assert not trial.passed
    assert trial.max_abs_diff == pytest.approx(0.064, abs=1e-3)


@pytest.mark.parametrize("n", [10, 20, 40])
@pytest.mark.parametrize("variant", [workloads.EUCLIDEAN, workloads.ONE_NORM])
def test_lp_margin_never_exceeds_inf_norm_of_min_two_norm_u(n, variant):
    p_star = workloads.honest_fit(0, 7)
    for attempt in range(3):
        payload = workloads.decoy_certificate(p_star, n, 1000 * n + attempt, variant).to_dict()
        system = oracle.certificate_arrays(payload, p_star)[:5]
        u = oracle.min_two_norm_u(*system)
        lp = oracle.min_inf_norm(*system)
        assert lp <= np.max(np.abs(u)) + 1e-9
        assert lp <= np.sqrt(u @ u) + 1e-9


def test_structural_faults_are_reported():
    p_star = workloads.honest_fit(0, 3)
    payload = workloads.decoy_certificate(p_star, 10, 5, workloads.EUCLIDEAN).to_dict()
    assert oracle.check_certificate(payload, p_star).problems == []

    rng = np.random.default_rng(0)
    tampered = dict(payload, norms=[dict(payload["norms"][0], b_rows=rng.standard_normal((9, 10)).tolist())])
    problems = oracle.check_certificate(tampered, p_star).problems
    assert "rows of B are not orthonormal" in problems
    assert "B does not annihilate the residual" in problems

    shifted = dict(payload, residual=(np.asarray(payload["residual"]) + 1e-6).tolist())
    assert oracle.check_certificate(shifted, p_star).problems == ["stored residual differs from y - (p0 + X p*)"]

    norm = payload["norms"][0]
    scaled = dict(payload, norms=[dict(norm, alpha=norm["alpha"] * 1.01, w1=(np.asarray(norm["w1"]) * 2).tolist())])
    assert set(oracle.check_certificate(scaled, p_star).problems) == {
        "w1 does not have unit 1-norm", "alpha differs from b(w1)/2",
    }


def test_replay_arithmetic_is_checked():
    p_star = np.array([1.0, 2.0, 3.0])
    report = {"refit_params": [1.0, 2.0, 3.004], "max_abs_diff": 0.004, "passed": True}
    exact = float(np.max(np.abs(np.array(report["refit_params"]) - p_star)))
    assert oracle.check_replay(dict(report, max_abs_diff=exact), p_star, 5e-3) == []
    assert oracle.check_replay(dict(report, max_abs_diff=exact, passed=False), p_star, 5e-3) == [
        "passed disagrees with max_abs_diff and the tolerance"
    ]
    assert len(oracle.check_replay(dict(report, max_abs_diff=0.5), p_star, 5e-3)) == 1
