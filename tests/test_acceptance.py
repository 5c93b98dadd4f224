"""Acceptance gate: one test per shipping criterion.

Each test prints a single pass/fail summary line (capture is suspended for
that one print, so the lines land in the live pytest output) and then
asserts, so a red criterion is visible in the log and fails the run.
"""

import time

import numpy as np

from deniable_fit import (
    Dataset,
    LossSpec,
    OptimizerConfig,
    ParamModel,
    VARIANT_EUCLIDEAN,
    VARIANT_ONE_NORM,
    adversary_recover,
    craft_denial,
    crafted_norm_value,
    deniability_check,
    fit,
    jacobian,
    linear_regression_model,
    make_crafted_norm,
    mae_transform,
    rank_condition,
    residuals,
    run_denial_trial,
    seminorm_b,
)

from conftest import exact_rank, two_output_linear_model


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def _certificate(seed: int, variant: str = VARIANT_EUCLIDEAN, d: int = 6, n: int = 10):
    """Random single-output instance: model, target params, decoy, certificate."""
    rng = np.random.default_rng(seed)
    m = d - 1
    model = linear_regression_model(m)
    p_star = rng.uniform(-6.0, 6.0, size=d)
    decoy = Dataset(
        inputs=rng.integers(1, 9, size=(n, m)).astype(float),
        responses=rng.integers(1, 9, size=(n, 1)).astype(float),
    )
    return model, p_star, decoy, craft_denial(model, p_star, decoy, seed=seed, inner_variant=variant)


def _ball_points(rng, center: np.ndarray, radius: float, count: int) -> np.ndarray:
    d = center.size
    points = np.empty((count, d))
    for i in range(count):
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        points[i] = center + radius * rng.random() ** (1.0 / d) * direction
    return points


def test_criterion_1_pipeline_recovers_target_params(capsys):
    # d = 6, m = 5, n = 10, integer inputs 1..8, exponential noise, uniform decoy
    results = [run_denial_trial(seed=20240816, index=i) for i in range(20)]
    passes = sum(r.passed for r in results)
    worst = max(r.max_abs_diff for r in results)
    ok = passes >= 18
    _report(capsys, 1, ok, f"{passes}/20 trials within 5e-3, worst deviation {worst:.2e}")
    assert ok


def test_criterion_2_crafted_loss_locally_optimal(capsys):
    started = time.monotonic()
    violations = 0
    for j in range(10):
        model, p_star, decoy, cert = _certificate(2000 + j)
        loss = cert.loss_spec()
        anchor = loss.evaluate(residuals(model, decoy, p_star))
        rng = np.random.default_rng(3000 + j)
        for p in _ball_points(rng, p_star, 1e-3, 500):
            if loss.evaluate(residuals(model, decoy, p)) < anchor - 1e-12:
                violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 10.0
    _report(capsys, 2, ok, f"{violations}/5000 ball samples beat the anchor loss, {elapsed:.1f}s")
    assert ok


def test_criterion_3_norm_axioms(capsys):
    failures = 0
    for variant, seed in ((VARIANT_EUCLIDEAN, 31), (VARIANT_ONE_NORM, 32)):
        _, _, _, cert = _certificate(seed, variant)
        norm = cert.norms[0]
        e = cert.residual[:, 0]
        e_scale = float(np.linalg.norm(e))
        rng = np.random.default_rng(400 + seed)
        for _ in range(1000):
            x = rng.standard_normal(norm.dim)
            y = rng.standard_normal(norm.dim)
            c = rng.uniform(-100.0, 100.0)
            vx = crafted_norm_value(norm, x)
            vy = crafted_norm_value(norm, y)
            if abs(crafted_norm_value(norm, c * x) - abs(c) * vx) > 1e-10 * max(1.0, abs(c) * vx):
                failures += 1
            if crafted_norm_value(norm, x + y) > vx + vy + 1e-10 * (vx + vy):
                failures += 1
            if not vx > 0.0:
                failures += 1
        for lam in (-1e6, -3.0, -1.0, 1e-6, 0.5, 7.0, 1e6):
            if seminorm_b(norm, lam * e) > 1e-10 * abs(lam) * e_scale:
                failures += 1
    ok = failures == 0
    _report(capsys, 3, ok, f"{failures} axiom violations over 2000 vectors plus kernel scans")
    assert ok


def test_criterion_4_mae_transform_equivalence(capsys):
    _, _, _, cert = _certificate(4, VARIANT_ONE_NORM)
    norm = cert.norms[0]
    C = mae_transform(norm)
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(norm.dim)
        worst = max(worst, abs(float(np.abs(C @ x).sum()) - crafted_norm_value(norm, x)))
    ok = worst <= 1e-12
    _report(capsys, 4, ok, f"max |l1(Cx) - value(x)| = {worst:.2e} over 100 vectors")
    assert ok


def test_criterion_5_multivariate_consistency(capsys):
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(10):
        norms = [
            make_crafted_norm(rng.standard_normal(5), seed=int(rng.integers(2 ** 31)))
            for _ in range(3)
        ]
        E = rng.standard_normal((5, 3))
        by_hand = sum(
            1.5 * float(np.linalg.norm(nm.b_rows @ E[:, j]))
            + 0.5 * nm.alpha * abs(float(E[:, j] @ nm.w1))
            for j, nm in enumerate(norms)
        )
        worst = max(worst, abs(LossSpec.crafted_matrix(norms).evaluate(E) - by_hand))
    sum_ok = worst <= 1e-12

    model = two_output_linear_model(3)
    prng = np.random.default_rng(56)
    p_star = prng.uniform(-6.0, 6.0, size=4)
    decoy = Dataset(
        inputs=prng.integers(1, 9, size=(10, 3)).astype(float),
        responses=prng.integers(1, 9, size=(10, 2)).astype(float),
    )
    cert = craft_denial(model, p_star, decoy, seed=57)
    anchors = [
        crafted_norm_value(cert.norms[j], residuals(model, decoy, p_star)[:, j])
        for j in range(2)
    ]
    violations = 0
    ball_rng = np.random.default_rng(58)
    for p in _ball_points(ball_rng, p_star, 1e-3, 500):
        E = residuals(model, decoy, p)
        for j in range(2):
            if crafted_norm_value(cert.norms[j], E[:, j]) < anchors[j] - 1e-12:
                violations += 1
    ok = sum_ok and violations == 0
    _report(
        capsys, 5,
        ok,
        f"matrix-norm deviation {worst:.2e}; {violations}/1000 per-column samples beat anchors",
    )
    assert ok


def test_criterion_6_two_norm_fit_matches_normal_equations(capsys):
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 51))
        m = int(rng.integers(1, 8))
        X = rng.uniform(-2.0, 2.0, size=(n, m))
        M = np.hstack([np.ones((n, 1)), X])
        while np.linalg.cond(M) > 1e3:
            X = rng.uniform(-2.0, 2.0, size=(n, m))
            M = np.hstack([np.ones((n, 1)), X])
        p_true = rng.uniform(-3.0, 3.0, size=m + 1)
        y = M @ p_true + 0.1 * rng.standard_normal(n)
        oracle = np.linalg.solve(M.T @ M, M.T @ y)
        fitted = fit(
            linear_regression_model(m),
            Dataset(inputs=X, responses=y[:, None]),
            LossSpec.two_norm(),
            OptimizerConfig(start=np.zeros(m + 1)),
        )
        worst = max(worst, float(np.max(np.abs(fitted.params - oracle))))
    ok = worst <= 1e-3
    _report(capsys, 6, ok, f"max inf-norm gap to normal equations {worst:.2e} over 20 problems")
    assert ok


def test_criterion_7_deniability_threshold_table(capsys):
    # (k bits, H bits/record, n, expected) with both exact-boundary cases false
    table = [
        (512, 33.0, 10, False),
        (512, 33.0, 16, True),
        (30, 3.0, 10, False),
        (30, 3.0, 11, True),
        (100000, 10.0, 10000, False),
        (100000, 10.0, 10001, True),
        (1, 1.0, 1, False),
        (1, 1.0, 2, True),
        (7, 2.0, 3, False),
        (7, 2.0, 4, True),
    ]
    wrong = sum(
        deniability_check(k, h, n).deniable != expected for k, h, n, expected in table
    )
    ok = wrong == 0
    _report(capsys, 7, ok, f"{10 - wrong}/10 threshold cases exact, boundaries strict")
    assert ok


def test_criterion_8_adversary_emits_distinct_preimages(capsys):
    model = linear_regression_model(2)
    failures = 0
    worst = 0.0
    for seed in range(5):
        p_star = np.random.default_rng(800 + seed).uniform(-6.0, 6.0, size=3)
        first, second = adversary_recover(model, p_star, 10, seed=seed)
        if np.array_equal(first.inputs, second.inputs):
            failures += 1
        for data in (first, second):
            refit = fit(model, data, LossSpec.two_norm(), OptimizerConfig(start=np.zeros(3)))
            diff = float(np.max(np.abs(refit.params - p_star)))
            worst = max(worst, diff)
            if diff > 1e-3:
                failures += 1
    ok = failures == 0
    _report(capsys, 8, ok, f"5 seeds, distinct datasets, worst refit gap {worst:.2e}")
    assert ok


def test_criterion_9_jacobian_and_rank_oracles(capsys):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m + 2, 12))
        model = linear_regression_model(m)
        data = Dataset(
            inputs=rng.uniform(-3.0, 3.0, size=(n, m)),
            responses=rng.standard_normal((n, 1)),
        )
        p = rng.uniform(-3.0, 3.0, size=m + 1)
        blind = ParamModel(
            param_dim=model.param_dim,
            input_dim=model.input_dim,
            output_dim=model.output_dim,
            evaluator=model.evaluator,
            analytic_jacobian=None,
            family=model.family,
        )
        gap = np.max(np.abs(jacobian(model, data, p, 0) - jacobian(blind, data, p, 0)))
        worst = max(worst, float(gap))
    jacobian_ok = worst <= 1e-5

    mismatches = 0
    for _ in range(200):
        cols = int(rng.integers(1, 4))
        M = rng.integers(-2, 3, size=(4, cols)).astype(float)
        e = rng.integers(-2, 3, size=4).astype(float)
        expected = exact_rank(np.hstack([M, e[:, None]])) != exact_rank(M)
        if rank_condition(M, e) != expected:
            mismatches += 1
    ok = jacobian_ok and mismatches == 0
    _report(
        capsys, 9,
        ok,
        f"analytic vs finite-difference gap {worst:.2e}; {200 - mismatches}/200 rank cases agree",
    )
    assert ok
