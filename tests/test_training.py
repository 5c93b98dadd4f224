import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deniable_fit import (
    Dataset,
    DimensionMismatch,
    FittedModel,
    InvalidArguments,
    LengthMismatch,
    LossSpec,
    NoEvaluator,
    NonFiniteObjective,
    NonFiniteValue,
    OptimizerConfig,
    ParamModel,
    crafted_norm_value,
    fit,
    linear_regression_model,
    make_crafted_norm,
    minimize,
    residuals,
)

from deniable_fit import training

from conftest import two_output_linear_model


# --- Reference implementations: the argsort-ordered Nelder-Mead loop and the
# per-evaluation loss checks that fit ran before it bound its objective once.
# minimize and LossSpec must match them bit for bit.  The loop reads the
# optimizer settings from the training module when it runs, as minimize does,
# so a test that patches them there changes both.


def _reference_checked_call(objective, x):
    value = float(objective(x))
    return np.inf if np.isnan(value) else value


def _reference_descend(objective, x0, f0, iterations_used):
    d = x0.size
    simplex = np.empty((d + 1, d))
    values = np.empty(d + 1)
    simplex[0] = x0
    values[0] = f0
    for l in range(d):
        vertex = x0.copy()
        vertex[l] += training.SIMPLEX_SCALE * max(1.0, abs(x0[l]))
        simplex[l + 1] = vertex
        values[l + 1] = _reference_checked_call(objective, vertex)

    order = np.argsort(values, kind="stable")
    simplex, values = simplex[order], values[order]

    converged = values[-1] - values[0] < training.CONVERGENCE_TOL
    while not converged and iterations_used < training.MAX_ITERS:
        iterations_used += 1
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]

        reflected = centroid + (centroid - worst)
        f_reflected = _reference_checked_call(objective, reflected)
        if values[0] <= f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = _reference_checked_call(objective, expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_contracted = _reference_checked_call(objective, contracted)
                accept = f_contracted <= f_reflected
            else:
                contracted = centroid - 0.5 * (centroid - worst)
                f_contracted = _reference_checked_call(objective, contracted)
                accept = f_contracted < values[-1]
            if accept:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, d + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = _reference_checked_call(objective, simplex[i])

        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        converged = values[-1] - values[0] < training.CONVERGENCE_TOL

    return simplex[0].copy(), float(values[0]), iterations_used, bool(converged)


def reference_minimize(objective, config):
    """Returns (params, final_loss, iterations, converged, objective calls)."""
    calls = 0

    def counted(p):
        nonlocal calls
        calls += 1
        return objective(p)

    x = np.array(config.start, dtype=float)
    f = float(counted(x))
    if not np.isfinite(f):
        raise NonFiniteObjective(f"objective is {f} at the start point")
    iterations = 0
    converged = False
    while True:
        previous_best = f
        x, f, iterations, converged = _reference_descend(counted, x, f, iterations)
        if not converged or previous_best - f <= training.CONVERGENCE_TOL:
            break
    return x, f, iterations, converged, calls


def _reference_crafted_norm_value(norm, x):
    x = np.asarray(x, dtype=float).reshape(-1)
    v = norm.b_rows @ x
    if norm.inner_variant == "euclidean":
        b_part = math.sqrt(float(v @ v))
    else:
        b_part = float(np.abs(v).sum())
    return 1.5 * b_part + 0.5 * norm.alpha * abs(float(x @ norm.w1))


def reference_loss(loss, E):
    E = np.asarray(E, dtype=float)
    if E.ndim == 1:
        E = E[:, None]
    if loss.kind == "crafted_matrix" and len(loss.norms) == 1:
        # The one-column crafted loss, with no sum around it.
        return _reference_crafted_norm_value(loss.norms[0], E[:, 0])
    if loss.kind == "crafted_matrix":
        return float(sum(
            _reference_crafted_norm_value(nm, E[:, j]) for j, nm in enumerate(loss.norms)
        ))
    assert loss.kind == "two_norm", loss.kind
    return float(np.linalg.norm(E.reshape(-1)))


EXACT_STEP_KINDS = ["two_norm"]   # solved in one step on affine models


def bits(value) -> bytes:
    return struct.pack("<d", value)


def assert_same_fit(result, reference):
    params, final_loss, iterations, converged, calls = reference
    assert result.params.tobytes() == params.tobytes()
    assert bits(result.final_loss) == bits(final_loss)
    assert result.iterations == iterations
    assert result.converged is converged
    assert result.evaluations == calls


def _crafted_problem(seed, d, variant):
    rng = np.random.default_rng(seed)
    n = d + 1 + int(rng.integers(0, d + 1))
    model = linear_regression_model(d - 1)
    data = Dataset(rng.integers(1, 9, size=(n, d - 1)).astype(float),
                   rng.integers(1, 9, size=(n, 1)).astype(float))
    p_star = rng.uniform(-6.0, 6.0, size=d)
    norm = make_crafted_norm(residuals(model, data, p_star)[:, 0], seed=seed,
                             inner_variant=variant)
    return model, data, LossSpec.crafted_matrix([norm]), p_star


class TestMinimize:
    def test_quadratic_bowl(self):
        target = np.array([1.5, -2.0, 0.25])
        result = minimize(lambda p: float(np.sum((p - target) ** 2)),
                          OptimizerConfig(start=np.zeros(3)))
        assert result.converged
        assert_allclose(result.params, target, atol=1e-5)

    def test_constant_objective_converges_immediately(self):
        result = minimize(lambda p: 5.0, OptimizerConfig(start=np.array([2.0, 2.0])))
        assert result.converged
        assert result.final_loss == 5.0
        assert result.iterations == 0

    def test_non_finite_at_start(self):
        with pytest.raises(NonFiniteObjective):
            minimize(lambda p: float("nan"), OptimizerConfig(start=np.zeros(2)))
        with pytest.raises(NonFiniteObjective):
            minimize(lambda p: float("inf"), OptimizerConfig(start=np.zeros(2)))

    def test_bitwise_determinism(self):
        def objective(p):
            return float(np.abs(p - np.array([0.3, -0.7])).sum())

        config = OptimizerConfig(start=np.array([5.0, 5.0]))
        first = minimize(objective, config)
        second = minimize(objective, config)
        assert np.array_equal(first.params, second.params)
        assert first.final_loss == second.final_loss
        assert first.iterations == second.iterations
        assert first.converged == second.converged

    def test_best_vertex_never_worsens(self):
        # The best vertex never worsens, so the result is the least value the
        # objective returned, NaN aside, and every call is counted: on a
        # kinked bowl and with NaN in a half-space.
        cases = [
            (lambda p: float(np.sum(np.abs(p))) + 0.1 * float(np.sum(p ** 2)), [4.0, -3.0, 2.0], False),
            (lambda p: math.nan if p[0] > 1.0 else float((p[0] - 0.93) ** 2), [0.0], True),
        ]
        for objective, start, meets_nan in cases:
            returned = []

            def recording(p):
                returned.append(objective(p))
                return returned[-1]

            result = minimize(recording, OptimizerConfig(start=np.array(start)))
            assert result.iterations > 0
            assert any(math.isnan(v) for v in returned) == meets_nan
            assert bits(result.final_loss) == bits(min(v for v in returned if not math.isnan(v)))
            assert result.evaluations == len(returned)

    def test_nan_mid_run_is_treated_as_worst(self):
        # objective is finite at the start but NaN in a half-space
        def objective(p):
            if p[0] > 1.0:
                return float("nan")
            return float((p[0] - 0.93) ** 2)

        result = minimize(objective, OptimizerConfig(start=np.array([0.0])))
        assert result.converged
        assert result.params[0] == pytest.approx(0.93, abs=1e-5)

    def test_config_validation(self):
        with pytest.raises(InvalidArguments):
            OptimizerConfig(start=np.array([]))
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidArguments):
                OptimizerConfig(start=np.array([0.0, value]))


OBJECTIVE_KINDS = ("kinked_bowl", "plateau", "nan_inf_region", "crafted_euclidean", "crafted_one_norm")


def _objective_and_start(kind, seed, d):
    """An objective of the named kind and a start point where it is finite."""
    if kind.startswith("crafted_"):
        d = max(d, 2)
        model, data, loss, p_star = _crafted_problem(seed, d, kind[len("crafted_"):])
        start = p_star + np.random.default_rng(seed).uniform(-1.0, 1.0, size=d)
        return (lambda p: loss.evaluate(residuals(model, data, p))), start
    rng = np.random.default_rng(seed)
    target = rng.uniform(-3.0, 3.0, size=d)
    if kind == "kinked_bowl":
        def objective(p):
            return float(np.abs(p - target).sum()) + 0.1 * float(((p - target) ** 2).sum())
        return objective, rng.uniform(-4.0, 4.0, size=d)
    if kind == "plateau":
        # Wide flat steps: many vertices tie, so the order of ties matters.
        return (lambda p: float(np.floor(8 * np.abs(p - target)).sum())), rng.uniform(-4.0, 4.0, size=d)

    def objective(p):
        if p[0] > target[0] + 0.5:
            return float("nan")
        if p[-1] < target[-1] - 1.0:
            return float("inf")
        return float(((p - target) ** 2).sum())

    return objective, target - 0.4


class TestMatchesReferenceLoop:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8),
           kind=st.sampled_from(OBJECTIVE_KINDS))
    def test_minimize_bitwise(self, seed, d, kind):
        objective, start = _objective_and_start(kind, seed, d)
        config = OptimizerConfig(start=start)
        # A smaller budget keeps the pure-Python reference loop quick.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "MAX_ITERS", 2000)
            result = minimize(objective, config)
            reference = reference_minimize(objective, config)
        assert_same_fit(result, reference)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_nan_in_the_first_simplex_counts_as_inf(self, d):
        # The first offset along p[0] lands where the objective is NaN.
        target = np.linspace(-0.5, 0.5, d)

        def objective(p):
            return math.nan if p[0] > 0.02 else float(np.abs(p - target).sum())

        config = OptimizerConfig(start=np.zeros(d))
        assert_same_fit(minimize(objective, config), reference_minimize(objective, config))

    @pytest.mark.parametrize("kind", ["two_norm", "crafted", "crafted_matrix"])
    def test_fit_bitwise(self, kind, monkeypatch):
        monkeypatch.setattr(training, "MAX_ITERS", 5000)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            if kind == "crafted_matrix":
                model = two_output_linear_model(3)
                data = Dataset(rng.integers(1, 9, size=(9, 3)).astype(float),
                               rng.integers(1, 9, size=(9, 2)).astype(float))
                E = residuals(model, data, rng.uniform(-3.0, 3.0, size=4))
                loss = LossSpec.crafted_matrix(
                    [make_crafted_norm(E[:, j], seed=j,
                                       inner_variant=("euclidean", "one_norm")[seed % 2])
                     for j in range(2)]
                )
            elif kind == "crafted":   # crafted_matrix with one norm
                model, data, loss, _ = _crafted_problem(seed, 6, ("euclidean", "one_norm")[seed % 2])
            else:
                # Declared affine, the two-norm fit is solved, not searched: the
                # same evaluator undeclared keeps the Nelder-Mead path covered.
                model = dataclasses.replace(linear_regression_model(3), affine=False)
                data = Dataset(rng.normal(size=(12, 3)), rng.normal(size=(12, 1)))
                loss = LossSpec(kind)
            config = OptimizerConfig(start=np.zeros(model.param_dim))
            reference = reference_minimize(
                lambda p: reference_loss(loss, data.responses - model.predict_all(data.inputs, p)),
                config,
            )
            assert_same_fit(fit(model, data, loss, config), reference)


def _lstsq_step(model, data, start):
    """start + lstsq(J, r0), computed apart from fit."""
    r0 = data.responses - model.predict_all(data.inputs, start)
    J = model.analytic_jacobian(data.inputs, start).reshape(-1, start.size)
    return start + np.linalg.lstsq(J, r0.reshape(-1), rcond=None)[0]


class TestAffineStep:
    @pytest.mark.parametrize("kind", EXACT_STEP_KINDS)
    @pytest.mark.parametrize("outputs", [1, 2])
    def test_matches_one_lstsq_bitwise(self, kind, outputs, rng):
        model = linear_regression_model(3) if outputs == 1 else two_output_linear_model(3)
        assert model.affine
        loss = LossSpec(kind)
        for _ in range(5):
            data = Dataset(rng.normal(size=(11, 3)), rng.normal(size=(11, outputs)))
            start = rng.uniform(-3.0, 3.0, size=4)
            result = fit(model, data, loss, OptimizerConfig(start=start))
            expected = _lstsq_step(model, data, start)
            assert result.params.tobytes() == expected.tobytes()
            assert bits(result.final_loss) == bits(loss.evaluate(residuals(model, data, expected)))
            assert (result.iterations, result.converged, result.evaluations) == (0, True, 2)

    @pytest.mark.parametrize("kind", EXACT_STEP_KINDS)
    def test_start_zero_is_lstsq_of_the_design_matrix(self, kind, rng):
        X, y = rng.normal(size=(10, 5)), rng.normal(size=10)
        result = fit(linear_regression_model(5), Dataset(X, y[:, None]), LossSpec(kind),
                     OptimizerConfig(start=np.zeros(6)))
        expected = np.linalg.lstsq(np.column_stack([np.ones(10), X]), y, rcond=None)[0]
        assert np.array_equal(result.params, expected)

    def test_underdetermined_step_stays_nearest_the_start(self, rng):
        model = linear_regression_model(6)            # d = 7 parameters, n = 4 records
        data = Dataset(rng.normal(size=(4, 6)), rng.normal(size=(4, 1)))
        start = rng.uniform(-3.0, 3.0, size=7)
        result = fit(model, data, LossSpec.two_norm(), OptimizerConfig(start=start))
        assert result.final_loss <= 1e-12            # an exact fit exists and is found
        J = np.column_stack([np.ones(4), data.inputs])
        null_space = np.linalg.svd(J)[2][4:]         # 3 directions that leave the fit unchanged
        # Nearest the start: the step has no component along them.
        assert np.max(np.abs(null_space @ (result.params - start))) <= 1e-12
        assert not np.allclose(result.params, np.linalg.pinv(J) @ data.responses[:, 0])

    @pytest.mark.parametrize("kind", EXACT_STEP_KINDS)
    @pytest.mark.parametrize("affine", [True, False])
    def test_non_finite_objective_at_start(self, kind, affine):
        model = dataclasses.replace(linear_regression_model(2), affine=affine)
        data = Dataset(np.ones((4, 2)), np.array([[1.0], [np.inf], [2.0], [3.0]]))
        with pytest.raises(NonFiniteObjective):
            fit(model, data, LossSpec(kind), OptimizerConfig(start=np.zeros(3)))

    def test_affine_needs_an_analytic_jacobian(self):
        linear = linear_regression_model(2)
        with pytest.raises(InvalidArguments):
            ParamModel(param_dim=3, input_dim=2, output_dim=1, evaluator=linear.evaluator,
                       affine=True)
        with pytest.raises(InvalidArguments):
            dataclasses.replace(linear, analytic_jacobian=None)

    @pytest.mark.parametrize("broken, error", [
        (lambda J: J[:, 0, :], DimensionMismatch),
        (lambda J: J * np.nan, NonFiniteValue),
    ], ids=["shape", "nan"])
    def test_jacobian_checked(self, broken, error, rng):
        linear = linear_regression_model(2)
        model = dataclasses.replace(
            linear, analytic_jacobian=lambda X, p: broken(linear.analytic_jacobian(X, p)))
        data = Dataset(rng.normal(size=(6, 2)), rng.normal(size=(6, 1)))
        with pytest.raises(error):
            fit(model, data, LossSpec.two_norm(), OptimizerConfig(start=np.zeros(3)))


class TestEvaluations:
    def test_minimize_counts_every_objective_call(self):
        calls = 0

        def objective(p):
            nonlocal calls
            calls += 1
            return float(np.abs(p - np.array([0.3, -0.7, 2.0])).sum())

        result = minimize(objective, OptimizerConfig(start=np.array([5.0, 5.0, 5.0])))
        assert result.evaluations == calls > 1

    def test_fit_counts_one_evaluation_per_model_call(self, rng):
        # Undeclared affine, so the two-norm fit runs the Nelder-Mead search.
        model = dataclasses.replace(linear_regression_model(2), affine=False)
        inner = model.evaluator
        calls = 0

        def counting(X, p):
            nonlocal calls
            calls += 1
            return inner(X, p)

        model.evaluator = counting
        data = Dataset(rng.normal(size=(8, 2)), rng.normal(size=(8, 1)))
        result = fit(model, data, LossSpec.two_norm(), OptimizerConfig(start=np.zeros(3)))
        assert result.evaluations == calls > 1


class TestLossSpec:
    @pytest.mark.parametrize("kind", ["two_norm", "crafted", "crafted_matrix"])
    def test_bound_reducer_matches_evaluate_bitwise(self, kind, rng):
        k = 1 if kind == "crafted" else 2
        for variant in ("euclidean", "one_norm"):
            norms = [make_crafted_norm(rng.normal(size=7), seed=j, inner_variant=variant)
                     for j in range(k)]
            loss = {"crafted": LossSpec.crafted_matrix(norms[:1]),
                    "crafted_matrix": LossSpec.crafted_matrix(norms)}.get(kind, LossSpec(kind))
            for _ in range(10):
                E = rng.normal(size=(7, k)) * float(rng.uniform(1e-3, 1e3))
                if k == 2:
                    assert not E[:, 0].flags.c_contiguous   # strided columns
                value = loss.bind(E.shape)(E)
                assert bits(value) == bits(loss.evaluate(E)) == bits(reference_loss(loss, E))
                if kind == "crafted":
                    assert bits(crafted_norm_value(norms[0], E[:, 0])) == bits(value)
                if kind == "crafted_matrix":
                    total = 0.0
                    for j, nm in enumerate(norms):
                        total += crafted_norm_value(nm, E[:, j])
                    assert bits(total) == bits(value)

    def test_bind_checks_the_shape_once(self, rng):
        norm = make_crafted_norm(rng.normal(size=6), seed=0)
        with pytest.raises(DimensionMismatch):
            LossSpec.crafted_matrix([norm]).bind((5, 1))
        with pytest.raises(LengthMismatch):
            LossSpec.crafted_matrix([norm]).bind((6, 2))
        with pytest.raises(LengthMismatch):
            LossSpec.crafted_matrix([norm, norm]).bind((6, 1))
        with pytest.raises(InvalidArguments):
            LossSpec("crafted_matrix").bind((6, 1))


    def test_standard_kinds_match_numpy(self, rng):
        E = rng.normal(size=(6, 2))
        flat = E.reshape(-1)
        assert bits(LossSpec.two_norm().evaluate(E)) == bits(float(np.linalg.norm(flat)))

    def test_crafted_needs_single_column(self, rng):
        norm = make_crafted_norm(rng.normal(size=6), seed=0)
        with pytest.raises(LengthMismatch):
            LossSpec.crafted_matrix([norm]).evaluate(rng.normal(size=(6, 2)))

    def test_unknown_kind(self):
        # The one_norm, mse, rmse and mae kinds are gone with their reducers.
        for kind in ("entropy", "one_norm", "mse", "rmse", "mae"):
            with pytest.raises(InvalidArguments, match="unknown loss kind"):
                LossSpec(kind).evaluate(np.ones((2, 1)))


class TestFit:
    def test_matches_normal_equations(self, rng):
        # spot check; the acceptance suite sweeps 20 problems
        for _ in range(5):
            n, m = int(rng.integers(8, 30)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, m))
            y = rng.normal(size=n) * 2.0 + 1.0
            data = Dataset(X, y[:, None])
            model = linear_regression_model(m)
            result = fit(model, data, LossSpec.two_norm(),
                         OptimizerConfig(start=np.zeros(m + 1)))
            A = np.column_stack([np.ones(n), X])
            expected, *_ = np.linalg.lstsq(A, y, rcond=None)
            assert result.converged
            assert np.max(np.abs(result.params - expected)) <= 1e-3

    def test_crafted_loss_from_optimum_stays_put(self, rng):
        n, m = 9, 3
        model = linear_regression_model(m)
        X = rng.uniform(1.0, 8.0, size=(n, m))
        Y = rng.uniform(1.0, 8.0, size=(n, 1))
        data = Dataset(X, Y)
        p_star = rng.uniform(-6.0, 6.0, size=m + 1)
        anchor = residuals(model, data, p_star)[:, 0]
        norm = make_crafted_norm(anchor, seed=5)
        result = fit(model, data, LossSpec.crafted_matrix([norm]),
                     OptimizerConfig(start=p_star))
        assert result.converged
        assert_allclose(result.params, p_star, atol=1e-12)

    def test_start_dimension_checked(self, rng):
        model = linear_regression_model(2)
        data = Dataset(rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        with pytest.raises(DimensionMismatch):
            fit(model, data, LossSpec.two_norm(), OptimizerConfig(start=np.zeros(5)))

    def test_crafted_norm_sample_count_checked(self, rng):
        model = linear_regression_model(2)
        data = Dataset(rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        norm = make_crafted_norm(rng.normal(size=7), seed=0)
        with pytest.raises(DimensionMismatch):
            fit(model, data, LossSpec.crafted_matrix([norm]), OptimizerConfig(start=np.zeros(3)))

    def test_crafted_matrix_needs_one_norm_per_output(self, rng):
        model = linear_regression_model(2)
        data = Dataset(rng.normal(size=(5, 2)), rng.normal(size=(5, 1)))
        norm = make_crafted_norm(rng.normal(size=5), seed=0)
        with pytest.raises(LengthMismatch):
            fit(model, data, LossSpec.crafted_matrix([norm, norm]),
                OptimizerConfig(start=np.zeros(3)))

    def test_evaluator_shape_checked_mid_fit(self, rng):
        calls = 0

        def evaluate(X, p):
            nonlocal calls
            calls += 1
            out = (p[0] + np.vecdot(X, p[1:]))[:, None]
            return out if calls < 10 else np.hstack([out, out])

        model = ParamModel(param_dim=3, input_dim=2, output_dim=1, evaluator=evaluate)
        data = Dataset(rng.normal(size=(6, 2)), rng.normal(size=(6, 1)))
        with pytest.raises(DimensionMismatch):
            fit(model, data, LossSpec.two_norm(), OptimizerConfig(start=np.zeros(3)))
        assert calls == 10

    def test_model_without_evaluator(self, rng):
        model = ParamModel(param_dim=3, input_dim=2, output_dim=1)
        data = Dataset(rng.normal(size=(6, 2)), rng.normal(size=(6, 1)))
        with pytest.raises(NoEvaluator):
            fit(model, data, LossSpec.two_norm(), OptimizerConfig(start=np.zeros(3)))

    def test_dataset_width_checked(self, rng):
        model = linear_regression_model(2)
        data = Dataset(rng.normal(size=(6, 3)), rng.normal(size=(6, 1)))
        with pytest.raises(DimensionMismatch):
            fit(model, data, LossSpec.two_norm(), OptimizerConfig(start=np.zeros(3)))

    def test_fitted_model_params_readonly(self):
        result = FittedModel(params=np.array([1.0]), final_loss=0.0,
                             iterations=0, converged=True)
        with pytest.raises(ValueError):
            result.params[0] = 2.0
