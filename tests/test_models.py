import csv
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deniable_fit import (
    Dataset,
    DimensionMismatch,
    EmptyInput,
    InvalidArguments,
    NoEvaluator,
    NonFiniteValue,
    ParamModel,
    jacobian,
    linear_regression_model,
    residuals,
    serialized_bit_length,
)
from deniable_fit.models import FD_STEP

from conftest import two_output_linear_model


def linear_without_jacobian(input_dim):
    """Same affine map as linear_regression_model, numeric derivatives only."""
    ref = linear_regression_model(input_dim)
    return ParamModel(
        param_dim=ref.param_dim,
        input_dim=input_dim,
        output_dim=1,
        evaluator=ref.evaluator,
    )


class TestLinearModel:
    def test_prediction(self):
        model = linear_regression_model(2)
        out = model.predict_all([[2.0, 3.0]], np.array([1.0, 10.0, 100.0]))
        assert_allclose(out, [[321.0]])

    def test_residual_reconstruction(self, rng):
        model = linear_regression_model(4)
        X = rng.normal(size=(8, 4))
        Y = rng.normal(size=(8, 1))
        p = rng.normal(size=5)
        data = Dataset(X, Y)
        E = residuals(model, data, p)
        assert_allclose(E + model.predict_all(X, p), Y)

    def test_jacobian_is_one_prepended_to_inputs(self, rng):
        model = linear_regression_model(3)
        X = rng.normal(size=(6, 3))
        data = Dataset(X, np.zeros((6, 1)))
        M = jacobian(model, data, rng.normal(size=4))
        assert_allclose(M, np.column_stack([np.ones(6), X]))

    def test_jacobian_does_not_depend_on_parameters(self, rng):
        model = linear_regression_model(2)
        data = Dataset(rng.normal(size=(5, 2)), np.zeros((5, 1)))
        M1 = jacobian(model, data, np.array([0.0, 0.0, 0.0]))
        M2 = jacobian(model, data, np.array([100.0, -5.0, 3.0]))
        assert_allclose(M1, M2)

    def test_param_count_mismatch(self, rng):
        model = linear_regression_model(2)
        data = Dataset(rng.normal(size=(4, 2)), np.zeros((4, 1)))
        with pytest.raises(DimensionMismatch):
            residuals(model, data, np.zeros(5))


class TestFiniteDifferences:
    def test_linear_fd_matches_analytic(self, rng):
        plain = linear_without_jacobian(3)
        exact = linear_regression_model(3)
        for _ in range(20):
            X = rng.uniform(1.0, 8.0, size=(7, 3))
            data = Dataset(X, np.zeros((7, 1)))
            p = rng.uniform(-6.0, 6.0, size=4)
            M_fd = jacobian(plain, data, p)
            M_exact = jacobian(exact, data, p)
            assert np.max(np.abs(M_fd - M_exact)) <= 1e-5

    def test_square_of_single_parameter(self):
        # f(x, p) = p1^2 with one sample: derivative 2 p1
        model = ParamModel(
            param_dim=1, input_dim=1, output_dim=1,
            evaluator=lambda X, p: np.full((len(X), 1), p[0] ** 2),
        )
        data = Dataset(np.array([[1.0]]), np.array([[0.0]]))
        M = jacobian(model, data, np.array([3.0]))
        assert M == pytest.approx(np.array([[6.0]]), abs=1e-4)

    def test_quadratic_model_fd_accuracy(self, rng):
        def evaluate(X, p):
            z = p[0] + np.vecdot(X, p[1:])
            return (z * z)[:, None]

        def jac(X, p):
            z = p[0] + np.vecdot(X, p[1:])
            ones = np.ones((X.shape[0], 1))
            return (2.0 * z[:, None] * np.concatenate((ones, X), axis=1))[:, None, :]

        numeric = ParamModel(param_dim=4, input_dim=3, output_dim=1, evaluator=evaluate)
        analytic = ParamModel(param_dim=4, input_dim=3, output_dim=1,
                              evaluator=evaluate, analytic_jacobian=jac)
        for _ in range(25):
            X = rng.uniform(-2.0, 2.0, size=(5, 3))
            data = Dataset(X, np.zeros((5, 1)))
            p = rng.uniform(-3.0, 3.0, size=4)
            M_fd = jacobian(numeric, data, p)
            M_an = jacobian(analytic, data, p)
            tol = max(1e-5, 1e-4 * np.max(np.abs(M_an)))
            assert np.max(np.abs(M_fd - M_an)) <= tol

    def test_no_evaluator(self):
        model = ParamModel(param_dim=2, input_dim=1, output_dim=1)
        data = Dataset(np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(NoEvaluator):
            jacobian(model, data, np.zeros(2))

    def test_non_finite_evaluation(self):
        model = ParamModel(
            param_dim=1, input_dim=1, output_dim=1,
            evaluator=lambda X, p: np.full((len(X), 1), np.nan if p[0] != 0.0 else 1.0),
        )
        data = Dataset(np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(NonFiniteValue):
            jacobian(model, data, np.zeros(1))


def _random_inputs(rng, n, m, integer):
    if integer:
        return rng.integers(-9, 10, size=(n, m)).astype(float)
    return rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4)


class TestBatchedMatchesRowLoop:
    """Batched evaluation must round exactly like the per-row loops it replaced."""

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 20])
    def test_linear_evaluate_and_jacobian(self, rng, m, integer):
        model = linear_regression_model(m)
        for n in (2, 7, 31, 400):
            X = _random_inputs(rng, n, m, integer)
            p = rng.uniform(-6.0, 6.0, size=m + 1)
            rows = np.array([[p[0] + p[1:] @ x] for x in X])
            assert np.array_equal(model.predict_all(X, p), rows)
            row_jac = np.stack([np.concatenate(([1.0], x))[None, :] for x in X])
            assert np.array_equal(model.analytic_jacobian(X, p), row_jac)

    @pytest.mark.parametrize("integer", [False, True])
    def test_two_readout_finite_differences(self, rng, integer):
        ref = two_output_linear_model(4)
        blind = ParamModel(param_dim=5, input_dim=4, output_dim=2, evaluator=ref.evaluator)

        def row(x, p):
            return np.array([p[0] + p[1:] @ x, p[0] + p[1:] @ x[::-1]])

        for n in (3, 10, 57):
            X = _random_inputs(rng, n, 4, integer)
            p = rng.uniform(-6.0, 6.0, size=5)
            data = Dataset(X, np.zeros((n, 2)))
            for j in range(2):
                base = np.array([row(x, p)[j] for x in X])
                expected = np.empty((n, 5))
                for l in range(5):
                    h = FD_STEP * max(1.0, abs(p[l]))
                    shifted = p.copy()
                    shifted[l] += h
                    expected[:, l] = (np.array([row(x, shifted)[j] for x in X]) - base) / h
                assert np.array_equal(jacobian(blind, data, p, output_index=j), expected)


class TestShapeChecks:
    def test_evaluator_output_shape(self):
        model = ParamModel(param_dim=1, input_dim=1, output_dim=1,
                           evaluator=lambda X, p: np.full(len(X), p[0]))
        with pytest.raises(DimensionMismatch):
            model.predict_all(np.ones((3, 1)), np.ones(1))

    def test_analytic_jacobian_shape(self):
        model = ParamModel(param_dim=1, input_dim=1, output_dim=1,
                           evaluator=lambda X, p: np.full((len(X), 1), p[0]),
                           analytic_jacobian=lambda X, p: np.ones((len(X), 1)))
        data = Dataset(np.ones((3, 1)), np.zeros((3, 1)))
        with pytest.raises(DimensionMismatch):
            jacobian(model, data, np.ones(1))


class TestBitLength:
    @pytest.mark.parametrize("input_dim,expected", [(5, 512), (99, 6528)])
    def test_affine_models(self, input_dim, expected):
        model = linear_regression_model(input_dim)
        assert serialized_bit_length(model, np.zeros(input_dim + 1)) == expected

    def test_single_parameter(self):
        model = ParamModel(param_dim=1, input_dim=1, output_dim=1,
                           evaluator=lambda x, p: np.array([p[0]]))
        assert serialized_bit_length(model, np.array([4.2])) == 192

    def test_non_finite_params_rejected(self):
        model = linear_regression_model(1)
        with pytest.raises(InvalidArguments):
            serialized_bit_length(model, np.array([np.inf, 0.0]))


class TestDataset:
    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((3, 2)), np.zeros((4, 1)))

    def test_empty(self):
        with pytest.raises(EmptyInput):
            Dataset(np.zeros((0, 2)), np.zeros((0, 1)))

    def test_csv_round_trip_is_exact(self, rng, tmp_path):
        data = Dataset(rng.normal(size=(12, 3)) * 10.0 ** rng.integers(-6, 7),
                       rng.normal(size=(12, 2)))
        path = tmp_path / "records.csv"
        data.to_csv(path)
        back = Dataset.from_csv(path)
        assert np.array_equal(back.inputs, data.inputs)
        assert np.array_equal(back.responses, data.responses)

    def test_csv_header(self, rng, tmp_path):
        data = Dataset(rng.normal(size=(2, 2)), rng.normal(size=(2, 1)))
        path = tmp_path / "records.csv"
        data.to_csv(path)
        assert path.read_text().splitlines()[0] == "x1,x2,y1"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["inputs", "responses"])
    def test_non_finite_dataset_is_not_written(self, tmp_path, value, where):
        # from_csv refuses such a file, so to_csv must not leave one behind.
        X, Y = np.ones((3, 2)), np.ones((3, 1))
        (X if where == "inputs" else Y)[1, 0] = value
        path = tmp_path / "records.csv"
        with pytest.raises(InvalidArguments):
            Dataset(X, Y).to_csv(path)
        assert not path.exists()

    @pytest.mark.parametrize("inputs, responses", [((3, 0), (3, 1)), ((3, 2), (3, 0))],
                             ids=["no-inputs", "no-responses"])
    def test_dataset_without_columns_is_not_written(self, tmp_path, inputs, responses):
        path = tmp_path / "records.csv"
        with pytest.raises(InvalidArguments):
            Dataset(np.ones(inputs), np.ones(responses)).to_csv(path)
        assert not path.exists()

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y1\n1,2,3\n")
        with pytest.raises(InvalidArguments):
            Dataset.from_csv(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y1\n1,2,3\n")
        with pytest.raises(InvalidArguments):
            Dataset.from_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,y1\n")
        with pytest.raises(EmptyInput):
            Dataset.from_csv(path)


def reference_from_csv(path):
    """The rows of a decoy CSV as the ``csv`` module and ``float()`` read them.

    This is the loop ``Dataset.from_csv`` used before it parsed with
    ``np.loadtxt``; it returns the float rows, header excluded.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(v) for v in row] for row in reader if row], dtype=float)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e23, 9007199254740993.0]


class TestCsvReader:
    @pytest.mark.parametrize("fmt", ["{!r}", "{:.17g}", "{:.30e}", "{:.6e}", '"{!r}"', " {!r} "])
    def test_fields_parse_bit_for_bit_as_float_does(self, rng, tmp_path, fmt):
        bits = rng.integers(0, 2 ** 64, size=20_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = np.concatenate([EXTREMES, values[np.isfinite(values)]])
        values = values[: len(values) // 4 * 4].reshape(-1, 4)
        path = tmp_path / "records.csv"
        with open(path, "w", newline="") as fh:
            fh.write("x1,x2,x3,y1\n")
            for row in values:
                fh.write(",".join(fmt.format(float(v)) for v in row) + "\n")
        data = Dataset.from_csv(path)
        expected = reference_from_csv(path)
        got = np.concatenate([data.inputs, data.responses], axis=1)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        if fmt in ("{!r}", '"{!r}"', " {!r} "):
            assert got.view(np.uint64).tolist() == values.view(np.uint64).tolist()

    @pytest.mark.parametrize("text, expected", [
        ("x1,y1\n1,2\n\n\n3,4\n\n", [[1, 2], [3, 4]]),
        ("x1,y1\r\n1,2\r\n\r\n3,4\r\n", [[1, 2], [3, 4]]),
        ('x1,y1\n"1.5","-2e3"\n', [[1.5, -2e3]]),
        ('"x1","y1"\n+1,.5\n', [[1.0, 0.5]]),
        ("x1,x2,y1\n1,2,3", [[1, 2, 3]]),
    ], ids=["blank-lines", "crlf", "quoted-fields", "quoted-header", "no-final-newline"])
    def test_layouts_read_as_the_csv_module_reads_them(self, tmp_path, text, expected):
        path = tmp_path / "records.csv"
        path.write_bytes(text.encode())
        data = Dataset.from_csv(path)
        got = np.concatenate([data.inputs, data.responses], axis=1)
        assert got.tolist() == expected
        assert got.tolist() == reference_from_csv(path).tolist()

    @pytest.mark.parametrize("body, line, reason", [
        ("1,2\n1,2,3\n", 3, "expected 2 fields"),
        ("1,2\n\n\n3\n", 5, "expected 2 fields"),
        ("1\n2\n", 2, "expected 2 fields"),
        ("1,2\n1,abc\n", 3, "could not convert string 'abc'"),
        ("1,2\n \n", 3, "could not convert string ' '"),
        ("#1,2\n", 2, "could not convert string '#1'"),
        ("1,2 # note\n", 2, "could not convert string '2 # note'"),
        ("1_000,2\n", 2, "could not convert string '1_000'"),
        ("1,2\n\nnan,2\n", 4, "a field is NaN or infinite"),
        ("1,inf\n", 2, "a field is NaN or infinite"),
        ("1,-Infinity\n", 2, "a field is NaN or infinite"),
        ("1e400,2\n", 2, "a field is NaN or infinite"),
    ])
    def test_bad_rows_are_named_by_path_and_line(self, tmp_path, body, line, reason):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y1\n" + body)
        with pytest.raises(InvalidArguments, match=re.escape(f"{path}:{line}: {reason}")):
            Dataset.from_csv(path)

    @pytest.mark.parametrize("text", ["x1,y1\n", "x1,y1", "x1,y1\n\n\r\n\n"])
    def test_no_samples_is_empty_input_without_a_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyInput, match="has a header but no samples"):
                Dataset.from_csv(path)

    def test_empty_file_is_empty_input(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyInput, match="is empty"):
            Dataset.from_csv(path)
