import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deniable_fit import (
    CertificateTampered,
    ContinuousUniform,
    Dataset,
    DenialCertificate,
    DimensionMismatch,
    DiscreteUniform,
    DistributionSpec,
    Exponential,
    InvalidArguments,
    NonPositiveSupport,
    RankConditionViolated,
    ZeroResidual,
    adversary_recover,
    craft_denial,
    craft_denial_resampling,
    crafted_matrix_norm,
    deniability_check,
    entropy_per_record,
    fit,
    generate_decoy,
    jacobian,
    linear_regression_model,
    rank_condition,
    residuals,
    run_denial_trial,
    serialized_bit_length,
    substream,
    verify_denial,
    LossSpec,
    OptimizerConfig,
)

from deniable_fit.cli import main, write_model_file

from conftest import two_output_linear_model

Q = 2.0 ** -20


class TestEntropy:
    def test_discrete_uniform_octave(self):
        spec = DistributionSpec((DiscreteUniform(1, 8),))
        assert entropy_per_record(spec) == pytest.approx(3.0)

    def test_degenerate_discrete(self):
        spec = DistributionSpec((DiscreteUniform(5, 5),))
        assert entropy_per_record(spec) == 0.0

    def test_continuous_uniform_quantized(self):
        spec = DistributionSpec((ContinuousUniform(0.0, 1.0),))
        assert entropy_per_record(spec) == pytest.approx(20.0)
        assert entropy_per_record(spec, resolution=2.0 ** -10) == pytest.approx(10.0)

    def test_exponential_quantized(self):
        spec = DistributionSpec((Exponential(5.0),))
        expected = (1.0 - math.log(5.0) + math.log(1.0 / Q)) / math.log(2.0)
        assert entropy_per_record(spec) == pytest.approx(expected, rel=1e-12)

    def test_attributes_sum(self):
        spec = DistributionSpec(
            (DiscreteUniform(1, 8), DiscreteUniform(1, 8), ContinuousUniform(0.0, 1.0))
        )
        assert entropy_per_record(spec) == pytest.approx(3.0 + 3.0 + 20.0)

    def test_non_positive_support(self):
        with pytest.raises(NonPositiveSupport):
            entropy_per_record(DistributionSpec((DiscreteUniform(3, 1),)))
        with pytest.raises(NonPositiveSupport):
            entropy_per_record(DistributionSpec((ContinuousUniform(2.0, 2.0),)))
        with pytest.raises(NonPositiveSupport):
            entropy_per_record(DistributionSpec((Exponential(0.0),)))

    def test_no_attributes(self):
        with pytest.raises(InvalidArguments):
            entropy_per_record(DistributionSpec(()))

    @pytest.mark.parametrize("make", [
        lambda: DiscreteUniform(0, math.nan),
        lambda: DiscreteUniform(-math.inf, 3),
        lambda: ContinuousUniform(0.0, math.nan),
        lambda: ContinuousUniform(math.nan, 1.0),
        lambda: ContinuousUniform(0.0, math.inf),
        lambda: Exponential(math.nan),
        lambda: Exponential(math.inf),
    ])
    def test_non_finite_bounds_rejected(self, make):
        with pytest.raises(InvalidArguments):
            make()

    def test_huge_integer_range_is_finite(self):
        spec = DistributionSpec((DiscreteUniform(0, 2 ** 1100 - 1),))
        assert entropy_per_record(spec) == pytest.approx(1100.0)

    @pytest.mark.parametrize("resolution", [math.nan, math.inf])
    def test_non_finite_resolution_rejected(self, resolution):
        spec = DistributionSpec((ContinuousUniform(0.0, 1.0),))
        with pytest.raises(InvalidArguments):
            entropy_per_record(spec, resolution=resolution)


class TestDeniabilityCheck:
    def test_ten_records_cannot_hide_a_512_bit_model_at_33_bits_each(self):
        report = deniability_check(512, 33, 10)
        assert report.threshold == pytest.approx(512 / 33)
        assert not report.deniable

    def test_sixteen_records_can(self):
        assert deniability_check(512, 33, 16).deniable

    def test_boundary_is_strict(self):
        # n equal to the threshold is not enough
        assert not deniability_check(30, 3, 10).deniable
        assert deniability_check(30, 3, 11).deniable

    def test_matches_bit_length_helper(self):
        model = linear_regression_model(5)
        k = serialized_bit_length(model, np.zeros(6))
        report = deniability_check(k, 33.0, 10)
        assert report.k_bits == 512

    def test_monotone_in_n(self):
        previous = False
        for n in range(1, 40):
            current = deniability_check(100, 7, n).deniable
            assert current >= previous  # once deniable, more records stay deniable
            previous = current

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArguments):
            deniability_check(0, 3, 10)
        with pytest.raises(InvalidArguments):
            deniability_check(512, 0.0, 10)
        with pytest.raises(InvalidArguments):
            deniability_check(512, 3, 0)

    @pytest.mark.parametrize("k_bits, entropy_bits", [
        (math.nan, 3.0), (math.inf, 3.0), (512, math.nan), (512, math.inf),
    ])
    def test_non_finite_arguments_rejected(self, k_bits, entropy_bits):
        with pytest.raises(InvalidArguments):
            deniability_check(k_bits, entropy_bits, 10)


class TestGenerateDecoy:
    def test_shapes_and_ranges(self):
        decoy = generate_decoy(
            DistributionSpec.uniform_ints(1, 8, 5),
            DistributionSpec.uniform_ints(1, 8, 1),
            10,
            seed=42,
        )
        assert decoy.inputs.shape == (10, 5)
        assert decoy.responses.shape == (10, 1)
        for arr in (decoy.inputs, decoy.responses):
            assert np.all(arr == np.round(arr))
            assert arr.min() >= 1 and arr.max() <= 8

    def test_deterministic(self):
        spec_x = DistributionSpec.uniform_ints(1, 8, 3)
        spec_y = DistributionSpec((ContinuousUniform(0.0, 1.0),))
        a = generate_decoy(spec_x, spec_y, 7, seed=9)
        b = generate_decoy(spec_x, spec_y, 7, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.responses, b.responses)
        c = generate_decoy(spec_x, spec_y, 7, seed=10)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_exponential_mean(self):
        decoy = generate_decoy(
            DistributionSpec((Exponential(5.0),)),
            DistributionSpec((Exponential(5.0),)),
            100_000,
            seed=1,
        )
        assert decoy.inputs.mean() == pytest.approx(0.2, rel=0.01)

    def test_discrete_covers_support(self):
        decoy = generate_decoy(
            DistributionSpec.uniform_ints(1, 8, 1),
            DistributionSpec.uniform_ints(1, 8, 1),
            4000,
            seed=3,
        )
        assert set(np.unique(decoy.inputs)) == set(float(v) for v in range(1, 9))


def small_problem(rng, n=10, m=5):
    model = linear_regression_model(m)
    p_star = rng.uniform(-6.0, 6.0, size=m + 1)
    decoy = generate_decoy(
        DistributionSpec.uniform_ints(1, 8, m),
        DistributionSpec.uniform_ints(1, 8, 1),
        n,
        seed=int(rng.integers(0, 2**32)),
    )
    return model, p_star, decoy


class TestCraftDenial:
    def test_certificate_contents(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=7)
        assert len(cert.norms) == 1
        assert rank_condition(jacobian(model, decoy, p_star), cert.residual[:, 0])
        assert cert.residual.shape == (10, 1)
        assert_allclose(cert.residual, residuals(model, decoy, p_star))
        assert cert.model_descriptor["family"] == "linear_regression"
        assert cert.seed == 7

    def test_norm_anchored_on_residual(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=7)
        assert_allclose(cert.norms[0].projector.source_error, cert.residual[:, 0])

    def test_stored_residual_value_has_no_b_component(self, rng):
        # at the anchor, only the w1 terms contribute
        model = two_output_linear_model(3)
        p_star = rng.uniform(-2.0, 2.0, size=4)
        decoy = Dataset(rng.uniform(1.0, 8.0, size=(8, 3)), rng.uniform(1.0, 8.0, size=(8, 2)))
        cert = craft_denial(model, p_star, decoy, seed=11)
        assert len(cert.norms) == 2
        expected = sum(
            0.5 * nm.alpha * abs(float(cert.residual[:, j] @ nm.w1))
            for j, nm in enumerate(cert.norms)
        )
        assert crafted_matrix_norm(cert.norms, cert.residual) == pytest.approx(
            expected, rel=1e-12
        )

    def test_zero_residual_rejected(self, rng):
        model = linear_regression_model(3)
        p_star = rng.uniform(-2.0, 2.0, size=4)
        X = rng.uniform(1.0, 8.0, size=(9, 3))
        Y = model.predict_all(X, p_star)  # perfect fit
        with pytest.raises(ZeroResidual):
            craft_denial(model, p_star, Dataset(X, Y), seed=0)

    def test_rank_condition_violation_rejected(self, rng):
        model = linear_regression_model(3)
        p_star = rng.uniform(-2.0, 2.0, size=4)
        X = rng.uniform(1.0, 8.0, size=(9, 3))
        probe = Dataset(X, np.zeros((9, 1)))
        M = jacobian(model, probe, p_star)
        # responses offset by a column-space vector leave the residual inside it
        Y = model.predict_all(X, p_star) + (M @ rng.normal(size=4))[:, None]
        with pytest.raises(RankConditionViolated):
            craft_denial(model, p_star, Dataset(X, Y), seed=0)

    @pytest.mark.parametrize("zero_tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_zero_tol_rejected(self, rng, zero_tol):
        model, p_star, decoy = small_problem(rng)
        with pytest.raises(InvalidArguments):
            craft_denial(model, p_star, decoy, seed=0, zero_tol=zero_tol)

    def test_non_finite_p_star_rejected(self, rng):
        model, p_star, decoy = small_problem(rng)
        p_star[2] = math.nan
        with pytest.raises(InvalidArguments):
            craft_denial(model, p_star, decoy, seed=0)
        with pytest.raises(DimensionMismatch):  # the shape is checked first
            craft_denial(model, p_star[:-1], decoy, seed=0)

    def test_resampling_retries_until_craftable(self, rng):
        model, p_star, _ = small_problem(rng)
        cert = craft_denial_resampling(
            model,
            p_star,
            DistributionSpec.uniform_ints(1, 8, 5),
            DistributionSpec.uniform_ints(1, 8, 1),
            10,
            seed=3,
        )
        assert rank_condition(jacobian(model, cert.decoy, p_star), cert.residual[:, 0])


class TestVerifyDenial:
    def test_round_trip_verification_passes(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        report = verify_denial(cert, model, p_star, tolerance=5e-3)
        assert report.passed
        assert report.converged
        assert report.max_abs_diff <= 5e-3

    def test_serialization_round_trip_replays_bit_identically(self, rng, tmp_path):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=2)
        before = verify_denial(cert, model, p_star)
        path = tmp_path / "cert.json"
        cert.to_json(path)
        clone = DenialCertificate.from_json(path)
        after = verify_denial(clone, model, p_star)
        assert np.array_equal(before.refit_params, after.refit_params)
        assert before.max_abs_diff == after.max_abs_diff
        assert before.final_loss == after.final_loss
        assert before.iterations == after.iterations
        assert before.passed == after.passed

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0])
    def test_bad_tolerance_rejected(self, rng, tolerance):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        with pytest.raises(InvalidArguments):
            verify_denial(cert, model, p_star, tolerance=tolerance)

    def test_non_finite_p_star_rejected(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        bad = p_star.copy()
        bad[0] = math.inf
        with pytest.raises(InvalidArguments):
            verify_denial(cert, model, bad)
        with pytest.raises(DimensionMismatch):  # the shape is checked first
            verify_denial(cert, model, bad[:-1])

    def test_tampered_residual_detected(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        payload = cert.to_dict()
        payload["residual"][3][0] += 1e-6
        with pytest.raises(CertificateTampered):
            verify_denial(DenialCertificate.from_dict(payload), model, p_star)

    def test_tampered_decoy_detected(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        payload = cert.to_dict()
        payload["decoy"]["responses"][0][0] += 0.5
        with pytest.raises(CertificateTampered):
            verify_denial(DenialCertificate.from_dict(payload), model, p_star)

    @pytest.mark.parametrize("tamper", ["random", "doubled"])
    def test_tampered_projector_detected(self, rng, tamper):
        # each fails one check: a random orthonormal B does not annihilate e,
        # a doubled B has rows of norm 2
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        payload = cert.to_dict()
        B = np.asarray(payload["norms"][0]["b_rows"])
        if tamper == "random":
            B = np.linalg.qr(np.random.default_rng(3).standard_normal((10, 9)))[0].T
        else:
            B = 2.0 * B
        payload["norms"][0]["b_rows"] = B.tolist()
        loaded = DenialCertificate.from_dict(payload)
        with pytest.raises(CertificateTampered):
            verify_denial(loaded, model, p_star)

    def test_wrong_parameters_detected(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        with pytest.raises(CertificateTampered):
            verify_denial(cert, model, p_star + 0.1)

    def test_multi_output_verification(self, rng):
        model = two_output_linear_model(3)
        p_star = rng.uniform(-3.0, 3.0, size=4)
        decoy = Dataset(rng.uniform(1.0, 8.0, size=(9, 3)), rng.uniform(1.0, 8.0, size=(9, 2)))
        cert = craft_denial(model, p_star, decoy, seed=8)
        report = verify_denial(cert, model, p_star, tolerance=5e-3)
        assert report.passed


def legacy_payload(payload):
    """``payload`` as the first schema wrote it, dead fields included."""
    legacy = dict(payload, schema="denial-cert/1", rank_condition_ok=[True],
                  tolerances={"zero_residual": 1e-12, "integrity": 1e-9})
    legacy["norms"] = [dict(nm, svd_tolerance=1e-12, seed=None) for nm in payload["norms"]]
    legacy["optimizer"] = dict(payload["optimizer"], seed=None)
    return legacy


class TestCertificateLoading:
    def test_schema_keys_are_exact(self, rng):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        assert payload["schema"] == "denial-cert/2"
        assert set(payload) == {
            "schema", "seed", "model", "decoy", "residual", "norms", "optimizer",
        }
        assert set(payload["decoy"]) == {"inputs", "responses"}
        for nm in payload["norms"]:
            assert set(nm) == {"source_error", "b_rows", "w1", "alpha", "variant"}
        assert set(payload["optimizer"]) == {
            "start", "max_iters", "simplex_scale", "convergence_tol",
        }

    def test_first_schema_refused(self, rng):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        with pytest.raises(InvalidArguments):
            DenialCertificate.from_dict(legacy_payload(payload))

    def test_cli_verify_refuses_first_schema(self, rng, tmp_path, capsys):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        cert_path, model_path = tmp_path / "cert.json", tmp_path / "model.json"
        cert_path.write_text(json.dumps(legacy_payload(payload)))
        write_model_file(model_path, 5, p_star)
        assert main(["verify", str(cert_path), str(model_path)]) == 1
        assert "unsupported certificate schema" in capsys.readouterr().err

    def test_missing_key_rejected(self, rng):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        del payload["residual"]
        with pytest.raises(InvalidArguments):
            DenialCertificate.from_dict(payload)

    def test_non_finite_array_rejected(self, rng):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        payload["decoy"]["inputs"][2][1] = float("nan")
        with pytest.raises(InvalidArguments):
            DenialCertificate.from_dict(payload)


def _certificate(rng, outputs, n, variant):
    if outputs == 1:
        model, p_star, decoy = small_problem(rng, n=n)
    else:
        model = two_output_linear_model(3)
        p_star = rng.uniform(-3.0, 3.0, size=4)
        decoy = Dataset(rng.uniform(1.0, 8.0, size=(n, 3)), rng.uniform(1.0, 8.0, size=(n, 2)))
    return model, p_star, craft_denial(model, p_star, decoy, seed=4, inner_variant=variant)


class TestCertificateWriting:
    @pytest.mark.parametrize("variant", ["euclidean", "one_norm"])
    @pytest.mark.parametrize("outputs", [1, 2])
    @pytest.mark.parametrize("n", [10, 200])
    def test_file_is_compact_json_of_to_dict(self, rng, tmp_path, variant, outputs, n):
        _, _, cert = _certificate(rng, outputs, n, variant)
        path = tmp_path / "cert.json"
        cert.to_json(path)
        expected = json.dumps(cert.to_dict(), separators=(",", ":")) + "\n"
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("variant", ["euclidean", "one_norm"])
    @pytest.mark.parametrize("outputs", [1, 2])
    def test_reload_replays_to_the_same_report(self, rng, tmp_path, variant, outputs):
        model, p_star, cert = _certificate(rng, outputs, 10, variant)
        path = tmp_path / "cert.json"
        cert.to_json(path)
        clone = DenialCertificate.from_json(path)
        assert clone.to_dict() == cert.to_dict()
        before = verify_denial(cert, model, p_star).to_dict()
        assert verify_denial(clone, model, p_star).to_dict() == before

    def test_write_streams_instead_of_building_the_text(self, rng, tmp_path):
        # Joining the whole text first peaks near 3x the payload; row by row stays near 1x.
        _, _, cert = _certificate(rng, 1, 200, "euclidean")
        tracemalloc.start()
        try:
            cert.to_dict()
            payload_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            cert.to_json(tmp_path / "cert.json")
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert write_peak <= 1.25 * payload_peak


class TestAdversaryRecover:
    def test_two_distinct_datasets_refit_to_p_star(self, rng):
        model = linear_regression_model(2)
        p_star = rng.uniform(-6.0, 6.0, size=3)
        first, second = adversary_recover(model, p_star, 10, seed=4)
        assert not np.array_equal(first.inputs, second.inputs)
        for data in (first, second):
            A = np.column_stack([np.ones(10), data.inputs])
            ls, *_ = np.linalg.lstsq(A, data.responses[:, 0], rcond=None)
            assert np.max(np.abs(ls - p_star)) <= 1e-9  # exact data, exact refit
        result = fit(model, first, LossSpec.two_norm(), OptimizerConfig(start=np.zeros(3)))
        assert np.max(np.abs(result.params - p_star)) <= 1e-3

    def test_needs_more_records_than_parameters(self, rng):
        model = linear_regression_model(2)
        with pytest.raises(InvalidArguments):
            adversary_recover(model, rng.normal(size=3), 3, seed=0)

    def test_deterministic(self, rng):
        model = linear_regression_model(2)
        p_star = rng.uniform(-6.0, 6.0, size=3)
        a1, b1 = adversary_recover(model, p_star, 8, seed=12)
        a2, b2 = adversary_recover(model, p_star, 8, seed=12)
        assert np.array_equal(a1.inputs, a2.inputs)
        assert np.array_equal(b1.responses, b2.responses)


class TestTrialPipeline:
    def test_single_trial_round_trips(self):
        result = run_denial_trial(d=4, n=8, seed=123, index=0)
        assert result.passed
        assert result.converged
        assert result.craft_attempts >= 1

    def test_substreams_are_independent(self):
        a = substream(5, "decoy").standard_normal(4)
        b = substream(5, "w1").standard_normal(4)
        c = substream(5, "decoy").standard_normal(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)
