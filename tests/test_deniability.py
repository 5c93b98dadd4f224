import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import struct
import tempfile
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    deniability_check,
    entropy_per_record,
    fit,
    generate_decoy,
    jacobian,
    linear_regression_model,
    make_crafted_norm,
    nullspace_projector,
    rank_condition,
    residuals,
    run_denial_trial,
    serialized_bit_length,
    substream,
    verify_denial,
    LossSpec,
    OptimizerConfig,
)

from deniable_fit import deniability
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

    @pytest.mark.parametrize("lo, hi", [(1.5, 3), (1, 3.5), (1.0, 3), (True, 3), (0, True)])
    def test_discrete_bounds_must_be_integers(self, lo, hi):
        # DiscreteUniform(1.5, 3) samples 2..3 but would report log2(2.5) bits.
        with pytest.raises(InvalidArguments):
            DiscreteUniform(lo, hi)

    def test_discrete_accepts_numpy_integers(self):
        dist = DiscreteUniform(np.int64(1), np.int64(8))
        assert dist.entropy(1.0) == 3.0

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

    @pytest.mark.parametrize("k_bits, entropy_bits", [(1e308, 1e-308), (10 ** 400, 1.0)])
    def test_overflowing_threshold_rejected(self, k_bits, entropy_bits):
        with pytest.raises(InvalidArguments):
            deniability_check(k_bits, entropy_bits, 5)


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
    @pytest.mark.parametrize("seed", [None, 1.5, True, -1, 2 ** 64],
                             ids=["None", "1.5", "True", "-1", "2**64"])
    def test_seed_checked_before_any_work(self, rng, seed):
        model, p_star, decoy = small_problem(rng)
        inner, calls = model.evaluator, []
        model.evaluator = lambda X, p: calls.append(1) or inner(X, p)
        with pytest.raises(InvalidArguments, match="seed must be an integer"):
            craft_denial(model, p_star, decoy, seed=seed)
        assert calls == []

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
        assert np.array_equal(cert.norms[0].b_rows, nullspace_projector(cert.residual[:, 0]))

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
        assert LossSpec.crafted_matrix(cert.norms).evaluate(cert.residual) == pytest.approx(
            expected, rel=1e-12
        )

    def test_zero_residual_rejected(self, rng):
        model = linear_regression_model(3)
        p_star = rng.uniform(-2.0, 2.0, size=4)
        X = rng.uniform(1.0, 8.0, size=(9, 3))
        Y = model.predict_all(X, p_star)  # perfect fit
        with pytest.raises(ZeroResidual):
            craft_denial(model, p_star, Dataset(X, Y), seed=0)
        # Outside col(M) but of 2-norm 5e-13: below ZERO_TOL, which the projector shares.
        M = jacobian(model, Dataset(X, Y), p_star)
        e = rng.normal(size=9)
        e -= M @ np.linalg.lstsq(M, e, rcond=None)[0]
        e *= 5e-13 / np.linalg.norm(e)
        with pytest.raises(ZeroResidual):
            craft_denial(model, p_star, Dataset(X, Y + e[:, None]), seed=0)

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

    @pytest.mark.parametrize("n", [6, 3])
    def test_resampling_refuses_no_more_records_than_parameters(self, n, rng, monkeypatch):
        # With n <= d no decoy supports a certificate, so none is drawn.
        model, p_star, _ = small_problem(rng)
        monkeypatch.setattr(deniability, "generate_decoy", _no_decoy_draws)
        with pytest.raises(InvalidArguments, match=f"n={n}, d=6"):
            craft_denial_resampling(model, p_star, DistributionSpec.uniform_ints(1, 8, 5),
                                    DistributionSpec.uniform_ints(1, 8, 1), n, seed=3)


def _no_decoy_draws(*args, **kwargs):
    raise AssertionError("a decoy was drawn")


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

    def test_model_of_another_descriptor_rejected(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        renamed = dataclasses.replace(model, family="renamed")
        for other in (renamed, two_output_linear_model(model.input_dim)):
            with pytest.raises(InvalidArguments, match="certificate was issued for"):
                verify_denial(cert, other, p_star)
        assert verify_denial(cert, model, p_star).passed

    @pytest.mark.parametrize("variant", ["euclidean", "one_norm"])
    def test_replay_starts_where_the_seed_says(self, rng, variant):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=12, inner_variant=variant)
        noise = substream(cert.seed, "optimizer-start").standard_normal(p_star.size)
        expected = fit(model, cert.decoy, cert.loss_spec(), OptimizerConfig(start=p_star + 1e-2 * noise))
        report = verify_denial(cert, model, p_star)
        assert np.array_equal(report.refit_params, expected.params)
        assert (report.final_loss, report.iterations) == (expected.final_loss, expected.iterations)

    def test_multi_output_verification(self, rng):
        model = two_output_linear_model(3)
        p_star = rng.uniform(-3.0, 3.0, size=4)
        decoy = Dataset(rng.uniform(1.0, 8.0, size=(9, 3)), rng.uniform(1.0, 8.0, size=(9, 2)))
        cert = craft_denial(model, p_star, decoy, seed=8)
        report = verify_denial(cert, model, p_star, tolerance=5e-3)
        assert report.passed


def legacy_payload(payload, schema):
    """``payload`` as an earlier schema wrote it, redundant and dead fields included."""
    start = [0.0] * payload["model"]["param_dim"]
    legacy = dict(payload, schema=schema)
    if schema == "denial-cert/3":
        return dict(legacy, start=start)
    legacy["norms"] = [dict(nm, source_error=[row[j] for row in payload["residual"]])
                       for j, nm in enumerate(payload["norms"])]
    legacy["optimizer"] = {"start": start, "max_iters": 40000,
                           "simplex_scale": 0.05, "convergence_tol": 1e-13}
    if schema == "denial-cert/1":
        legacy.update(rank_condition_ok=[True],
                      tolerances={"zero_residual": 1e-12, "integrity": 1e-9})
        legacy["norms"] = [dict(nm, svd_tolerance=1e-12, seed=None) for nm in legacy["norms"]]
        legacy["optimizer"]["seed"] = None
    return legacy


LEGACY_SCHEMAS = ("denial-cert/1", "denial-cert/2", "denial-cert/3")


class TestCertificateLoading:
    def test_schema_keys_are_exact(self, rng):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        assert payload["schema"] == "denial-cert/4"
        assert list(payload) == ["schema", "seed", "model", "decoy", "residual", "norms"]
        assert list(payload["model"]) == ["family", "input_dim", "param_dim", "output_dim"]
        assert set(payload["decoy"]) == {"inputs", "responses"}
        for nm in payload["norms"]:
            assert list(nm) == ["b_rows", "w1", "alpha", "variant"]

    # The earlier schemas are covered in one test each: /1, /2 and /3 files
    # are refused alike, by the one schema check.
    def test_first_schema_refused(self, rng):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        for schema in LEGACY_SCHEMAS:
            with pytest.raises(InvalidArguments, match="unsupported certificate schema"):
                DenialCertificate.from_dict(legacy_payload(payload, schema))

    def test_cli_verify_refuses_first_schema(self, rng, tmp_path, capsys):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        cert_path, model_path = tmp_path / "cert.json", tmp_path / "model.json"
        write_model_file(model_path, 5, p_star)
        for schema in LEGACY_SCHEMAS:
            cert_path.write_text(json.dumps(legacy_payload(payload, schema)))
            assert main(["verify", str(cert_path), str(model_path)]) == 1
            assert "unsupported certificate schema" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["euclidean", "one_norm"])
    def test_norm_round_trip_is_exact(self, rng, variant):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=99, inner_variant=variant)
        clone = DenialCertificate.from_dict(cert.to_dict())
        norm, copy = cert.norms[0], clone.norms[0]
        assert np.array_equal(copy.b_rows, norm.b_rows)
        assert np.array_equal(copy.w1, norm.w1)
        assert copy.alpha == norm.alpha
        assert copy.inner_variant == norm.inner_variant

    def test_tampered_w1_rejected(self, rng):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        norm = payload["norms"][0]
        norm["w1"] = list(np.asarray(norm["b_rows"])[0])  # inside the complement
        with pytest.raises(InvalidArguments):
            DenialCertificate.from_dict(payload)

    def test_norm_of_another_dimension_rejected(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        other = make_crafted_norm(rng.normal(size=9), seed=1)
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(cert, norms=(other,))
        payload = cert.to_dict()
        payload["norms"] = [{"b_rows": other.b_rows.tolist(), "w1": other.w1.tolist(),
                             "alpha": other.alpha, "variant": other.inner_variant}]
        with pytest.raises(InvalidArguments):
            DenialCertificate.from_dict(payload)

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

    def test_number_beyond_float_range_rejected(self, rng):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        payload["norms"][0]["alpha"] = 10 ** 400
        with pytest.raises(InvalidArguments):
            DenialCertificate.from_dict(payload)

    @pytest.mark.parametrize("seed", [1.5, "7", True, -1, 2 ** 64, np.int64(7)])
    def test_bad_seed_rejected(self, rng, seed):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        payload["seed"] = seed
        with pytest.raises(InvalidArguments):
            DenialCertificate.from_dict(payload)

    @staticmethod
    def _refused_by_verify(payload, p_star, tmp_path, match):
        with pytest.raises(InvalidArguments, match=match):
            DenialCertificate.from_dict(payload)
        cert_path, model_path = tmp_path / "cert.json", tmp_path / "model.json"
        cert_path.write_text(json.dumps(payload))
        write_model_file(model_path, 5, p_star)
        assert main(["verify", str(cert_path), str(model_path)]) == 1

    # Where each kind of numeric field sits in a payload: (container, key) pairs.
    NUMERIC_FIELDS = {
        "alpha": (("norms", 0), "alpha"),
        "decoy_inputs": (("decoy", "inputs", 0), 1),
        "decoy_responses": (("decoy", "responses", 3), 0),
        "residual": (("residual", 2), 0),
        "b_rows": (("norms", 0, "b_rows", 1), 2),
        "w1": (("norms", 0, "w1"), 4),
    }

    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    @pytest.mark.parametrize("kind", ["string", "boolean", "null"])
    def test_non_number_rejected(self, rng, tmp_path, capsys, field, kind):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        path, key = self.NUMERIC_FIELDS[field]
        container = payload
        for step in path:
            container = container[step]
        # A string that spells the same number, or a 1.0 (or 0.0) in disguise.
        container[key] = {"string": repr(container[key]), "boolean": True, "null": None}[kind]
        self._refused_by_verify(payload, p_star, tmp_path, "not a number")

    @pytest.mark.parametrize("level", ["top", "model", "decoy", "norm"])
    def test_keys_outside_the_schema_rejected(self, rng, tmp_path, capsys, level):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        where = {"top": payload, "model": payload["model"], "decoy": payload["decoy"],
                 "norm": payload["norms"][0]}[level]
        last = list(where)[-1]
        where["comment"] = "added by hand"
        self._refused_by_verify(payload, p_star, tmp_path,
                                re.escape("lacks keys [], has unknown keys ['comment']"))
        del where["comment"], where[last]
        self._refused_by_verify(payload, p_star, tmp_path,
                                re.escape(f"lacks keys [{last!r}], has unknown keys []"))

    def test_replay_start_key_rejected(self, rng, tmp_path, capsys):
        # The start is derived from the seed at verify time; a file may not carry one.
        model, p_star, decoy = small_problem(rng)
        payload = dict(craft_denial(model, p_star, decoy, seed=1).to_dict(), start=p_star.tolist())
        self._refused_by_verify(payload, p_star, tmp_path,
                                re.escape("lacks keys [], has unknown keys ['start']"))

    def test_model_given_as_pairs_rejected(self, rng, tmp_path, capsys):
        # dict() would coerce a list of [key, value] pairs into the descriptor.
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        payload["model"] = [list(item) for item in payload["model"].items()]
        self._refused_by_verify(payload, p_star, tmp_path, "model")

    def test_missing_seed_rejected(self, rng, tmp_path, capsys):
        model, p_star, decoy = small_problem(rng)
        payload = craft_denial(model, p_star, decoy, seed=1).to_dict()
        del payload["seed"]
        self._refused_by_verify(payload, p_star, tmp_path, "seed")
        payload["seed"] = None              # the replay's start is derived from the seed
        self._refused_by_verify(payload, p_star, tmp_path, "seed must be an integer")

    def test_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(InvalidArguments):
            DenialCertificate.from_json(path)

    @pytest.mark.parametrize("damage", ["nan", "infinity", "truncated", "empty"])
    def test_text_that_is_not_json_rejected(self, rng, tmp_path, capsys, damage):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        cert_path, model_path = tmp_path / "cert.json", tmp_path / "model.json"
        cert.to_json(cert_path)
        write_model_file(model_path, 5, p_star)
        payload = cert.to_dict()
        if damage == "nan":
            payload["residual"][0][0] = math.nan
            cert_path.write_text(json.dumps(payload))
        elif damage == "infinity":
            payload["norms"][0]["alpha"] = -math.inf
            cert_path.write_text(json.dumps(payload))
        elif damage == "truncated":
            text = cert_path.read_bytes()
            cert_path.write_bytes(text[: len(text) // 2])
        else:
            cert_path.write_bytes(b"")
        with pytest.raises(InvalidArguments):
            DenialCertificate.from_json(cert_path)
        assert main(["verify", str(cert_path), str(model_path)]) == 1
        assert "not a JSON certificate" in capsys.readouterr().err


class TestCertificateValues:
    def test_non_finite_residual_rejected(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        residual = cert.residual.copy()
        residual[4, 0] = math.nan
        with pytest.raises(InvalidArguments):
            dataclasses.replace(cert, residual=residual)

    @pytest.mark.parametrize("edit", ["extra_decoy_row", "wider_model", "residual_as_a_number"])
    def test_shapes_that_disagree_rejected(self, rng, tmp_path, capsys, edit):
        # Each was built and written once; verify refused the first only at replay,
        # and a residual of one number raised IndexError on load.
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        longer = Dataset(np.vstack([decoy.inputs, decoy.inputs[:1]]),
                         np.vstack([decoy.responses, decoy.responses[:1]]))
        wider = dict(cert.model_descriptor, input_dim=7, output_dim=2)
        field, value, entry = {
            "extra_decoy_row": ("decoy", longer, {"inputs": longer.inputs.tolist(),
                                                  "responses": longer.responses.tolist()}),
            "wider_model": ("model_descriptor", wider, wider),
            "residual_as_a_number": ("residual", 5.0, 5.0),
        }[edit]
        with pytest.raises(DimensionMismatch, match="disagree"):
            dataclasses.replace(cert, **{field: value})
        payload = cert.to_dict()
        payload[{"model_descriptor": "model"}.get(field, field)] = entry
        TestCertificateLoading._refused_by_verify(payload, p_star, tmp_path, "disagree")

    def test_certificate_owns_its_decoy(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        before = cert.to_dict()
        decoy.inputs[0, 0] = 99.0
        decoy.responses[1, 0] = -99.0
        assert cert.to_dict() == before
        assert not cert.decoy.inputs.flags.writeable
        assert not cert.decoy.responses.flags.writeable
        assert verify_denial(cert, model, p_star).passed

    def test_certificate_decoy_cannot_be_rebound(self, rng):
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.decoy.inputs = np.zeros((10, 5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.decoy.responses = np.zeros((10, 1))
        assert verify_denial(cert, model, p_star).passed

    def test_descriptor_with_an_extra_key_rejected(self, rng):
        # Refused when built, as on load, so to_json never writes a file from_json refuses.
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        with pytest.raises(InvalidArguments, match=re.escape("has unknown keys ['note']")):
            dataclasses.replace(cert, model_descriptor=dict(cert.model_descriptor, note="x"))
        short = {key: value for key, value in cert.model_descriptor.items() if key != "family"}
        with pytest.raises(InvalidArguments, match=re.escape("lacks keys ['family']")):
            dataclasses.replace(cert, model_descriptor=short)

    @pytest.mark.parametrize("key, value", [
        ("family", 7), ("family", None), ("input_dim", 5.0), ("input_dim", True),
        ("input_dim", "5"), ("param_dim", 0), ("output_dim", 2 ** 64),
    ])
    def test_descriptor_values_of_another_form_rejected(self, rng, tmp_path, capsys, key, value):
        # An input_dim of 5.0 compares equal to the model's 5, so verify used to pass it.
        model, p_star, decoy = small_problem(rng)
        cert = craft_denial(model, p_star, decoy, seed=1)
        with pytest.raises(InvalidArguments, match="needs a string family"):
            dataclasses.replace(cert, model_descriptor=dict(cert.model_descriptor, **{key: value}))
        payload = cert.to_dict()
        payload["model"][key] = value
        TestCertificateLoading._refused_by_verify(payload, p_star, tmp_path, "needs a string family")

    def test_certificate_owns_its_descriptor(self, rng, tmp_path):
        model, p_star, decoy = small_problem(rng)
        descriptor = model.descriptor()
        cert = dataclasses.replace(craft_denial(model, p_star, decoy, seed=1),
                                   model_descriptor=descriptor)
        descriptor["note"] = "x"
        assert cert.model_descriptor == model.descriptor()
        cert.to_json(tmp_path / "cert.json")
        assert DenialCertificate.from_json(tmp_path / "cert.json").to_dict() == cert.to_dict()

    @pytest.mark.parametrize("seed", [2 ** 64, -1])
    def test_craft_refuses_a_seed_beyond_64_bits(self, rng, seed):
        model, p_star, decoy = small_problem(rng)
        with pytest.raises(InvalidArguments):
            craft_denial(model, p_star, decoy, seed=seed)

    @pytest.mark.parametrize("seed", [None, 0, 2 ** 64 - 1])
    def test_seed_round_trips(self, rng, tmp_path, seed):
        model, p_star, decoy = small_problem(rng)
        if seed is None:  # a certificate needs its seed: the replay's start is derived from it
            with pytest.raises(InvalidArguments, match="seed must be an integer"):
                dataclasses.replace(craft_denial(model, p_star, decoy, seed=1), seed=seed)
            return
        cert = dataclasses.replace(craft_denial(model, p_star, decoy, seed=1), seed=seed)
        path = tmp_path / "cert.json"
        cert.to_json(path)
        assert DenialCertificate.from_json(path).seed == cert.seed


def _certificate(rng, outputs, n, variant):
    if outputs == 1:
        model, p_star, decoy = small_problem(rng, n=n)
    else:
        model = two_output_linear_model(3)
        p_star = rng.uniform(-3.0, 3.0, size=4)
        decoy = Dataset(rng.uniform(1.0, 8.0, size=(n, 3)), rng.uniform(1.0, 8.0, size=(n, 2)))
    return model, p_star, craft_denial(model, p_star, decoy, seed=4, inner_variant=variant)


def _bits(value):
    """``value`` with each float replaced by its float64 bit pattern and each other scalar typed."""
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_bits(item) for item in value]
    if isinstance(value, float):
        return struct.pack("<d", value)
    return type(value), value


def reference_write_compact(write, value):
    """The certificate writer before blocks: one key, scalar, flat list or matrix row per call."""
    if isinstance(value, dict):
        write(b"{")
        for i, (key, item) in enumerate(value.items()):
            write((b"," if i else b"") + orjson.dumps(key) + b":")
            reference_write_compact(write, item)
        write(b"}")
    elif (isinstance(value, (list, np.ndarray)) and len(value)
          and isinstance(value[0], (list, dict, np.ndarray))):
        write(b"[")
        for i, item in enumerate(value):
            if i:
                write(b",")
            reference_write_compact(write, item)
        write(b"]")
    else:
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)
        write(orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY))


def _fortran_ordered(cert):
    """``cert`` with its decoy and residual held in Fortran order."""
    decoy = Dataset(*(np.asfortranarray(a) for a in (cert.decoy.inputs, cert.decoy.responses)))
    return dataclasses.replace(cert, decoy=decoy, residual=np.asfortranarray(cert.residual))


def _small_certificate(seed, n, outputs, variant):
    """A certificate for a two-parameter model, craftable at any n >= 3."""
    rng = np.random.default_rng(seed)
    model = linear_regression_model(1) if outputs == 1 else two_output_linear_model(1)
    decoy = Dataset(rng.uniform(1.0, 8.0, size=(n, 1)), rng.uniform(1.0, 8.0, size=(n, outputs)))
    return craft_denial(model, rng.uniform(-3.0, 3.0, size=2), decoy, seed=seed, inner_variant=variant)


def _with_norms(cert, **changes):
    """``cert`` with each norm's field ``key`` replaced by ``changes[key](norm)``."""
    return dataclasses.replace(cert, norms=tuple(
        dataclasses.replace(nm, **{key: change(nm) for key, change in changes.items()})
        for nm in cert.norms))


def _with_descriptor(cert, **entries):
    return dataclasses.replace(cert, model_descriptor=dict(cert.model_descriptor, **entries))


# Edits of a crafted certificate: those in REFUSED_EDITS must not construct.
EDITS = {
    "none": lambda cert: cert,
    "largest_seed": lambda cert: dataclasses.replace(cert, seed=2 ** 64 - 1),
    "doubled_residual": lambda cert: dataclasses.replace(cert, residual=2.0 * cert.residual),
    "renamed_family": lambda cert: _with_descriptor(cert, family="renamed"),
    "smaller_alpha": lambda cert: _with_norms(cert, alpha=lambda nm: 0.5 * nm.alpha),
    "note": lambda cert: _with_descriptor(cert, note="x"),
    "dimension_beyond_64_bits": lambda cert: _with_descriptor(cert, input_dim=2 ** 64),
    "nan_family": lambda cert: _with_descriptor(cert, family=math.nan),
    "float_dimension": lambda cert: _with_descriptor(cert, param_dim=2.0),
    "alpha_above_b": lambda cert: _with_norms(cert, alpha=lambda nm: 3.0 * nm.alpha),
    "w1_orthogonal_to_e": lambda cert: _with_norms(
        cert, w1=lambda nm: nm.b_rows[0] / np.abs(nm.b_rows[0]).sum()),
    "nan_alpha": lambda cert: _with_norms(cert, alpha=lambda nm: math.nan),
}
REFUSED_EDITS = {"note", "dimension_beyond_64_bits", "nan_family", "float_dimension",
                 "alpha_above_b", "w1_orthogonal_to_e", "nan_alpha"}


class TestCertificateWriting:
    @pytest.mark.parametrize("edit", sorted(EDITS))
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 40), outputs=st.sampled_from([1, 2]),
           variant=st.sampled_from(["euclidean", "one_norm"]))
    def test_every_certificate_that_constructs_loads_back(self, edit, seed, n, outputs, variant):
        cert = _small_certificate(seed, n, outputs, variant)
        try:
            edited = EDITS[edit](cert)
        except InvalidArguments:
            assert edit in REFUSED_EDITS
            return
        assert edit not in REFUSED_EDITS
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cert.json")
            edited.to_json(path)
            assert _bits(DenialCertificate.from_json(path).to_dict()) == _bits(edited.to_dict())

    @pytest.mark.parametrize("variant", ["euclidean", "one_norm"])
    @pytest.mark.parametrize("outputs", [1, 2])
    @pytest.mark.parametrize("n", [10, 200])
    def test_file_is_compact_json_of_to_dict(self, rng, tmp_path, variant, outputs, n):
        _, _, cert = _certificate(rng, outputs, n, variant)
        path = tmp_path / "cert.json"
        cert.to_json(path)
        text = path.read_bytes()
        expected = _bits(cert.to_dict())
        assert _bits(json.loads(text)) == expected
        assert _bits(orjson.loads(text)) == expected
        assert text.endswith(b"\n")
        assert not re.search(rb"\s", text[:-1])

    def test_fortran_ordered_arrays_are_written(self, rng, tmp_path):
        _, _, cert = _certificate(rng, 2, 10, "euclidean")
        clone = _fortran_ordered(cert)
        assert not clone.residual.flags.c_contiguous
        path = tmp_path / "cert.json"
        clone.to_json(path)
        assert _bits(json.loads(path.read_bytes())) == _bits(cert.to_dict())

    @pytest.mark.parametrize("variant", ["euclidean", "one_norm"])
    @pytest.mark.parametrize("outputs", [1, 2])
    @pytest.mark.parametrize("indent", [None, 2])
    def test_files_of_earlier_writers_load(self, rng, tmp_path, variant, outputs, indent):
        # Earlier versions wrote the stdlib's compact text, and before that indent=2.
        _, _, cert = _certificate(rng, outputs, 40, variant)
        path = tmp_path / "cert.json"
        with open(path, "w") as fh:
            json.dump(cert.to_dict(), fh, indent=indent, separators=None if indent else (",", ":"))
            fh.write("\n")
        assert _bits(DenialCertificate.from_json(path).to_dict()) == _bits(cert.to_dict())

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

    def test_failed_write_keeps_the_old_file(self, rng, tmp_path, monkeypatch):
        _, _, cert = _certificate(rng, 1, 10, "euclidean")
        path = tmp_path / "cert.json"
        path.write_bytes(b"x" * 100_000)
        cert.to_json(str(path))
        old = path.read_bytes()
        assert old == orjson.dumps(cert.to_dict()) + b"\n"

        def disk_full(write, value, orjson):
            write(b'{"schema":')  # the start of the text reaches the file
            raise OSError(errno.ENOSPC, "No space left on device")

        # Every certificate that constructs can be encoded, so the disk fails the write midway.
        monkeypatch.setattr(deniability, "_write_compact", disk_full)
        with pytest.raises(OSError):
            dataclasses.replace(cert, seed=2).to_json(path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]

    def test_write_streams_instead_of_building_the_text(self, rng, tmp_path):
        # A writer that builds the whole text holds at least the file's size (one
        # orjson.dumps of the n=200 certificate peaks near 2.2x); one block at a
        # time stays near 0.3x.
        _, _, cert = _certificate(rng, 1, 200, "euclidean")
        tracemalloc.start()
        try:
            cert.to_json(tmp_path / "cert.json")
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert write_peak < 0.5 * (tmp_path / "cert.json").stat().st_size

    @pytest.mark.parametrize("variant", ["euclidean", "one_norm"])
    @pytest.mark.parametrize("outputs", [1, 2])
    @pytest.mark.parametrize("n", [10, 20, 130, 320])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_file_bytes_match_the_row_by_row_writer(self, rng, tmp_path, variant, outputs, n,
                                                    order):
        _, _, cert = _certificate(rng, outputs, n, variant)
        if order == "F":
            cert = _fortran_ordered(cert)
        path = tmp_path / "cert.json"
        cert.to_json(path)
        expected = []
        reference_write_compact(expected.append, cert._fields())
        assert path.read_bytes() == b"".join(expected) + b"\n"

    @pytest.mark.parametrize("block", [1, 5, 11, 40])
    def test_block_boundaries_do_not_change_the_bytes(self, rng, tmp_path, monkeypatch, block):
        # From a BLOCK narrower than a row (one row per block) to several rows per block,
        # with a shorter last block.
        _, _, cert = _certificate(rng, 2, 10, "one_norm")
        monkeypatch.setattr(deniability, "BLOCK", block)
        path = tmp_path / "cert.json"
        cert.to_json(path)
        expected = []
        reference_write_compact(expected.append, cert._fields())
        assert path.read_bytes() == b"".join(expected) + b"\n"

    @pytest.mark.parametrize("array", [
        np.zeros((3, 0)), np.zeros((0, 3)), np.zeros(0), np.arange(8.0).reshape(2, 2, 2),
        np.float64(1.5), np.asfortranarray(np.arange(15.0).reshape(5, 3)),
    ], ids=["no-columns", "no-rows", "empty-vector", "3-d", "scalar", "fortran"])
    def test_edge_shapes_match_one_dumps(self, monkeypatch, array):
        monkeypatch.setattr(deniability, "BLOCK", 2)

        def payload(a):
            return {"a": a, "b": [a, {"c": a}], "d": []}

        written = []
        deniability._write_compact(written.append, payload(array), orjson)
        c_ordered = np.ascontiguousarray(array) if isinstance(array, np.ndarray) else array
        assert b"".join(written) == orjson.dumps(payload(c_ordered),
                                                 option=orjson.OPT_SERIALIZE_NUMPY)

    @pytest.mark.parametrize("n", [320, 640])
    def test_write_memory_is_bounded_whatever_the_size(self, rng, tmp_path, n):
        # One block of text at a time: a one-shot dump of the n=320 file alone is 2.3 MB.
        _, _, cert = _certificate(rng, 1, n, "euclidean")
        tracemalloc.start()
        try:
            cert.to_json(tmp_path / "cert.json")
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "cert.json").stat().st_size > 2_000_000
        assert write_peak < 1_000_000


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
        assert np.max(np.abs(result.params - p_star)) <= 1e-9   # solved, not searched

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

    @pytest.mark.parametrize("d, n", [(6, 6), (6, 4), (2, 1)])
    def test_no_more_records_than_parameters_refused(self, d, n, monkeypatch):
        monkeypatch.setattr(deniability, "generate_decoy", _no_decoy_draws)
        with pytest.raises(InvalidArguments, match=f"n={n}, d={d}"):
            run_denial_trial(d=d, n=n, seed=0)

    def test_one_record_more_than_parameters_crafts(self):
        result = run_denial_trial(d=3, n=4, seed=0)
        assert result.craft_attempts >= 1

    def test_honest_fit_is_least_squares_at_d20(self):
        # Nelder-Mead stopped 3.5 from this minimizer; the affine step lands on it.
        d, n, seed, index = 20, 60, 0, 1
        result = run_denial_trial(d=d, n=n, seed=seed, index=index)
        trial_seed = deniability.derive_seed(seed, "trial", index)
        p_true = substream(trial_seed, "model").uniform(-6.0, 6.0, size=d)
        X = substream(trial_seed, "train-inputs").integers(1, 9, size=(n, d - 1)).astype(float)
        noise = substream(trial_seed, "train-noise").exponential(1.0 / 5.0, size=n)
        A = np.column_stack([np.ones(n), X])
        expected = np.linalg.lstsq(A, A @ p_true + noise, rcond=None)[0]
        assert np.max(np.abs(result.p_star - expected)) <= 1e-9

    def test_substreams_are_independent(self):
        a = substream(5, "decoy").standard_normal(4)
        b = substream(5, "w1").standard_normal(4)
        c = substream(5, "decoy").standard_normal(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


class TestSeeds:
    # Each entry point draws through derive_seed, which takes an int in [0, 2**64) only.
    ENTRY_POINTS = {
        "substream": lambda seed: substream(seed, "decoy"),
        "generate_decoy": lambda seed: generate_decoy(
            DistributionSpec.uniform_ints(1, 8, 2), DistributionSpec.uniform_ints(1, 8, 1), 5, seed=seed
        ),
        "adversary_recover": lambda seed: adversary_recover(
            linear_regression_model(2), np.ones(3), 5, seed=seed
        ),
        "run_denial_trial": lambda seed: run_denial_trial(d=3, n=6, seed=seed),
    }

    @pytest.mark.parametrize("seed", [None, 1.5, "1", True, -1, 2 ** 64, np.int64(1)],
                             ids=["None", "1.5", "str", "True", "-1", "2**64", "int64"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_seed_outside_the_range_refused(self, entry, seed):
        with pytest.raises(InvalidArguments, match="seed must be an integer"):
            self.ENTRY_POINTS[entry](seed)

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
    def test_seed_is_hashed_as_given(self, seed):
        material = repr((seed, "trial", "3")).encode()
        expected = int.from_bytes(hashlib.sha256(material).digest()[:8], "big") >> 1
        assert deniability.derive_seed(seed, "trial", 3) == expected
