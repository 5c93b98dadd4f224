import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deniable_fit import (
    CraftedNorm,
    DimensionMismatch,
    EmptyInput,
    InvalidArguments,
    LengthMismatch,
    RejectionExhausted,
    VARIANT_EUCLIDEAN,
    VARIANT_ONE_NORM,
    crafted_norm_value,
    make_crafted_norm,
    mae_transform,
    nullspace_projector,
    pick_w1,
    LossSpec,
    seminorm_b,
)

from conftest import ForcedRng


def fixed_norm(variant=VARIANT_EUCLIDEAN):
    """The worked example: e = (1, 0), w1 = (1/2, 1/2), alpha = 1/4."""
    return make_crafted_norm([1.0, 0.0], seed=ForcedRng([[1.0, 1.0]]), inner_variant=variant)


class TestWorkedExample:
    def test_alpha_is_half_the_projected_w1(self):
        norm = fixed_norm()
        assert_allclose(norm.w1, [0.5, 0.5])
        assert norm.alpha == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("variant", [VARIANT_EUCLIDEAN, VARIANT_ONE_NORM])
    def test_value_at_3_4(self, variant):
        # 1.5 * 4 + 0.125 * 3.5 (the one-row projector makes both variants agree)
        norm = fixed_norm(variant)
        assert crafted_norm_value(norm, [3.0, 4.0]) == pytest.approx(6.4375, abs=1e-15)

    def test_mae_transform_matrix(self):
        C = mae_transform(fixed_norm(VARIANT_ONE_NORM))
        assert_allclose(np.abs(C), [[0.0, 1.5], [0.0625, 0.0625]], atol=1e-15)
        assert np.abs(C @ np.array([3.0, 4.0])).sum() == pytest.approx(6.4375, abs=1e-14)

    def test_mae_transform_requires_one_norm(self):
        from deniable_fit import VariantMismatch

        with pytest.raises(VariantMismatch):
            mae_transform(fixed_norm(VARIANT_EUCLIDEAN))


class TestPickW1:
    def test_deterministic_under_seed(self):
        e = np.array([0.3, -1.2, 4.0])
        B = nullspace_projector(e)
        assert_allclose(pick_w1(e, B, seed=11), pick_w1(e, B, seed=11))

    def test_orthogonal_candidate_rejected_then_resampled(self):
        e = np.array([1.0, 0.0])
        B = nullspace_projector(e)
        forced = ForcedRng([[0.0, 1.0], [1.0, 1.0]])
        w1 = pick_w1(e, B, seed=forced)
        assert forced.calls == 2
        assert_allclose(w1, [0.5, 0.5])

    def test_exhaustion(self):
        e = np.array([1.0, 0.0])
        B = nullspace_projector(e)
        with pytest.raises(RejectionExhausted):
            pick_w1(e, B, seed=ForcedRng([[0.0, 1.0]]))

    @pytest.mark.parametrize("seed", [None, -1, 2 ** 64, 1.5, True, np.int64(7)])
    def test_seed_that_is_not_a_64_bit_int_rejected(self, seed):
        # None used to draw from OS entropy, so the norm could not be crafted again.
        e = np.array([0.3, -1.2, 4.0])
        with pytest.raises(InvalidArguments, match="seed must be an integer"):
            pick_w1(e, nullspace_projector(e), seed=seed)
        with pytest.raises(InvalidArguments, match="seed must be an integer"):
            make_crafted_norm(e, seed=seed)

    def test_seed_is_required(self):
        e = np.array([0.3, -1.2, 4.0])
        with pytest.raises(TypeError):
            pick_w1(e, nullspace_projector(e))
        with pytest.raises(TypeError):
            make_crafted_norm(e)

    def test_unit_one_norm(self, rng):
        for _ in range(25):
            e = rng.normal(size=6)
            B = nullspace_projector(e)
            w1 = pick_w1(e, B, seed=int(rng.integers(0, 2**32)))
            assert np.abs(w1).sum() == pytest.approx(1.0, abs=1e-12)
            assert abs(e @ w1) > 1e-8 * np.linalg.norm(e)
            assert np.linalg.norm(B @ w1) > 1e-8


@pytest.mark.parametrize("variant", [VARIANT_EUCLIDEAN, VARIANT_ONE_NORM])
class TestNormAxioms:
    def _anchored_norm(self, rng, n, variant):
        e = rng.normal(size=n) * (1.0 + 9.0 * rng.random())
        return e, make_crafted_norm(e, seed=int(rng.integers(0, 2**32)), inner_variant=variant)

    def _norm(self, rng, n, variant):
        return self._anchored_norm(rng, n, variant)[1]

    def test_homogeneity_triangle_definiteness(self, rng, variant):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            norm = self._norm(rng, n, variant)
            for _ in range(100):
                x = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
                y = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
                lam = float(rng.normal() * 10.0 ** rng.integers(-2, 3))
                vx, vy = crafted_norm_value(norm, x), crafted_norm_value(norm, y)
                scale = max(vx, vy, 1.0)
                assert crafted_norm_value(norm, lam * x) == pytest.approx(
                    abs(lam) * vx, rel=1e-10, abs=1e-10 * scale * max(abs(lam), 1.0)
                )
                assert crafted_norm_value(norm, x + y) <= vx + vy + 1e-10 * scale
                if np.linalg.norm(x) > 1e-8:
                    assert vx > 0.0

    def test_kernel_of_b_is_exactly_the_anchor_span(self, rng, variant):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            e, norm = self._anchored_norm(rng, n, variant)
            e_norm = np.linalg.norm(e)
            for lam in range(-10, 11):
                assert seminorm_b(norm, lam * e) <= 1e-10 * abs(lam) * e_norm + 1e-14
                if lam != 0:
                    # the w1 term keeps the full norm positive on the anchor
                    expected = 0.5 * norm.alpha * abs(lam) * abs(e @ norm.w1)
                    assert crafted_norm_value(norm, lam * e) == pytest.approx(
                        expected, rel=1e-9
                    )
                    assert crafted_norm_value(norm, lam * e) > 0.0

    def test_alpha_strictly_below_b_on_anchor_direction(self, rng, variant):
        # alpha * ||(x.w1) w1||_1 < b(x) for x on span{w1}
        for _ in range(20):
            n = int(rng.integers(2, 9))
            norm = self._norm(rng, n, variant)
            for lam in (-3.0, -1.0, 0.5, 2.0, 10.0):
                x = lam * norm.w1
                proj_len = abs(x @ norm.w1) * np.abs(norm.w1).sum()
                assert norm.alpha * proj_len < seminorm_b(norm, x)


class TestValueEdges:
    def test_dimension_mismatch(self):
        norm = fixed_norm()
        with pytest.raises(DimensionMismatch):
            crafted_norm_value(norm, [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            seminorm_b(norm, [1.0])

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_exact_scaling(self, lam):
        norm = fixed_norm()
        base = crafted_norm_value(norm, [3.0, 4.0])
        assert crafted_norm_value(norm, [3.0 * lam, 4.0 * lam]) == pytest.approx(
            abs(lam) * base, rel=1e-12, abs=1e-12
        )


class TestMaeReduction:
    def test_matches_crafted_value_on_random_vectors(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            e = rng.normal(size=n) * 5.0
            norm = make_crafted_norm(e, seed=int(rng.integers(0, 2**32)),
                                     inner_variant=VARIANT_ONE_NORM)
            C = mae_transform(norm)
            assert C.shape == (n, n)
            for _ in range(20):
                x = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
                expected = crafted_norm_value(norm, x)
                assert np.abs(C @ x).sum() == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_mae_of_transformed_anchor(self, rng):
        e = rng.normal(size=7)
        norm = make_crafted_norm(e, seed=3, inner_variant=VARIANT_ONE_NORM)
        C = mae_transform(norm)
        mae = np.abs(C @ e).mean()
        assert mae == pytest.approx(crafted_norm_value(norm, e) / 7, rel=1e-12)


class TestMatrixNorm:
    def test_equals_per_column_sum(self, rng):
        norms = []
        E = rng.normal(size=(5, 3)) * 4.0
        for j in range(3):
            anchor = rng.normal(size=5)
            norms.append(make_crafted_norm(anchor, seed=j))
        total = LossSpec.crafted_matrix(norms).evaluate(E)
        by_hand = sum(crafted_norm_value(norms[j], E[:, j]) for j in range(3))
        assert total == pytest.approx(by_hand, rel=1e-14)

    def test_length_mismatch(self, rng):
        norms = [make_crafted_norm(rng.normal(size=5), seed=0)]
        with pytest.raises(LengthMismatch):
            LossSpec.crafted_matrix(norms).evaluate(rng.normal(size=(5, 2)))

    def test_column_dimension_mismatch(self, rng):
        norms = [make_crafted_norm(rng.normal(size=4), seed=0)]
        with pytest.raises(DimensionMismatch):
            LossSpec.crafted_matrix(norms).evaluate(rng.normal(size=(5, 1)))


class TestStandardMetrics:
    """The two-norm, the one standard loss: what the honest fit minimizes."""

    def test_textbook_values(self):
        assert LossSpec.two_norm().evaluate(np.array([3.0, 4.0]) - np.zeros(2)) == 5.0
        assert LossSpec.two_norm().evaluate(np.array([1.0, 2.0])) == pytest.approx(np.sqrt(5.0))

    def test_matches_numpy(self, rng):
        y, y_hat = rng.normal(size=25), rng.normal(size=25)
        assert LossSpec.two_norm().evaluate(y - y_hat) == pytest.approx(
            np.sqrt(np.sum((y - y_hat) ** 2)), rel=1e-14
        )

    def test_errors(self):
        with pytest.raises(EmptyInput):
            LossSpec.two_norm().evaluate([])
        with pytest.raises(InvalidArguments):
            LossSpec("huber").evaluate([1.0])


class TestConstruction:
    def test_b_rows_shape_checked(self):
        norm = fixed_norm()
        with pytest.raises(DimensionMismatch):
            CraftedNorm(b_rows=norm.b_rows.T, w1=norm.w1, alpha=norm.alpha)
        with pytest.raises(DimensionMismatch):
            CraftedNorm(b_rows=norm.b_rows, w1=[0.25, 0.25, 0.5], alpha=norm.alpha)

    def test_fields_are_readonly_c_arrays(self):
        B = np.asfortranarray(nullspace_projector([1.0, 2.0, 3.0]))
        norm = CraftedNorm(b_rows=B, w1=[0.5, 0.25, 0.25], alpha=0.1)
        assert norm.b_rows.flags.c_contiguous
        with pytest.raises(ValueError):
            norm.b_rows[0, 0] = 7.0
        with pytest.raises(ValueError):
            norm.w1[0] = 7.0

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidArguments, match="unknown inner-norm variant"):
            make_crafted_norm([1.0, 2.0, 3.0], seed=0, inner_variant="huber")

    def test_validate_checks_against_the_given_anchor(self):
        norm = fixed_norm()  # anchored on e = (1, 0), w1 = (1/2, 1/2)
        norm.validate([1.0, 0.0])
        with pytest.raises(InvalidArguments):
            norm.validate([1.0, -1.0])  # orthogonal to w1
