
import numpy as np
import pytest

from stealthgame.model import (
    PosteriorKernel,
    StatePriorSpec,
    as_profile,
    attacked_cov,
    build_model,
    calibrate_noise,
    snr_db,
    toeplitz_cov,
)

from _helpers import random_desk_model, random_profile


class TestToeplitzCov:
    def test_rho_zero_is_identity(self):
        np.testing.assert_allclose(toeplitz_cov(StatePriorSpec(3, 0.0)), np.eye(3))

    def test_rho_point_nine(self):
        np.testing.assert_allclose(
            toeplitz_cov(StatePriorSpec(2, 0.9)), [[1.0, 0.9], [0.9, 1.0]]
        )

    def test_first_row_powers(self):
        np.testing.assert_allclose(
            toeplitz_cov(StatePriorSpec(3, 0.5))[0], [1.0, 0.5, 0.25]
        )

    @pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
    def test_rho_out_of_range(self, rho):
        with pytest.raises(ValueError):
            StatePriorSpec(3, rho)

    def test_positive_definite_for_valid_rho(self, rng):
        for _ in range(10):
            spec = StatePriorSpec(int(rng.integers(1, 9)), float(rng.uniform(0, 0.99)))
            assert np.linalg.eigvalsh(toeplitz_cov(spec))[0] > 0


class TestCalibrateNoise:
    def test_zero_db_unit_system(self):
        assert calibrate_noise([[1.0]], [[1.0]], 0.0) == pytest.approx(1.0)

    def test_thirty_db_identity_pair(self):
        assert calibrate_noise(np.eye(2), np.eye(2), 30.0) == pytest.approx(1e-3)

    def test_ten_db_scaled(self):
        # tr = 4, m = 1, 4 / 10^(10/10) = 0.4
        assert calibrate_noise([[2.0]], [[1.0]], 10.0) == pytest.approx(0.4)

    def test_roundtrip_with_snr_db(self, rng):
        for _ in range(10):
            model = random_desk_model(rng)
            target = float(rng.uniform(-10, 40))
            sigma2 = calibrate_noise(model.H, model.Sigma_XX, target)
            assert snr_db(model.H, model.Sigma_XX, sigma2) == pytest.approx(
                target, abs=1e-9
            )

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            calibrate_noise([[0.0]], [[1.0]], 10.0)


class TestBuildModel:
    def test_scalar(self, scalar_model):
        np.testing.assert_allclose(scalar_model.Sigma_YY, [[2.0]])

    def test_two_measurements_one_state(self):
        model = build_model([[1.0], [1.0]], [[1.0]], 1.0)
        np.testing.assert_allclose(model.Sigma_YY, [[2.0, 1.0], [1.0, 2.0]])

    def test_sigma_yy_identity_holds(self, rng):
        for _ in range(10):
            model = random_desk_model(rng)
            expected = model.H @ model.Sigma_XX @ model.H.T + model.sigma2 * np.eye(
                model.m
            )
            np.testing.assert_allclose(model.Sigma_YY, expected, rtol=1e-12)

    def test_signal_part_is_psd(self, rng):
        for _ in range(10):
            model = random_desk_model(rng)
            diff = model.Sigma_YY - model.sigma2 * np.eye(model.m)
            assert np.linalg.eigvalsh(diff)[0] >= -1e-12

    def test_min_eigenvalue_at_least_noise(self, rng):
        for _ in range(10):
            model = random_desk_model(rng)
            assert np.linalg.eigvalsh(model.Sigma_YY)[0] >= model.sigma2 - 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="Sigma_XX shape"):
            build_model(np.ones((3, 2)), np.eye(3), 1.0)

    def test_nonpositive_noise(self):
        with pytest.raises(ValueError, match="sigma2"):
            build_model([[1.0]], [[1.0]], 0.0)

    def test_non_psd_prior(self):
        with pytest.raises(ValueError, match="PSD"):
            build_model(np.eye(2), [[1.0, 2.0], [2.0, 1.0]], 1.0)

    def test_asymmetric_prior(self):
        with pytest.raises(ValueError, match="symmetric"):
            build_model(np.eye(2), [[1.0, 0.5], [0.2, 1.0]], 1.0)

    def test_cached_diagonals(self, ring3_model):
        np.testing.assert_allclose(ring3_model.s, np.diag(ring3_model.Sigma_YY))
        np.testing.assert_allclose(
            ring3_model.c, ring3_model.s - ring3_model.sigma2
        )
        inv = np.linalg.inv(ring3_model.Sigma_YY)
        np.testing.assert_allclose(ring3_model.inv_diag_YY, np.diag(inv), rtol=1e-10)


class TestAttackedCov:
    def test_zero_profile(self, ring3_model):
        np.testing.assert_allclose(
            attacked_cov(ring3_model, np.zeros(6)), ring3_model.Sigma_YY
        )

    def test_scalar(self, scalar_model):
        np.testing.assert_allclose(attacked_cov(scalar_model, [3.0]), [[5.0]])

    def test_only_diagonal_changes(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        out = attacked_cov(ring3_model, v)
        np.testing.assert_allclose(np.diag(out), np.diag(ring3_model.Sigma_YY) + v)
        off = out - np.diag(np.diag(out))
        base_off = ring3_model.Sigma_YY - np.diag(np.diag(ring3_model.Sigma_YY))
        np.testing.assert_allclose(off, base_off)

    def test_psd_dominance(self, ring3_model, rng):
        for _ in range(10):
            v = random_profile(rng, ring3_model)
            diff = attacked_cov(ring3_model, v) - ring3_model.Sigma_YY
            assert np.linalg.eigvalsh(diff)[0] >= -1e-12

    def test_length_mismatch(self, ring3_model):
        with pytest.raises(ValueError, match="length"):
            attacked_cov(ring3_model, [1.0, 2.0])

    def test_negative_variance(self, ring3_model):
        with pytest.raises(ValueError, match="nonnegative"):
            attacked_cov(ring3_model, [-1.0, 0, 0, 0, 0, 0])


class TestAsProfile:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, ring3_model, bad):
        v = np.ones(6)
        v[2] = bad
        with pytest.raises(ValueError, match="finite"):
            as_profile(ring3_model, v)


class TestPosteriorKernel:
    def test_rank_one_updates_match_refactor(self, rng):
        for _ in range(10):
            model = random_desk_model(rng)
            kernel = PosteriorKernel(model, random_profile(rng, model))
            for _ in range(3 * model.m):
                i = int(rng.integers(0, model.m))
                kernel.update(i, float(rng.uniform(0.0, 5.0)))
            fresh = PosteriorKernel(model, kernel.v)
            np.testing.assert_allclose(kernel.inv, fresh.inv, rtol=1e-10, atol=1e-13)
            assert kernel.logdet == pytest.approx(fresh.logdet, rel=1e-12)
            np.testing.assert_allclose(kernel.gains(), fresh.gains(), rtol=1e-10)


def test_model_snr_roundtrip(ieee9_model):
    assert ieee9_model.snr_db() == pytest.approx(30.0, abs=1e-9)
    assert (ieee9_model.m, ieee9_model.n) == (18, 8)
