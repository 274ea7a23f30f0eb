
import dataclasses

import numpy as np
import pytest

from stealthgame.model import (
    PosteriorKernel,
    StatePriorSpec,
    as_profile,
    attacked_cov,
    build_model,
    calibrate_noise,
    kernel_gain,
    toeplitz_cov,
)

from _helpers import (
    chain_model,
    clean_cov,
    ieee9_model_at,
    kernel_gains,
    low_redundancy_model,
    mp_gains,
    mp_inv_diag,
    random_desk_model,
    random_profile,
)


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

    @pytest.mark.parametrize("n", [True, False, 2.5, 3.0, "3"])
    def test_state_dimension_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            StatePriorSpec(n, 0.5)

    @pytest.mark.parametrize("n", [0, -2])
    def test_state_dimension_must_be_positive(self, n):
        with pytest.raises(ValueError, match=f"state dimension must be positive, got {n}"):
            StatePriorSpec(n, 0.5)

    @pytest.mark.parametrize("rho", [True, False, np.False_, "0.5", None])
    def test_rho_must_be_a_real_number(self, rho):
        with pytest.raises(ValueError, match="rho must be a real number"):
            StatePriorSpec(3, rho)

    def test_numpy_integer_state_dimension_accepted(self):
        np.testing.assert_allclose(
            toeplitz_cov(StatePriorSpec(np.int64(2), 0.9)), [[1.0, 0.9], [0.9, 1.0]]
        )

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
            rebuilt = build_model(model.H, model.Sigma_XX, sigma2)
            assert rebuilt.snr_db() == pytest.approx(target, abs=1e-9)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            calibrate_noise([[0.0]], [[1.0]], 10.0)


class TestBuildModel:
    def test_scalar(self, scalar_model):
        np.testing.assert_allclose(clean_cov(scalar_model).Sigma_YY, [[2.0]])

    def test_two_measurements_one_state(self):
        model = build_model([[1.0], [1.0]], [[1.0]], 1.0)
        np.testing.assert_allclose(clean_cov(model).Sigma_YY, [[2.0, 1.0], [1.0, 2.0]])

    def test_sigma_yy_identity_holds(self, rng):
        for _ in range(10):
            model = random_desk_model(rng)
            expected = model.H @ model.Sigma_XX @ model.H.T + model.sigma2 * np.eye(
                model.m
            )
            np.testing.assert_allclose(clean_cov(model).Sigma_YY, expected, rtol=1e-12)

    def test_signal_part_is_psd(self, rng):
        for _ in range(10):
            model = random_desk_model(rng)
            diff = clean_cov(model).Sigma_YY - model.sigma2 * np.eye(model.m)
            assert np.linalg.eigvalsh(diff)[0] >= -1e-12

    def test_min_eigenvalue_at_least_noise(self, rng):
        for _ in range(10):
            model = random_desk_model(rng)
            Sigma_YY = clean_cov(model).Sigma_YY
            assert np.linalg.eigvalsh(Sigma_YY)[0] >= model.sigma2 - 1e-12

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

    def test_model_keeps_no_m_by_m_array(self):
        # Sigma_YY and its factor are formed where they are read; a model
        # keeps only O(m n) arrays (n = 59 < m = 149 here).
        model = chain_model(60, 30.0)
        assert model.m == 149
        for f in dataclasses.fields(model):
            value = getattr(model, f.name)
            if isinstance(value, np.ndarray):
                assert value.size < model.m**2, f.name

    def test_cached_diagonals(self, ring3_model):
        Sigma_YY = clean_cov(ring3_model).Sigma_YY
        np.testing.assert_allclose(ring3_model.s, np.diag(Sigma_YY))
        np.testing.assert_allclose(
            ring3_model.c, ring3_model.s - ring3_model.sigma2
        )
        inv = np.linalg.inv(Sigma_YY)
        beta = 1.0 / (ring3_model.sigma2 + ring3_model.gain0)
        np.testing.assert_allclose(beta, np.diag(inv), rtol=1e-10)

    def test_inv_diag_matches_50_digit_inverse(self):
        # diag((sigma2 I + B B^T)^{-1}) at 50 digits, from 10 to 70 dB.
        for snr in (10.0, 30.0, 50.0, 70.0):
            model = ieee9_model_at(snr)
            beta = 1.0 / (model.sigma2 + model.gain0)
            np.testing.assert_allclose(beta, mp_inv_diag(model), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("shape", ["identity", "square", "wide", "critical"])
    def test_inv_diag_matches_50_digit_inverse_without_redundancy(self, shape):
        # Here gamma_i(0) is of signal size, so 1 - w_i q_i is about
        # 1 / SNR and gain0 comes from the cancellation-free form.
        for snr in (60.0, 70.0, 80.0):
            model = low_redundancy_model(shape, snr)
            beta = 1.0 / (model.sigma2 + model.gain0)
            np.testing.assert_allclose(beta, mp_inv_diag(model), rtol=1e-14, atol=0)

    def test_inv_diag_keeps_its_digits_when_gain0_loses_them(self):
        # A square H at sigma2 = 1e-13, where q / (1 - w_i q) would be
        # about 5e-3 off gamma_i(0).
        H = np.random.default_rng(0).standard_normal((5, 5))
        model = build_model(H, toeplitz_cov(StatePriorSpec(5, 0.5)), 1e-13)
        beta = 1.0 / (model.sigma2 + model.gain0)
        np.testing.assert_allclose(beta, mp_inv_diag(model), rtol=1e-14, atol=0)

    @pytest.mark.parametrize(
        "seed, sigma2", [(0, 1e-16), (1, 1e-15), (0, 1e-14)]
    )
    def test_gain0_keeps_its_digits_at_tiny_noise(self, seed, sigma2):
        # A square H at tiny sigma2: Sigma_YY still factors, and rounding
        # in 1 - w_i q_i would leave q / (1 - w_i q) negative (1e-16),
        # infinite (1e-15) or 22% off (1e-14).
        H = np.random.default_rng(seed).standard_normal((5, 5))
        model = build_model(H, toeplitz_cov(StatePriorSpec(5, 0.5)), sigma2)
        np.testing.assert_allclose(
            model.gain0, mp_gains(model, np.zeros(5)), rtol=1e-14, atol=0
        )


class TestAttackedCov:
    def test_zero_profile(self, ring3_model):
        np.testing.assert_allclose(
            attacked_cov(ring3_model, np.zeros(6)), clean_cov(ring3_model).Sigma_YY
        )

    def test_scalar(self, scalar_model):
        np.testing.assert_allclose(attacked_cov(scalar_model, [3.0]), [[5.0]])

    def test_only_diagonal_changes(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        out = attacked_cov(ring3_model, v)
        Sigma_YY = clean_cov(ring3_model).Sigma_YY
        np.testing.assert_allclose(np.diag(out), np.diag(Sigma_YY) + v)
        off = out - np.diag(np.diag(out))
        base_off = Sigma_YY - np.diag(np.diag(Sigma_YY))
        np.testing.assert_allclose(off, base_off)

    def test_psd_dominance(self, ring3_model, rng):
        for _ in range(10):
            v = random_profile(rng, ring3_model)
            diff = attacked_cov(ring3_model, v) - clean_cov(ring3_model).Sigma_YY
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
            np.testing.assert_allclose(
                kernel_gains(kernel), kernel_gains(fresh), rtol=1e-10
            )

    def test_rank_one_term_is_the_outer_product_bit_for_bit(self, rng):
        # update forms (scale u) u^T by one BLAS product, not by
        # np.multiply.outer; each entry is one rounded product either way.
        for n in range(1, 121):
            H = rng.standard_normal((n + 5, n))
            model = build_model(H, toeplitz_cov(StatePriorSpec(n, 0.6)), 0.1)
            kernel = PosteriorKernel(model, rng.uniform(0.0, 2.0, model.m))
            for i in rng.permutation(model.m)[:3]:
                inv, v_old, w_old = kernel.inv.copy(), kernel.v[i], kernel.w[i]
                u, gamma = kernel_gain(model.B, kernel.w, kernel.inv, i)
                v_i = float(rng.uniform(0.0, 2.0))
                kernel.update(i, v_i)
                w_i = 1.0 / (model.sigma2 + v_i)
                delta = (v_old - v_i) * w_i * w_old
                before, after = 1.0 + w_old * gamma, 1.0 + w_i * gamma
                inv -= np.multiply.outer((delta * before / after) * u, u)
                assert kernel.inv.tobytes() == inv.tobytes(), (n, i)


def test_model_snr_roundtrip(ieee9_model):
    assert ieee9_model.snr_db() == pytest.approx(30.0, abs=1e-9)
    assert (ieee9_model.m, ieee9_model.n) == (18, 8)
