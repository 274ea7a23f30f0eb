import math

import numpy as np
import pytest

import stealthgame.detection as detection
from stealthgame.detection import (
    SAMPLE_CHUNK_ROWS,
    error_curve,
    llr_joint,
    llr_local,
    llr_samples,
    rank_auc,
    roc_auc,
    sample_observations,
)
from stealthgame.metrics import kl_global, kl_local
from stealthgame.model import attacked_cov

from _helpers import oracle_rank_auc, random_profile


class TestSampleObservations:
    def test_sample_covariance_matches(self, ring3_model):
        obs = sample_observations(ring3_model, np.zeros(6), 100_000, 1, attacked=False)
        sample_cov = obs.T @ obs / obs.shape[0]
        rel = np.linalg.norm(sample_cov - ring3_model.Sigma_YY) / np.linalg.norm(
            ring3_model.Sigma_YY
        )
        assert rel < 0.05

    def test_seed_repeat_is_identical(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        first = sample_observations(ring3_model, v, 500, 9, attacked=True)
        second = sample_observations(ring3_model, v, 500, 9, attacked=True)
        np.testing.assert_array_equal(first, second)

    def test_attack_inflates_diagonal_variance(self, ring3_model):
        v = np.array([4.0, 0.0, 0.0, 2.0, 0.0, 0.0])
        obs = sample_observations(ring3_model, v, 200_000, 3, attacked=True)
        sample_var = obs.var(axis=0)
        expected = np.diag(attacked_cov(ring3_model, v))
        np.testing.assert_allclose(sample_var, expected, rtol=0.05)

    def test_sample_count_validated(self, ring3_model):
        with pytest.raises(ValueError, match="n_samples"):
            sample_observations(ring3_model, np.zeros(6), 0, 1, attacked=False)


class TestSamplingConvention:
    """Row k of a draw is L z_k, L the lower Cholesky factor, z_k standard
    normal from the seeded generator."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_clean_draw_uses_cached_cholesky(self, ieee9_model, seed):
        model = ieee9_model
        obs = sample_observations(model, np.zeros(model.m), 300, seed, attacked=False)
        expected = np.random.default_rng(seed).standard_normal((300, model.m))
        np.testing.assert_array_equal(obs, expected @ model.chol_YY.T)

    def test_attacked_draw_at_zero_profile_equals_clean(self, ieee9_model):
        v = np.zeros(ieee9_model.m)
        clean = sample_observations(ieee9_model, v, 300, 4, attacked=False)
        attacked = sample_observations(ieee9_model, v, 300, 4, attacked=True)
        np.testing.assert_array_equal(attacked, clean)

    def test_attacked_draw_uses_attacked_cholesky(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        obs = sample_observations(ring3_model, v, 300, 5, attacked=True)
        chol = np.linalg.cholesky(attacked_cov(ring3_model, v))
        expected = np.random.default_rng(5).standard_normal((300, 6)) @ chol.T
        np.testing.assert_array_equal(obs, expected)


class TestLlrJoint:
    def test_zero_profile_gives_zero_everywhere(self, ring3_model, rng):
        y = rng.standard_normal(6)
        assert llr_joint(ring3_model, np.zeros(6), y) == 0.0

    def test_zero_observation_is_log_det_ratio(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        value = llr_joint(ring3_model, v, np.zeros(6))
        sign, logdet_a = np.linalg.slogdet(attacked_cov(ring3_model, v))
        expected = 0.5 * (ring3_model.logdet_YY - logdet_a)
        assert value == pytest.approx(expected, rel=1e-10)
        assert value <= 0.0

    def test_mean_over_attacked_samples_estimates_kl(self, ring3_model, rng):
        v = random_profile(rng, ring3_model, scale=1.0)
        _, llr_attacked = llr_samples(ring3_model, v, 100_000, seed=17)
        se = llr_attacked.std(ddof=1) / math.sqrt(llr_attacked.size)
        assert abs(llr_attacked.mean() - kl_global(ring3_model, v)) <= 3.0 * se

    def test_batch_matches_scalar(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        Y = rng.standard_normal((4, 6))
        batch = llr_joint(ring3_model, v, Y)
        for k in range(4):
            assert batch[k] == pytest.approx(llr_joint(ring3_model, v, Y[k]))


class TestWhitenedLlrSamples:
    """llr_samples draws (1/2) sum_k w_k z_k^2 - (1/2) sum_k log1p(kappa_k),
    w = kappa / (1 + kappa) (clean) or kappa (attacked)."""

    @staticmethod
    def spectrum(model, v):
        """kappa and eigenvectors of F F^T, F = L^{-1} diag(sqrt(v)), by eigh."""
        F = np.linalg.inv(model.chol_YY) * np.sqrt(v)
        kappa, U = np.linalg.eigh(F @ F.T)
        return np.clip(kappa, 0.0, None), U

    @staticmethod
    def weighted_squares(kappa, Z, attacked):
        weights = kappa if attacked else kappa / (1.0 + kappa)
        return 0.5 * (Z**2 @ weights) - 0.5 * np.sum(np.log1p(kappa))

    @pytest.mark.parametrize("attacked", [False, True])
    @pytest.mark.parametrize("name", ["ring3_model", "ieee9_model"])
    def test_llr_joint_of_whitened_observations(self, request, rng, name, attacked):
        model = request.getfixturevalue(name)
        v = random_profile(rng, model)
        kappa, U = self.spectrum(model, v)
        Z = rng.standard_normal((200, model.m))
        scale = np.sqrt(1.0 + kappa) if attacked else np.ones(model.m)
        Y = (Z * scale) @ (model.chol_YY @ U).T
        expected = self.weighted_squares(kappa, Z, attacked)
        err = np.max(np.abs(llr_joint(model, v, Y) - expected))
        assert err <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name", ["ring3_model", "ieee9_model"])
    def test_samples_are_weighted_squares_of_child_draws(self, request, rng, name):
        model = request.getfixturevalue(name)
        v = random_profile(rng, model)
        kappa, _ = self.spectrum(model, v)
        children = np.random.SeedSequence(3).spawn(2)
        for values, child, attacked in zip(
            llr_samples(model, v, 500, 3), children, (False, True)
        ):
            Z = np.random.default_rng(child).standard_normal((500, model.m))
            expected = self.weighted_squares(kappa, Z, attacked)
            err = np.max(np.abs(values - expected))
            assert err <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name", ["ring3_model", "ieee9_model"])
    def test_closed_form_mean_is_kl_global(self, request, rng, name):
        model = request.getfixturevalue(name)
        v = random_profile(rng, model)
        kappa = detection._whitened_spectrum(model, v)
        mean = 0.5 * np.sum(kappa) - 0.5 * np.sum(np.log1p(kappa))
        assert mean == pytest.approx(kl_global(model, v), rel=1e-12, abs=0.0)

    def test_zero_profile_gives_zero_everywhere(self, ieee9_model):
        for values in llr_samples(ieee9_model, np.zeros(ieee9_model.m), 1_000, 2):
            np.testing.assert_array_equal(values, np.zeros(1_000))
            assert not np.any(np.signbit(values))

    def test_prefix_consistency_across_chunks(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        k = SAMPLE_CHUNK_ROWS + 3
        short = llr_samples(ring3_model, v, k, 8)
        long = llr_samples(ring3_model, v, 2 * SAMPLE_CHUNK_ROWS + 5, 8)
        for head, full in zip(short, long):
            np.testing.assert_array_equal(head, full[:k])

    def test_sample_count_validated(self, ring3_model):
        with pytest.raises(ValueError, match="n_samples"):
            llr_samples(ring3_model, np.zeros(6), 0, 1)


class TestLlrLocal:
    def test_zero_variance_gives_zero(self, ring3_model):
        assert llr_local(ring3_model, 1, 0.0, 0.3) == 0.0

    def test_zero_observation_value(self, ring3_model):
        s = ring3_model.s[2]
        expected = 0.5 * math.log(s / (s + 1.5))
        assert llr_local(ring3_model, 2, 1.5, 0.0) == pytest.approx(expected)

    def test_mean_over_attacked_estimates_local_kl(self, ring3_model):
        i, v_i = 4, 2.0
        rng = np.random.default_rng(23)
        y = math.sqrt(ring3_model.s[i] + v_i) * rng.standard_normal(100_000)
        values = llr_local(ring3_model, i, v_i, y)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - kl_local(ring3_model, i, v_i)) <= 3.0 * se


class TestErrorCurve:
    def test_indistinguishable_when_clean(self, ring3_model):
        taus = list(np.exp(np.linspace(-1, 1, 9)))
        curve = error_curve(ring3_model, np.zeros(6), 10_000, 5, taus)
        for _, alpha_hat, beta_hat in curve:
            assert 0.95 <= alpha_hat + beta_hat <= 1.05

    def test_roc_monotone_in_threshold(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        taus = list(np.exp(np.linspace(-5, 5, 21)))
        curve = error_curve(ring3_model, v, 5_000, 5, taus)
        alphas = [a for _, a, _ in curve]
        betas = [b for _, _, b in curve]
        assert all(a1 >= a2 for a1, a2 in zip(alphas, alphas[1:]))
        assert all(b1 <= b2 for b1, b2 in zip(betas, betas[1:]))

    def test_tiny_threshold_always_accuses(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        ((_, alpha_hat, beta_hat),) = error_curve(
            ring3_model, v, 2_000, 5, [1e-300]
        )
        assert alpha_hat == 1.0
        assert beta_hat == 0.0

    def test_threshold_validation(self, ring3_model):
        with pytest.raises(ValueError, match="nonempty"):
            error_curve(ring3_model, np.zeros(6), 2_000, 5, [])
        with pytest.raises(ValueError, match="positive"):
            error_curve(ring3_model, np.zeros(6), 2_000, 5, [-1.0])
        with pytest.raises(ValueError, match="at least 1000"):
            error_curve(ring3_model, np.zeros(6), 10, 5, [1.0])

    def test_determinism(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        taus = [0.5, 1.0, 2.0]
        assert error_curve(ring3_model, v, 2_000, 8, taus) == error_curve(
            ring3_model, v, 2_000, 8, taus
        )


class TestRocAuc:
    def test_larger_divergence_larger_auc(self, ring3_model):
        # Scale one profile so its KL is ~0.01 and another to ~1.0.
        base = np.ones(6)

        def scaled_to(target):
            lo, hi = 0.0, 1e6
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if kl_global(ring3_model, mid * base) < target:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi) * base

        weak, strong = scaled_to(0.01), scaled_to(1.0)
        auc_weak = roc_auc(ring3_model, weak, 10_000, 31)
        auc_strong = roc_auc(ring3_model, strong, 10_000, 31)
        assert auc_strong > auc_weak

    def test_clean_profile_is_chance_level(self, ring3_model):
        auc = roc_auc(ring3_model, np.zeros(6), 10_000, 13)
        assert auc == pytest.approx(0.5, abs=0.02)

    def test_determinism(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        assert roc_auc(ring3_model, v, 2_000, 3) == roc_auc(ring3_model, v, 2_000, 3)


class TestRankAuc:
    @pytest.mark.parametrize("decimals", [0, 1, 3])
    def test_matches_midrank_loop_with_ties(self, rng, decimals):
        null = np.round(rng.standard_normal(5_000), decimals)
        attacked = np.round(rng.standard_normal(4_000) + 0.4, decimals)
        assert rank_auc(null, attacked) == oracle_rank_auc(null, attacked)

    def test_all_tied_is_one_half(self):
        assert rank_auc(np.zeros(7), np.zeros(5)) == 0.5 == oracle_rank_auc(
            np.zeros(7), np.zeros(5)
        )

    def test_roc_auc_matches_midrank_loop(self, ring3_model, rng):
        v = random_profile(rng, ring3_model, scale=0.5)
        null, attacked = llr_samples(ring3_model, v, 10_000, 17)
        assert roc_auc(ring3_model, v, 10_000, 17) == oracle_rank_auc(null, attacked)
