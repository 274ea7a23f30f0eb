import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import stealthgame.detection as detection
from stealthgame.detection import (
    SAMPLE_CHUNK_ROWS,
    error_curve,
    llr_joint,
    llr_samples,
    rank_auc,
    roc_auc,
    sample_observations,
)
from stealthgame.dynamics import run_brd
from stealthgame.games import GameSpec
from stealthgame.metrics import kl_global, kl_local
from stealthgame.model import attacked_cov, build_model

from _helpers import (
    MP_DPS,
    clean_cov,
    llr_local,
    oracle_rank_auc,
    random_profile,
    shuffled_samples,
)


class TestSampleObservations:
    def test_sample_covariance_matches(self, ring3_model):
        obs = sample_observations(ring3_model, np.zeros(6), 100_000, 1, attacked=False)
        sample_cov = obs.T @ obs / obs.shape[0]
        Sigma_YY = clean_cov(ring3_model).Sigma_YY
        rel = np.linalg.norm(sample_cov - Sigma_YY) / np.linalg.norm(Sigma_YY)
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
        np.testing.assert_array_equal(obs, expected @ clean_cov(model).chol_YY.T)

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
        expected = 0.5 * (clean_cov(ring3_model).logdet_YY - logdet_a)
        assert value == pytest.approx(expected, rel=1e-10)
        assert value <= 0.0

    def test_mean_over_attacked_samples_estimates_kl(self, ring3_model, rng):
        v = random_profile(rng, ring3_model, scale=1.0)
        _, llr_attacked = llr_samples(ring3_model, v, 100_000, seed=17)
        se = llr_attacked.std(ddof=1) / math.sqrt(llr_attacked.size)
        assert abs(llr_attacked.mean() - kl_global(ring3_model, v)) <= 3.0 * se

    @pytest.mark.parametrize("shape", [(5,), (4, 7)])
    def test_wrong_column_count_rejected(self, ring3_model, shape):
        with pytest.raises(ValueError, match=f"have {shape[-1]} columns, expected 6"):
            llr_joint(ring3_model, np.zeros(6), np.zeros(shape))

    def test_batch_matches_scalar(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        Y = rng.standard_normal((4, 6))
        batch = llr_joint(ring3_model, v, Y)
        for k in range(4):
            assert batch[k] == pytest.approx(llr_joint(ring3_model, v, Y[k]))


def ks_distance(sample, cdf):
    """Kolmogorov-Smirnov distance between a sample and a continuous CDF."""
    x = np.sort(sample)
    F = cdf(x)
    n = x.size
    return max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(n) / n))


def chi2_1_cdf(x):
    """CDF of chi-squared with one degree of freedom, erf(sqrt(x / 2))."""
    return np.vectorize(math.erf)(np.sqrt(np.maximum(x, 0.0) / 2.0))


def exp_mean_2_cdf(x):
    """CDF of the exponential law of mean 2 (chi-squared, two degrees)."""
    return -np.expm1(-np.maximum(x, 0.0) / 2.0)


def paired_squares(seed, n, m):
    """z^2 of llr_samples' documented recipe: each chunk of
    SAMPLE_CHUNK_ROWS rows draws one 2 x SAMPLE_CHUNK_ROWS x h block of
    uniforms, h = ceil(m / 2): the angles U, then the U' that give
    E = -log(1 - U') ~ Exp(1).  Column j < h is 2 E cos^2(pi U / 2) and
    column j + h is 2 E less column j.  The pad column of an odd m is
    dropped.  It keeps np.cos on purpose, where llr_samples forms cos^2
    from np.tan, so it is an independent oracle."""
    pairs = -(-m // 2)
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(-(-n // SAMPLE_CHUNK_ROWS)):
        U, U_radius = rng.random((2, SAMPLE_CHUNK_ROWS, pairs))
        E = -np.log(1.0 - U_radius)
        first = 2.0 * E * np.cos(0.5 * math.pi * U) ** 2
        chunks.append(np.hstack([first, 2.0 * E - first]))
    return np.vstack(chunks)[:n, :m]


def edge_draw(monkeypatch, angles, radii, v=(2.0, 6.0)):
    """llr_samples of the one-pair model (Sigma_YY = 2 I, kappa = v / 2)
    with the generator's uniforms replaced: row k of the draw takes
    U = angles[k] and U' = radii[k], and rows past them 1/2.  Returns the
    two LLR arrays and the squares z_j^2, z_{j+h}^2 read from the draw
    buffer, which llr_samples turns in place into -z_j^2 / 2 and
    -z_{j+h}^2 / 2 before the next chunk's draw: an LLR would round away
    squares far below its log-determinant term."""
    n = len(angles)
    stream = np.full((-(-n // SAMPLE_CHUNK_ROWS), 2, SAMPLE_CHUNK_ROWS), 0.5)
    stream[:, 0].flat[:n], stream[:, 1].flat[:n] = angles, radii
    blocks, chunks, buffers = iter(stream), [], []

    class EdgeGenerator:
        def __init__(self, seed):
            pass

        def random(self, *args, out, **kwargs):
            if buffers:
                chunks.append(buffers.pop().copy())
            out[...] = next(blocks)[..., None]
            buffers.append(out)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", EdgeGenerator)
        llr = np.array(llr_samples(build_model(np.eye(2), np.eye(2), 1.0), v, n, 0))
    chunks.append(buffers.pop())
    halves = np.concatenate(chunks, axis=1)[:, :n, 0]
    return llr, -2.0 * halves


class TestWhitenedLlrSamples:
    """llr_samples draws (1/2) sum_k w_k z_k^2 - (1/2) sum_k log1p(kappa_k),
    w = kappa / (1 + kappa) (clean) or kappa (attacked)."""

    @staticmethod
    def spectrum(model, v):
        """kappa and eigenvectors of F F^T, F = L^{-1} diag(sqrt(v)), by eigh."""
        F = np.linalg.inv(clean_cov(model).chol_YY) * np.sqrt(v)
        kappa, U = np.linalg.eigh(F @ F.T)
        return np.clip(kappa, 0.0, None), U

    @staticmethod
    def weighted_squares(kappa, squares, attacked):
        weights = kappa if attacked else kappa / (1.0 + kappa)
        return 0.5 * (squares @ weights) - 0.5 * np.sum(np.log1p(kappa))

    @pytest.mark.parametrize("attacked", [False, True])
    @pytest.mark.parametrize("name", ["ring3_model", "ieee9_model"])
    def test_llr_joint_of_whitened_observations(self, request, rng, name, attacked):
        model = request.getfixturevalue(name)
        v = random_profile(rng, model)
        kappa, U = self.spectrum(model, v)
        Z = rng.standard_normal((200, model.m))
        scale = np.sqrt(1.0 + kappa) if attacked else np.ones(model.m)
        Y = (Z * scale) @ (clean_cov(model).chol_YY @ U).T
        expected = self.weighted_squares(kappa, Z**2, attacked)
        err = np.max(np.abs(llr_joint(model, v, Y) - expected))
        assert err <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name", ["ring3_model", "ieee9_model"])
    def test_samples_are_weighted_squares_of_one_draw(self, request, rng, name):
        model = request.getfixturevalue(name)
        v = random_profile(rng, model)
        kappa, _ = self.spectrum(model, v)
        n = SAMPLE_CHUNK_ROWS + 500  # two chunks, one uniform block each
        squares = paired_squares(3, n, model.m)
        for values, attacked in zip(llr_samples(model, v, n, 3), (False, True)):
            expected = self.weighted_squares(kappa, squares, attacked)
            err = np.max(np.abs(values - expected))
            assert err <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [1, 2 * SAMPLE_CHUNK_ROWS + 5])
    @pytest.mark.parametrize("name", ["ring3_model", "ieee9_model", "scalar_model"])
    def test_attacked_never_below_clean(self, request, rng, name, n):
        # Same z_k, weights kappa_k >= kappa_k / (1 + kappa_k): the attacked
        # value of every draw is at least its clean value, exactly.
        model = request.getfixturevalue(name)
        for scale in (1e-6, 1.0, 1e6):
            v = random_profile(rng, model, scale=scale)
            llr_null, llr_attacked = llr_samples(model, v, n, 6)
            assert np.all(llr_attacked >= llr_null)

    @pytest.mark.parametrize("name", ["ring3_model", "ieee9_model"])
    def test_closed_form_mean_is_kl_global(self, request, rng, name):
        model = request.getfixturevalue(name)
        v = random_profile(rng, model)
        kappa = detection._whitened_spectrum(model, v)
        mean = 0.5 * np.sum(kappa) - 0.5 * np.sum(np.log1p(kappa))
        assert mean == pytest.approx(kl_global(model, v), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["ieee9_model", "scalar_model"])
    def test_zero_profile_gives_zero_everywhere(self, request, name):
        model = request.getfixturevalue(name)
        for values in llr_samples(model, np.zeros(model.m), 1_000, 2):
            np.testing.assert_array_equal(values, np.zeros(1_000))
            assert not np.any(np.signbit(values))

    @pytest.mark.parametrize("name", ["ring3_model", "ieee9_model", "scalar_model"])
    def test_prefix_consistency_across_chunks(self, request, rng, name):
        model = request.getfixturevalue(name)
        v = random_profile(rng, model)
        long = llr_samples(model, v, 2 * SAMPLE_CHUNK_ROWS + 5, 8)
        for k in (SAMPLE_CHUNK_ROWS + 1, SAMPLE_CHUNK_ROWS + 3):
            for head, full in zip(llr_samples(model, v, k, 8), long):
                np.testing.assert_array_equal(head, full[:k])

    def test_pair_has_the_law_of_two_squared_normals(self):
        # Sigma_YY = 2 I, so kappa = v / 2 = (1, 3): m = 2 is one pair, and
        # the clean and attacked arrays give both of its squares per row.
        model = build_model(np.eye(2), np.eye(2), 1.0)
        kappa, n = np.array([1.0, 3.0]), 100_000
        llr = np.array(llr_samples(model, 2.0 * kappa, n, 12))
        llr += 0.5 * np.sum(np.log1p(kappa))
        squares = np.linalg.solve(0.5 * np.array([kappa / (1.0 + kappa), kappa]), llr)
        bound = 1.63 / math.sqrt(n)  # KS at the 1% level
        for column in squares:
            assert ks_distance(column, chi2_1_cdf) < bound
        assert ks_distance(squares.sum(axis=0), exp_mean_2_cdf) < bound
        assert abs(np.corrcoef(squares)[0, 1]) < 4.0 / math.sqrt(n)

    def test_pair_squares_match_a_50_digit_reference(self):
        # The model above, over two chunks and a part: row k's squares are
        # 2 E_k cos^2(pi U_k / 2) and 2 E_k sin^2(pi U_k / 2) for the
        # generator's stream of U and then U' blocks, E_k = -log(1 - U'_k),
        # with the angle and the logarithm in exact arithmetic.
        model = build_model(np.eye(2), np.eye(2), 1.0)
        kappa, n = np.array([1.0, 3.0]), 2 * SAMPLE_CHUNK_ROWS + 5
        llr = np.array(llr_samples(model, 2.0 * kappa, n, 12))
        llr += 0.5 * np.sum(np.log1p(kappa))
        squares = np.linalg.solve(0.5 * np.array([kappa / (1.0 + kappa), kappa]), llr)
        rng = np.random.default_rng(12)
        reference = []
        with mpmath.workdps(MP_DPS):
            for _ in range(-(-n // SAMPLE_CHUNK_ROWS)):
                for u, u_radius in zip(*rng.random((2, SAMPLE_CHUNK_ROWS))):
                    e = -mpmath.log(1 - mpmath.mpf(u_radius))
                    cos2 = mpmath.cos(mpmath.pi * u / 2) ** 2
                    reference.append([float(2 * e * cos2), float(2 * e * (1 - cos2))])
        reference = np.array(reference[:n]).T
        assert np.max(np.abs(squares - reference)) <= 1e-13 * np.max(reference)

    def test_edge_angles_give_bounded_squares(self, monkeypatch):
        # U' = 1/2 (E = log 2) throughout, and U at 0, 2^-53, 1/2,
        # 1 - 2^-53 and 10^4 values within 10^6 ulps of 1 (then 1/2).
        near_one = 1.0 - np.random.default_rng(14).integers(1, 10**6, 10**4) * 2.0**-53
        U = np.concatenate([[0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53], near_one])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            llr, (first, second) = edge_draw(monkeypatch, U, np.full(U.size, 0.5))
        E = -math.log(0.5)
        assert np.all(np.isfinite(llr)) and np.all(np.isfinite([first, second]))
        assert np.all((first >= 0.0) & (first <= 2.0 * E)) and np.all(second >= 0.0)
        # 2 E cos^2 of the double angle U * (pi / 2) that the draw forms.
        with mpmath.workdps(MP_DPS):
            reference = np.array([float(2 * E * mpmath.cos(x) ** 2) for x in U * (0.5 * math.pi)])
        assert np.all(np.abs(first - reference) <= 4.0 * np.spacing(reference))

    def test_edge_radii_give_bounded_squares(self, monkeypatch):
        # U' at 0, 2^-53 and 1 - 2^-53, the least, next and largest values
        # of the generator's grid, each with U at 0, 2^-53, 1/2 and
        # 1 - 2^-53: E = -log(1 - U') is 0, about 2^-53, and 53 log 2.
        radii = np.repeat([0.0, 2.0**-53, 1.0 - 2.0**-53], 4)
        angles = np.tile([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53], 3)
        with np.errstate(over="raise", invalid="raise", divide="raise", under="raise"):
            llr, (first, second) = edge_draw(monkeypatch, angles, radii)
            zero, _ = edge_draw(monkeypatch, angles, radii, v=[0.0, 0.0])
        assert np.all(np.isfinite(llr)) and np.all(np.isfinite([first, second]))
        assert np.all(first[:4] == 0.0) and np.all(second[:4] == 0.0)
        # Zero squares leave both LLRs at the log-determinant term alone.
        assert np.all(llr[:, :4] == llr[0, 0]) and llr[0, 0] == pytest.approx(-0.5 * math.log(8.0))
        with mpmath.workdps(MP_DPS):
            E = np.array([float(-mpmath.log(1 - mpmath.mpf(u))) for u in radii])
        assert E[4] > 0.0 and E[-1] == pytest.approx(53.0 * math.log(2.0), rel=1e-15)
        assert np.all((first >= 0.0) & (second >= 0.0))
        assert np.all(np.abs(first + second - 2.0 * E) <= 4.0 * np.spacing(2.0 * E))
        for values in zero:
            np.testing.assert_array_equal(values, np.zeros(angles.size))
            assert not np.any(np.signbit(values))

    def test_odd_m_pads_a_zero_weight(self, scalar_model):
        # Sigma_YY = [2], so kappa = v / 2 = 1: each array is one weighted
        # chi-squared square, and a weight on the pad column would add the
        # pair's other square.
        n = 100_000
        for values, weight in zip(llr_samples(scalar_model, [2.0], n, 13), (0.25, 0.5)):
            square = (values + 0.5 * math.log(2.0)) / weight
            assert ks_distance(square, chi2_1_cdf) < 1.63 / math.sqrt(n)

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

    @pytest.mark.parametrize("n_null,n_attacked", [(0, 5), (7, 0), (0, 0)])
    def test_empty_sample_rejected(self, n_null, n_attacked):
        with pytest.raises(ValueError, match="nonempty samples"):
            rank_auc(np.zeros(n_null), np.ones(n_attacked))

    def test_matches_midrank_loop_on_random_tie_heavy_samples(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            n_null, n_attacked = rng.integers(1, 301, size=2)
            decimals = int(rng.integers(0, 4))
            null = np.round(rng.standard_normal(n_null), decimals)
            attacked = np.round(
                rng.standard_normal(n_attacked) + rng.uniform(-1.0, 1.0), decimals
            )
            assert rank_auc(null, attacked) == oracle_rank_auc(null, attacked)

    @pytest.mark.parametrize("null,attacked,auc", [
        # NaNs sort above +inf and tie with one another (the oracle ranks
        # them apart, so these are counted by hand).
        ([math.nan, 0.0], [math.nan, 1.0], 0.625),
        ([math.inf], [math.nan], 1.0),
        ([math.nan], [math.inf], 0.0),
        ([math.nan, math.nan], [math.nan], 0.5),
    ])
    def test_nan_convention(self, null, attacked, auc):
        assert rank_auc(np.array(null), np.array(attacked)) == auc

    def test_extra_memory_is_linear(self, rng):
        null = rng.standard_normal(100_000)
        attacked = rng.standard_normal(100_000) + 0.5
        tracemalloc.start()
        try:
            rank_auc(null, attacked)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (null.nbytes + attacked.nbytes)

    @pytest.mark.parametrize("nan", [False, True])
    def test_unsorted_input_is_read_not_modified(self, rng, nan):
        # Ties, both signed zeros and NaNs, in random order: the AUC is
        # that of sorted copies, which are read as they are when they
        # hold no NaN, and no input array changes.
        null = shuffled_samples(rng, 3_000, nan=nan)
        attacked = shuffled_samples(rng, 2_000, shift=0.4, nan=nan)
        null_sorted, attacked_sorted = np.sort(null), np.sort(attacked)
        inputs = (null, attacked, null_sorted, attacked_sorted)
        before = [x.tobytes() for x in inputs]
        auc = rank_auc(null, attacked)
        assert auc == rank_auc(null_sorted, attacked_sorted)
        if not nan:  # the oracle ranks NaNs apart
            assert auc == oracle_rank_auc(null, attacked)
        assert [x.tobytes() for x in inputs] == before

    def test_roc_auc_matches_midrank_loop(self, ring3_model, rng):
        v = random_profile(rng, ring3_model, scale=0.5)
        null, attacked = llr_samples(ring3_model, v, 10_000, 17)
        assert roc_auc(ring3_model, v, 10_000, 17) == oracle_rank_auc(null, attacked)


@pytest.mark.parametrize("statistic,bound", [("error_curve", 2.5), ("roc_auc", 3.5)])
def test_peak_memory_is_the_draw_sorted_in_place(ieee9_model, statistic, bound):
    # The draw is two arrays of n doubles, which the statistic sorts in
    # place; a sorted copy of each would add 2 x 8 n bytes to the peak.
    n = 200_000
    v, _, _ = run_brd(GameSpec(1, 2.0), ieee9_model)
    call = {
        "error_curve": lambda: error_curve(ieee9_model, v, n, 1, [0.5, 1.0, 2.0]),
        "roc_auc": lambda: roc_auc(ieee9_model, v, n, 1),
    }[statistic]
    call()  # the modules numpy's generator imports on first use are not counted
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n
