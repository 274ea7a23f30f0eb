import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

import stealthgame.bestresponse as bestresponse
from stealthgame.bestresponse import (
    BRContext,
    best_response,
    br_context,
    br_g1,
    br_g2,
    br_g3,
    player_contexts,
)
from stealthgame.games import GameSpec, cost
from stealthgame.grid import build_dc_jacobian, bundled_case, parse_network
from stealthgame.model import (
    CANCELLED,
    PosteriorKernel,
    StatePriorSpec,
    build_model,
    calibrate_noise,
    toeplitz_cov,
)

from _helpers import (
    MP_DPS,
    BracketError,
    br_numeric,
    low_redundancy_model,
    mp_best_response,
    mp_cost_slope,
    mp_root,
    oracle_alpha,
    oracle_br_context,
    random_desk_model,
    random_profile,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def ieee9_at(snr):
    with open(bundled_case("ieee9"), encoding="utf-8") as fh:
        H = build_dc_jacobian(parse_network(fh.read())).H
    Sigma_XX = toeplitz_cov(StatePriorSpec(8, 0.9))
    return build_model(H, Sigma_XX, calibrate_noise(H, Sigma_XX, snr))


def reference_contexts(model):
    """Every player's context at three profiles: all clean (so gamma is
    gamma0), a few noise variances, and a few measurement variances;
    each context starts its root-finder at the player's own entry."""
    m = model.m
    profiles = (
        np.zeros(m),
        model.sigma2 * (1.0 + np.arange(m) % 5),
        float(np.mean(model.s)) * (1.0 + np.arange(m) % 3),
    )
    return [br_context(model, i, v) for v in profiles for i in range(m)]


def solve(game, ctx, sigma2, lam):
    if game == 1:
        return br_g1(ctx, sigma2, lam)
    if game == 2:
        return br_g2(ctx, sigma2, lam)
    return br_g3(ctx, sigma2, lam)


SOLVERS = [1, 2, 3]


class TestBRContext:
    def test_scalar_model(self, scalar_model):
        ctx = br_context(scalar_model, 0, [0.0])
        assert ctx.gamma == pytest.approx(1.0, abs=1e-12)  # A = I, gamma = c
        assert ctx.gamma0 == pytest.approx(1.0, abs=1e-12)
        assert ctx.s == pytest.approx(2.0)
        assert ctx.c == pytest.approx(1.0)

    def test_diagonal_model_alpha_equals_beta(self):
        # Orthogonal sensing rows make Sigma_YY diagonal, so with no
        # other attackers alpha_i = 1/(sigma2 + gamma_i) = 1/s_i = beta_i,
        # the i-th diagonal entry of Sigma_YY^{-1}.
        model = build_model(np.eye(2), np.eye(2), 0.5)
        for i in range(2):
            ctx = br_context(model, i, np.zeros(2))
            alpha = 1.0 / (model.sigma2 + ctx.gamma)
            assert alpha == pytest.approx(1.0 / ctx.s, abs=1e-12)
            beta = 1.0 / (model.sigma2 + model.gain0[i])
            assert beta == pytest.approx(1.0 / ctx.s, abs=1e-12)

    def test_invariants_on_random_instances(self, rng):
        for _ in range(30):
            model = random_desk_model(rng)
            v = random_profile(rng, model)
            i = int(rng.integers(0, model.m))
            ctx = br_context(model, i, v)
            # The others' attacks can only raise the gain.
            assert ctx.gamma >= ctx.gamma0 * (1.0 - 1e-12)
            assert ctx.s >= model.sigma2
            assert ctx.c == pytest.approx(ctx.s - model.sigma2, rel=1e-12)
            assert ctx.gamma > 0

    def test_own_entry_ignored(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        other = v.copy()
        other[2] = 123.0
        assert br_context(ring3_model, 2, v) == br_context(ring3_model, 2, other)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1e-300])
    def test_invalid_gain_rejected(self, ring3_model, gamma):
        context = player_contexts(ring3_model)
        with pytest.raises(np.linalg.LinAlgError, match=f"player 2: gamma={gamma}"):
            context(2, gamma, 0.0)

    def test_index_validation(self, ring3_model):
        with pytest.raises(IndexError):
            br_context(ring3_model, 17, np.zeros(6))

    def test_matches_mxm_oracle(self, rng):
        for _ in range(20):
            model = random_desk_model(rng)
            v = random_profile(rng, model)
            for i in range(model.m):
                ctx = br_context(model, i, v)
                ref = oracle_br_context(model, i, v)
                alpha = 1.0 / (model.sigma2 + ctx.gamma)
                assert alpha == pytest.approx(
                    oracle_alpha(model, i, v), rel=1e-12, abs=0.0)
                assert ctx.gamma == pytest.approx(ref.gamma, rel=1e-12, abs=0.0)
                assert (ctx.s, ctx.c) == (ref.s, ref.c)

    def test_gain0_matches_mxm_oracle_and_kernel_at_zero(self, rng):
        # gamma0 is the gain with every other measurement clean; a kernel
        # at v = 0 must reproduce it bit for bit, so d = 0 there exactly.
        for _ in range(20):
            model = random_desk_model(rng)
            v = random_profile(rng, model)
            kernel = PosteriorKernel(model, np.zeros(model.m))
            for i in range(model.m):
                ref = oracle_br_context(model, i, v)
                assert br_context(model, i, v).gamma0 == pytest.approx(
                    ref.gamma0, rel=1e-12, abs=0.0)
                assert kernel.gain(i) == model.gain0[i]
                assert br_context(model, i, np.zeros(model.m)).gamma == model.gain0[i]

    def test_context_at_zero_is_gain0_on_the_9_bus_case(self):
        model = ieee9_at(30.0)
        zero = np.zeros(model.m)
        assert [br_context(model, i, zero).gamma for i in range(model.m)] == list(
            model.gain0)

    @pytest.mark.parametrize("shape", ["identity", "square", "wide", "critical"])
    def test_kernel_at_zero_reproduces_gain0_without_redundancy(self, shape):
        # Here w_i q_i is near 1 at v = 0, so the gains take the
        # cancellation-free branch of kernel_gain.
        for snr in (60.0, 70.0, 80.0):
            model = low_redundancy_model(shape, snr)
            kernel = PosteriorKernel(model, np.zeros(model.m))
            w, inv = kernel.w, kernel.inv
            q = np.einsum("ij,jk,ik->i", model.B, inv, model.B)
            assert np.any(w * q > 1.0 - CANCELLED)
            for i in range(model.m):
                assert kernel.gain(i) == model.gain0[i]

    @pytest.mark.parametrize("snr", [30.0, 50.0, 70.0])
    def test_alpha_matches_high_precision_reference(self, snr):
        mpmath = pytest.importorskip("mpmath")
        with open(bundled_case("ieee9"), encoding="utf-8") as fh:
            H = build_dc_jacobian(parse_network(fh.read())).H
        Sigma_XX = toeplitz_cov(StatePriorSpec(8, 0.9))
        model = build_model(H, Sigma_XX, calibrate_noise(H, Sigma_XX, snr))
        v = model.sigma2 * (1.0 + np.arange(model.m) % 5)
        with mpmath.workdps(50):
            Hm = mpmath.matrix(H.tolist())
            signal = Hm * mpmath.matrix(Sigma_XX.tolist()) * Hm.T
            for i in range(model.m):
                S = signal.copy()
                for j in range(model.m):
                    S[j, j] += mpmath.mpf(model.sigma2) + (
                        0 if j == i else mpmath.mpf(v[j])
                    )
                e_i = mpmath.matrix(model.m, 1)
                e_i[i] = 1
                ref = mpmath.lu_solve(S, e_i)[i]
                alpha = 1.0 / (model.sigma2 + br_context(model, i, v).gamma)
                assert abs(alpha - ref) <= 1e-13 * abs(ref)


class TestClosedForms:
    def test_g1_scalar_golden_ratio(self, scalar_model):
        ctx = br_context(scalar_model, 0, [0.0])
        assert br_g1(ctx, 1.0, 2.0) == pytest.approx(GOLDEN, abs=1e-12)

    @pytest.mark.parametrize(
        "gamma, gamma0, sigma2, lam",
        [
            (1e300, 1e300, 1e299, 2.0),  # gamma (sigma2 + gamma0) overflows
            (1e250, 1e100, 1e-300, 2.0),  # gamma gamma0 overflows
            (3.0, 3.0, 1.7e308, 2.0),  # a small gain beside the largest sigma2
            (1.2e154, 1.2e154, 1.0, 1.0),  # only -2C overflows
            (1e-300, 1e-300, 1e308, 2.0),  # only the denominator overflows
            (1e-130, 1e-130, 1e200, 2.0),  # nothing overflows; gamma is tiny
            (1e308, 1e-300, 1e308, 3.0),  # C overflows and is positive
            (1.7e308, 1.7e308, 1.7e308, 1.0),  # every scalar near the top
        ],
    )
    def test_g1_at_extreme_scale_matches_the_50_digit_root(
        self, gamma, gamma0, sigma2, lam
    ):
        ctx = BRContext(gamma=gamma, gamma0=gamma0, s=sigma2 + gamma0, c=gamma0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = br_g1(ctx, sigma2, lam)
        ref = mp_best_response(1, ctx, sigma2, lam)
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("game", [2, 3])
    @pytest.mark.parametrize(
        "gamma, gamma0, c, sigma2, lam",
        [
            # The 1e150 one-entry matrix at 10 dB: c (sigma2 + gamma0) and
            # gamma s overflow.
            (1e300, 1e300, 1e300, 1e299, 2.0),
            (1e300, 5e299, 1e300, 1e299, 2.0),  # the same, with gamma > gamma0
            (1e100, 1e100, 1e200, 1e100, 2.0),  # only a product of three overflows
            (3.0, 3.0, 3.0, 1.7e308, 2.0),  # a small gain beside the largest sigma2
            (1e200, 1e200, 1e200, 1e200, 1e-10),  # a small weight as well
            (1e200, 1e200, 1e200, 1e200, 1e10),  # a large weight as well
            (8e307, 8e307, 8e307, 8e307, 1.0),  # every scalar near the top
            # Scalars spanning 330 decades: scaled to put c near 2^300,
            # sigma2 s d fell below 2^-1022 (game 2 was 2.7e-8 off).
            (5.96e-19, 1.50e-35, 2.92e296, 7.39e6, 2.30e7),
        ],
    )
    def test_g2_g3_at_extreme_scale_match_the_50_digit_root(
        self, gamma, gamma0, c, sigma2, lam, game
    ):
        ctx = BRContext(gamma=gamma, gamma0=gamma0, s=sigma2 + c, c=c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if game == 2:
                got = br_g2(ctx, sigma2, lam)
            else:
                got = br_g3(ctx, sigma2, lam)
        ref = mp_best_response(game, ctx, sigma2, lam)
        assert ref > 0.0
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "game, gamma, gamma0, c, sigma2, v, lam",
        [
            # The bound (-b0 / c2)^(1/2) on the root, where Newton starts,
            # is 4.7e-184, but -b0 / c2 underflows to 0: from 0, Newton
            # stopped after 100 steps at 1.1e-145.
            (3, 3.176699222284325e220, 3.606681558832973e-14, 2.8702023922246107e-67,
             3.3045609293923214e-252, 2.4368706447404472e284, 3.745470550173926e233),
            # The same in game 2: the root is 1.2e-167, and Newton from 0
            # stopped at 1.4e-110.
            (2, 1.1121223033597172e-41, 1.336098423935034e191, 8.121192611703549e94,
             1.6481916457340899e-254, 6.551443978829209e-275, 8.645123028271798e251),
            # b2^2 overflows in the shift that starts Newton: with a shift
            # of 0 Newton started left of the root and went below 0.
            (3, 1.1255286081113207e259, 1.1255286081113207e259,
             1.244717267984171e-267, 8.338804126228226e-269, 1.0783393114857697e-126,
             6.1488991376251334e-46),
            (2, 2.9336739066777473e-265, 1.849433551816642e-112, 5.192455127994009e287,
             1.8563057185829661e-146, 8.594093208809488e-18, 5.866368616602167e-84),
            # A large k sets the cubic's own scale, at which b0 underflows to
            # 0 while b1 < 0: the root is the shift, not 0.
            (2, 8.999198882313749e-240, 9.787298271853956e124,
             1.0202008543114213e223, 1.8702328439115615e-157, 0.0,
             2.3866990763539496e-269),
        ],
    )
    def test_newton_at_extreme_scale_matches_the_50_digit_root(
        self, game, gamma, gamma0, c, sigma2, v, lam
    ):
        ctx = BRContext(gamma=gamma, gamma0=gamma0, s=sigma2 + c, c=c, v=v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve(game, ctx, sigma2, lam)
        ref = mp_best_response(game, ctx, sigma2, lam)
        assert ref > 0.0
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_g1_weight_floor(self, scalar_model):
        ctx = br_context(scalar_model, 0, [0.0])
        with pytest.raises(ValueError, match="lam >= 1"):
            br_g1(ctx, 1.0, 0.5)

    def test_g2_scalar_golden_ratio(self, scalar_model):
        ctx = br_context(scalar_model, 0, [0.0])
        assert br_g2(ctx, 1.0, 2.0) == pytest.approx(GOLDEN, abs=1e-10)

    def test_g3_scalar_golden_ratio(self, scalar_model):
        ctx = br_context(scalar_model, 0, [0.0])
        assert br_g3(ctx, 1.0, 2.0) == pytest.approx(GOLDEN, abs=1e-10)

    def test_g3_large_weight_pins_zero(self, scalar_model):
        ctx = br_context(scalar_model, 0, [0.0])
        assert br_g3(ctx, 1.0, 1e6) < 1e-4

    @pytest.mark.parametrize("game", [2, 3])
    def test_zero_weight_rejected(self, scalar_model, game):
        ctx = br_context(scalar_model, 0, [0.0])
        solver = br_g2 if game == 2 else br_g3
        with pytest.raises(ValueError, match="lam must be positive"):
            solver(ctx, 1.0, 0.0)

    def test_numeric_oracle_rejects_zero_weight(self, scalar_model):
        # GameSpec refuses lam = 0; at 1e-30 the minimizer (about 1.4e15)
        # already lies beyond the oracle's bracket.
        with pytest.raises(BracketError):
            br_numeric(GameSpec(2, 1e-30), scalar_model, 0, [0.0])


class TestOracleAgreement:
    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_closed_matches_numeric(self, game):
        # Seed chosen away from the value-oracle resolution floor: a BR
        # within ~1e-6 of zero under an O(1000)-nat cost offset is not
        # distinguishable from zero by any function-value minimizer.
        rng = np.random.default_rng(42)
        for _ in range(40):
            model = random_desk_model(rng, m_max=8)
            v = random_profile(rng, model)
            i = int(rng.integers(0, model.m))
            lam = float(rng.uniform(1.0, 8.0)) if game == 1 else float(
                rng.uniform(0.05, 8.0)
            )
            spec = GameSpec(game, lam)
            closed = best_response(spec, model, i, v)
            numeric = br_numeric(spec, model, i, v)
            assert abs(closed - numeric) <= 1e-8 * (1.0 + numeric)

    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_best_response_beats_random_alternatives(self, game, rng):
        for _ in range(5):
            model = random_desk_model(rng, m_max=6)
            v = random_profile(rng, model)
            i = int(rng.integers(0, model.m))
            spec = GameSpec(game, float(rng.uniform(1.0, 5.0)))
            br = best_response(spec, model, i, v)
            at_br = v.copy()
            at_br[i] = br
            best_cost = cost(spec, model, i, at_br)
            for _ in range(50):
                trial = v.copy()
                trial[i] = float(rng.uniform(0, 10.0 * (1.0 + br)))
                assert best_cost <= cost(spec, model, i, trial) + 1e-10

    def test_numeric_is_locally_optimal(self, ring3_model, rng):
        spec = GameSpec(1, 2.0)
        v = random_profile(rng, ring3_model)
        t = br_numeric(spec, ring3_model, 3, v)
        at = v.copy()
        at[3] = t
        base = cost(spec, ring3_model, 3, at)
        for delta in (-1e-6, 1e-6):
            if t + delta < 0:
                continue
            at[3] = t + delta
            assert base <= cost(spec, ring3_model, 3, at) + 1e-12

    def test_numeric_matches_g1_at_unit_weight(self, ring3_model, rng):
        spec = GameSpec(1, 1.0)
        v = random_profile(rng, ring3_model)
        for i in (0, 4):
            ctx = br_context(ring3_model, i, v)
            closed = br_g1(ctx, ring3_model.sigma2, 1.0)
            numeric = br_numeric(spec, ring3_model, i, v)
            assert abs(closed - numeric) <= 1e-8 * (1.0 + numeric)


class TestClamping:
    @pytest.mark.parametrize("game", [1, 2])
    def test_zero_whenever_slope_at_origin_nonnegative(self, game, rng):
        # Whenever the cost slope at 0 is nonnegative the boundary is
        # optimal and the solver must return exactly 0.
        found = 0
        for _ in range(300):
            model = random_desk_model(rng, m_max=6)
            v = random_profile(rng, model, scale=5.0)
            i = int(rng.integers(0, model.m))
            lam = float(rng.uniform(1.0, 60.0))
            spec = GameSpec(game, lam)

            def f(t):
                w = v.copy()
                w[i] = t
                return cost(spec, model, i, w)

            h = 1e-7
            slope0 = (f(h) - f(0.0)) / h
            if slope0 >= 1e-6:
                found += 1
                assert best_response(spec, model, i, v) == 0.0
            if found >= 10:
                break
        assert found >= 5, "generator produced too few boundary cases"

    def test_game3_optimum_always_interior(self, rng):
        # The game-3 cost slope at 0 is -gamma/(sigma2(sigma2+gamma)) < 0,
        # so every best response with positive weight is interior.
        for _ in range(20):
            model = random_desk_model(rng, m_max=6)
            v = random_profile(rng, model)
            i = int(rng.integers(0, model.m))
            spec = GameSpec(3, float(rng.uniform(0.1, 50.0)))
            assert best_response(spec, model, i, v) > 0.0


class TestHighPrecisionReference:
    """Every solver against a 50-digit root of the unmultiplied cost
    derivative (``mp_best_response``) on the same context scalars."""

    @pytest.mark.parametrize("snr", [10.0, 30.0, 50.0, 70.0])
    @pytest.mark.parametrize("game", SOLVERS)
    def test_matches_50_digit_root(self, game, snr):
        model = ieee9_at(snr)
        lams = (1.0, 2.0, 10.0, 1e3, 1e6) if game == 1 else (
            0.01, 1.0, 2.0, 10.0, 1e3, 1e6)
        interior = 0
        for ctx in reference_contexts(model):
            for lam in lams:
                got = solve(game, ctx, model.sigma2, lam)
                ref = mp_best_response(game, ctx, model.sigma2, lam)
                assert abs(got - ref) <= 1e-14 * ref, (ctx, lam, got, ref)
                interior += ref > 0.0
        assert interior >= 50

    def test_random_models_match_50_digit_root(self):
        # Random rows, priors, noise levels, profile scales and log-uniform
        # weights reach roots near 0, where the constants of games 1 and 2
        # cancel (before exact rounding, game 2 was 8.5e-14 off here).
        rng = np.random.default_rng(7)
        for _ in range(150):
            model = random_desk_model(rng, m_max=8)
            v = random_profile(rng, model, scale=float(rng.choice([0.01, 0.3, 3.0])))
            for i in range(model.m):
                ctx = br_context(model, i, v)
                for game in SOLVERS:
                    lam = float(np.exp(rng.uniform(
                        math.log(1.0 if game == 1 else 0.01), math.log(1e6))))
                    got = solve(game, ctx, model.sigma2, lam)
                    ref = mp_best_response(game, ctx, model.sigma2, lam)
                    assert abs(got - ref) <= 1e-14 * ref, (ctx, lam, got, ref)

    @pytest.mark.parametrize("lam", [1e-300, 1e300])
    @pytest.mark.parametrize("game", SOLVERS[1:])
    def test_extreme_weights_give_the_finite_root(self, game, lam):
        # The root ranges from about 1e-305 to 1e152 here; no step may
        # overflow or underflow to a wrong 0.
        model = ieee9_at(30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ctx in reference_contexts(model):
                got = solve(game, ctx, model.sigma2, lam)
                ref = mp_best_response(game, ctx, model.sigma2, lam)
                assert math.isfinite(got)
                assert abs(got - ref) <= 1e-14 * ref, (ctx, got, ref)

    def test_log_uniform_contexts_match_50_digit_root(self, monkeypatch):
        # Scalars log-uniform in a window of 20, 200 or 400 decades anywhere
        # in 1e+-300, weights log-uniform in [1, 1e300] for game 1 and in
        # [1e-300, 1e300] for games 2 and 3, with one subnormal weight.  Where
        # the scale rule's r keeps every product it lists in range (always in
        # the box, where the rule is skipped), the root is the 50-digit one
        # to 1e-14, or to a subnormal's spacing, or inf beyond double range.
        # Where no r does, at wide spans only, the response is still >= 0.
        kept = []

        def spy(*sizes):
            r = scale_exponent(*sizes)
            kept.append(all(-1018.0 <= e - k * r <= 1019.0 for k, degree in
                            enumerate(sizes, 1) for e in degree if e > -math.inf))
            return r

        scale_exponent = bestresponse._scale_exponent
        monkeypatch.setattr(bestresponse, "_scale_exponent", spy)
        rng = np.random.default_rng(2024)
        checked = unkept = 0
        for span in (20.0, 200.0, 400.0):
            for n in range(267):  # 801 contexts, 2,403 solves
                low = rng.uniform(-300.0, 300.0 - span)
                sigma2, c, gamma, gamma0, v = (10.0 ** rng.uniform(low, low + span, 5)).tolist()
                ctx = BRContext(gamma, gamma if n % 5 == 0 else gamma0, sigma2 + c, c,
                                0.0 if n % 7 == 0 else v)
                for game in SOLVERS:
                    lam = 10.0 ** float(rng.uniform(0.0 if game == 1 else -300.0, 300.0))
                    if game > 1 and span == 400.0 and n == 0:
                        lam = 5e-324
                    kept.clear()
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = solve(game, ctx, sigma2, lam)
                    assert 0.0 <= got <= math.inf
                    try:
                        ref = mp_best_response(game, ctx, sigma2, lam)
                    except BracketError:
                        continue
                    if not all(kept):
                        unkept += 1
                        continue
                    checked += 1
                    assert got == ref or abs(got - ref) <= 1e-14 * ref + 2.0**-1074, (
                        game, ctx, sigma2, lam, got, ref)
        assert checked > 2000 and unkept < 30

    def test_g3_root_is_not_the_alpha_paired_root(self):
        # Pairing gamma with alpha = 1 / (sigma2 + gamma) in the shifted
        # factor of game 3's slope moves its root off the slope's zero: on
        # the 9-bus case at lam = 2 the fixed point of that pairing is no
        # game-3 equilibrium (a potential audit flags 115 of its 235
        # records).  br_g3's root is a zero to 1e-14; the paired root lies
        # more than 1e-6 from one (4e-4 at least, here).
        model = ieee9_at(30.0)
        with mpmath.workdps(MP_DPS):
            for ctx in reference_contexts(model):
                slope = mp_cost_slope(3, ctx, model.sigma2, 2.0)
                paired = mp_root(mp_cost_slope(3, ctx, model.sigma2, 2.0, literal=True))
                root = mpmath.mpf(br_g3(ctx, model.sigma2, 2.0))
                assert slope(root * (1 - 1e-14)) < 0 <= slope(root * (1 + 1e-14))
                assert (slope(paired * (1 - 1e-6)) < 0) == (slope(paired * (1 + 1e-6)) < 0)

    @pytest.mark.parametrize("game", SOLVERS[1:])
    def test_root_does_not_depend_on_the_start(self, game, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        for i in range(ring3_model.m):
            ctx = br_context(ring3_model, i, v)
            ref = solve(game, ctx, ring3_model.sigma2, 2.0)
            for start in (0.0, 1e-300, 0.5 * ref, 2.0 * ref, 1e300):
                moved = dataclasses.replace(ctx, v=start)
                got = solve(game, moved, ring3_model.sigma2, 2.0)
                assert got == pytest.approx(ref, rel=4e-16, abs=0.0)
