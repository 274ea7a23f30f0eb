import math

import numpy as np
import pytest

from stealthgame.bestresponse import (
    V_MAX,
    best_response,
    br_context,
    br_g1,
    br_g2,
    br_g3,
)
from stealthgame.games import GameSpec, cost
from stealthgame.grid import build_dc_jacobian, bundled_case, parse_network
from stealthgame.model import (
    StatePriorSpec,
    build_model,
    calibrate_noise,
    toeplitz_cov,
)

from _helpers import (
    BracketError,
    br_numeric,
    oracle_br_context,
    random_desk_model,
    random_profile,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestBRContext:
    def test_scalar_model(self, scalar_model):
        ctx = br_context(scalar_model, 0, [0.0])
        assert ctx.alpha == pytest.approx(0.5, abs=1e-12)
        assert ctx.beta == pytest.approx(0.5, abs=1e-12)
        assert ctx.gamma == pytest.approx(1.0, abs=1e-12)  # A = I, gamma = c
        assert ctx.s == pytest.approx(2.0)
        assert ctx.c == pytest.approx(1.0)

    def test_diagonal_model_alpha_equals_beta(self):
        # Orthogonal sensing rows make Sigma_YY diagonal, so with no
        # other attackers alpha_i = 1/s_i = beta_i.
        model = build_model(np.eye(2), np.eye(2), 0.5)
        for i in range(2):
            ctx = br_context(model, i, np.zeros(2))
            assert ctx.alpha == pytest.approx(1.0 / ctx.s, abs=1e-12)
            assert ctx.beta == pytest.approx(1.0 / ctx.s, abs=1e-12)

    def test_invariants_on_random_instances(self, rng):
        for _ in range(30):
            model = random_desk_model(rng)
            v = random_profile(rng, model)
            i = int(rng.integers(0, model.m))
            ctx = br_context(model, i, v)
            assert ctx.alpha > 0
            assert ctx.beta > 0
            assert ctx.alpha <= ctx.beta + 1e-12
            assert ctx.s >= model.sigma2
            assert ctx.c == pytest.approx(ctx.s - model.sigma2, rel=1e-12)
            assert ctx.gamma > 0

    def test_own_entry_ignored(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        other = v.copy()
        other[2] = 123.0
        assert br_context(ring3_model, 2, v) == br_context(ring3_model, 2, other)

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
                assert ctx.alpha == pytest.approx(ref.alpha, rel=1e-12, abs=0.0)
                assert ctx.gamma == pytest.approx(ref.gamma, rel=1e-12, abs=0.0)
                assert (ctx.beta, ctx.s, ctx.c) == (ref.beta, ref.s, ref.c)

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
                alpha = br_context(model, i, v).alpha
                assert abs(alpha - ref) <= 1e-13 * abs(ref)


class TestClosedForms:
    def test_g1_scalar_golden_ratio(self, scalar_model):
        ctx = br_context(scalar_model, 0, [0.0])
        assert br_g1(ctx, 1.0, 2.0) == pytest.approx(GOLDEN, abs=1e-12)

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
    def test_zero_weight_degenerates(self, scalar_model, game):
        ctx = br_context(scalar_model, 0, [0.0])
        solver = br_g2 if game == 2 else br_g3
        with pytest.warns(RuntimeWarning, match="no finite best response"):
            assert solver(ctx, 1.0, 0.0) == V_MAX

    def test_numeric_oracle_rejects_zero_weight(self, scalar_model):
        with pytest.raises(BracketError):
            br_numeric(GameSpec(2, 0.0), scalar_model, 0, [0.0])

    def test_g3_literal_variant_differs(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        i = 1
        ctx = br_context(ring3_model, i, v)
        default = br_g3(ctx, ring3_model.sigma2, 2.0)
        literal = br_g3(ctx, ring3_model.sigma2, 2.0, literal=True)
        assert default >= 0 and literal >= 0
        if abs(ctx.alpha - ctx.gamma) > 1e-9:
            assert default != literal


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
