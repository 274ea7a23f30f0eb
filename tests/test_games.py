import math

import numpy as np
import pytest

from stealthgame.games import GameSpec, cost, potential
from stealthgame.metrics import kl_global, mi_global, mi_local

from _helpers import clean_cov, random_desk_model, random_profile

HALF_LN2 = 0.5 * math.log(2.0)


class TestGameSpec:
    def test_game1_weight_floor(self):
        with pytest.raises(ValueError, match="lam >= 1"):
            GameSpec(1, 0.0)
        with pytest.raises(ValueError, match="lam >= 1"):
            GameSpec(1, 0.99)
        GameSpec(1, 1.0)

    @pytest.mark.parametrize("game", [2, 3])
    def test_games_2_3_need_positive_weight(self, game):
        # At lam = 0 a player's cost strictly decreases in its own
        # variance: there is no equilibrium to solve for.
        for lam in (0.0, -0.0, -0.1):
            with pytest.raises(ValueError, match="positive"):
                GameSpec(game, lam)
        assert GameSpec(game, 5e-324).lam == 5e-324

    def test_game_index_validated(self):
        with pytest.raises(ValueError, match="game"):
            GameSpec(4, 2.0)

    @pytest.mark.parametrize("game", [True, np.True_, 2.0, 2.5, "2"])
    def test_game_index_must_be_an_integer(self, game):
        with pytest.raises(ValueError, match="game must be an integer"):
            GameSpec(game, 2.0)

    @pytest.mark.parametrize("game", [np.int64(2), np.int32(3), np.uint8(1)])
    def test_numpy_integer_game_index_accepted(self, game):
        assert GameSpec(game, 2.0).game == game

    @pytest.mark.parametrize("lam", [True, False, np.True_, "2", None, 1 + 0j])
    def test_weight_must_be_a_real_number(self, lam):
        with pytest.raises(ValueError, match="lam must be a real number"):
            GameSpec(3, lam)

    @pytest.mark.parametrize("lam", [2, np.float32(2.0), np.int64(2)])
    def test_integer_and_numpy_weights_accepted(self, lam):
        assert GameSpec(1, lam).lam == lam


class TestCost:
    def test_game1_scalar_composition(self, scalar_model):
        # v = 0 so the KL term vanishes and only (1/2) ln 2 remains.
        spec = GameSpec(1, 2.0)
        assert cost(spec, scalar_model, 0, [0.0]) == pytest.approx(HALF_LN2, abs=1e-12)

    def test_all_games_coincide_for_single_measurement(self, scalar_model, rng):
        for _ in range(20):
            v = [float(rng.uniform(0, 5))]
            lam = float(rng.uniform(1, 5))
            values = {
                p: cost(GameSpec(p, lam), scalar_model, 0, v) for p in (1, 2, 3)
            }
            assert values[1] == pytest.approx(values[2], abs=1e-12)
            assert values[1] == pytest.approx(values[3], abs=1e-12)

    def test_game1_cost_is_player_independent(self, ring3_model, rng):
        spec = GameSpec(1, 1.5)
        v = random_profile(rng, ring3_model)
        values = [cost(spec, ring3_model, i, v) for i in range(ring3_model.m)]
        assert max(values) - min(values) == 0.0

    def test_assembled_from_metric_operations(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        lam = 2.5
        assert cost(GameSpec(1, lam), ring3_model, 4, v) == pytest.approx(
            mi_global(ring3_model, v) + lam * kl_global(ring3_model, v), abs=1e-13
        )
        assert cost(GameSpec(2, lam), ring3_model, 4, v) == pytest.approx(
            mi_local(ring3_model, 4, v[4]) + lam * kl_global(ring3_model, v),
            abs=1e-13,
        )


class TestPotential:
    def test_game1_potential_is_the_common_cost(self, ring3_model, rng):
        spec = GameSpec(1, 2.0)
        v = random_profile(rng, ring3_model)
        for i in range(ring3_model.m):
            assert potential(spec, ring3_model, v) == pytest.approx(
                cost(spec, ring3_model, i, v), abs=1e-13
            )

    def test_game2_zero_profile(self, ring3_model):
        spec = GameSpec(2, 3.0)
        expected = sum(
            0.5 * math.log1p(ring3_model.c[j] / ring3_model.sigma2)
            for j in range(ring3_model.m)
        )
        assert potential(spec, ring3_model, np.zeros(6)) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("game,lam", [(1, 1.5), (2, 0.8), (3, 2.3)])
    def test_exact_potential_identity(self, game, lam, rng):
        # Unilateral deviation changes the potential exactly as it
        # changes the deviating player's cost.
        spec = GameSpec(game, lam)
        for _ in range(100):
            model = random_desk_model(rng, m_max=7)
            v = random_profile(rng, model)
            i = int(rng.integers(0, model.m))
            x = float(rng.uniform(0, 5))
            deviated = v.copy()
            deviated[i] = x
            d_cost = cost(spec, model, i, v) - cost(spec, model, i, deviated)
            d_pot = potential(spec, model, v) - potential(spec, model, deviated)
            assert abs(d_cost - d_pot) <= 1e-10


class TestConvexityAndDerivative:
    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_own_variance_convexity(self, game, rng):
        # Central second differences of t -> cost(..., v with v_i = t).
        for _ in range(10):
            model = random_desk_model(rng, m_max=7)
            lam = float(rng.uniform(1.0, 6.0))
            spec = GameSpec(game, lam)
            v = random_profile(rng, model)
            i = int(rng.integers(0, model.m))
            grid = np.linspace(0.05, 4.0 * float(model.s[i]), 12)
            h = 1e-3 * (1.0 + grid)
            for t, ht in zip(grid, h):
                vals = []
                for tt in (t - ht, t, t + ht):
                    w = v.copy()
                    w[i] = tt
                    vals.append(cost(spec, model, i, w))
                second = (vals[0] - 2.0 * vals[1] + vals[2]) / (ht * ht)
                assert second >= -1e-8

    def test_logdet_derivative_identity(self, rng):
        # d/dv_i log|G diag(1/(sigma2+v)) + I| against the closed form
        # -gamma / ((sigma2+v_i)(sigma2+v_i+gamma)).
        from stealthgame.bestresponse import br_context

        for _ in range(10):
            model = random_desk_model(rng, m_max=7)
            v = random_profile(rng, model)
            i = int(rng.integers(0, model.m))
            G = clean_cov(model).Sigma_YY - model.sigma2 * np.eye(model.m)

            def logdet_term(v_i):
                w = v.copy()
                w[i] = v_i
                mat = G * (1.0 / (model.sigma2 + w))[np.newaxis, :] + np.eye(model.m)
                return np.linalg.slogdet(mat)[1]

            h = 1e-6 * (1.0 + v[i])
            fd = (logdet_term(v[i] + h) - logdet_term(v[i] - h)) / (2.0 * h)
            gamma = br_context(model, i, v).gamma
            u = model.sigma2 + v[i]
            formula = -gamma / (u * (u + gamma))
            assert fd == pytest.approx(formula, rel=1e-6)
