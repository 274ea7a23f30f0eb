import math

import numpy as np
import pytest

from stealthgame.metrics import kl_global, kl_local, mi_global, mi_local
from stealthgame.model import build_model

from _helpers import (
    mc_kl_oracle,
    mc_mi_oracle,
    oracle_mi_joint,
    oracle_mi_local_joint,
    random_desk_model,
    random_profile,
    single_row_submodel,
)

HALF_LN2 = 0.5 * math.log(2.0)


class TestMiGlobal:
    def test_scalar_no_attack(self, scalar_model):
        assert mi_global(scalar_model, [0.0]) == pytest.approx(HALF_LN2, abs=1e-12)

    def test_scalar_with_attack(self, scalar_model):
        expected = 0.5 * math.log(4.0 / 3.0)
        assert mi_global(scalar_model, [2.0]) == pytest.approx(expected, abs=1e-12)

    def test_matches_joint_covariance_oracle(self, rng):
        for _ in range(10):
            model = random_desk_model(rng)
            v = random_profile(rng, model)
            assert mi_global(model, v) == pytest.approx(
                oracle_mi_joint(model, v), rel=1e-9, abs=1e-10
            )

    def test_two_bus_model_oracle(self):
        model = build_model([[-10.0], [-10.0], [10.0]], [[1.0]], 0.5)
        v = np.array([0.3, 0.0, 1.7])
        assert mi_global(model, v) == pytest.approx(oracle_mi_joint(model, v), rel=1e-10)

    def test_nonnegative_and_monotone(self, rng):
        for _ in range(5):
            model = random_desk_model(rng)
            v = random_profile(rng, model)
            base = mi_global(model, v)
            assert base >= 0.0
            for i in range(model.m):
                bumped = v.copy()
                bumped[i] += 0.5
                assert mi_global(model, bumped) <= base + 1e-12

    def test_profile_validation(self, scalar_model):
        with pytest.raises(ValueError):
            mi_global(scalar_model, [-0.5])


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_profile_rejected(self, ring3_model, bad):
        with pytest.raises(ValueError, match="finite"):
            mi_global(ring3_model, [0.0, bad, 0.0, 0.0, 0.0, 0.0])


class TestMiLocal:
    def test_single_measurement_equals_global(self, scalar_model):
        for v_i in (0.0, 0.7, 3.0, 100.0):
            assert mi_local(scalar_model, 0, v_i) == pytest.approx(
                mi_global(scalar_model, [v_i]), abs=1e-14
            )

    def test_vanishes_for_huge_variance(self, ring3_model):
        for i in range(ring3_model.m):
            assert mi_local(ring3_model, i, 1e9) < 1e-8

    def test_matches_local_joint_oracle(self, rng):
        for _ in range(10):
            model = random_desk_model(rng)
            i = int(rng.integers(0, model.m))
            v_i = float(rng.uniform(0, 5))
            assert mi_local(model, i, v_i) == pytest.approx(
                oracle_mi_local_joint(model, i, v_i), rel=1e-9, abs=1e-12
            )

    def test_index_out_of_range(self, ring3_model):
        with pytest.raises(IndexError):
            mi_local(ring3_model, 6, 1.0)
        with pytest.raises(IndexError):
            mi_local(ring3_model, -1, 1.0)

    def test_negative_variance(self, ring3_model):
        with pytest.raises(ValueError):
            mi_local(ring3_model, 0, -1.0)


class TestKlGlobal:
    def test_zero_profile_gives_zero(self, ring3_model):
        assert kl_global(ring3_model, np.zeros(6)) == 0.0

    def test_scalar_value(self, scalar_model):
        expected = 0.5 * (1.0 - math.log(2.0))
        assert kl_global(scalar_model, [2.0]) == pytest.approx(expected, abs=1e-12)

    def test_positive_unless_zero(self, rng):
        for _ in range(5):
            model = random_desk_model(rng)
            for _ in range(20):
                v = random_profile(rng, model, scale=1.0)
                if np.any(v > 0):
                    assert kl_global(model, v) > 0.0

    def test_matches_monte_carlo(self, ring3_model, rng):
        v = random_profile(rng, ring3_model, scale=1.0)
        estimate = mc_kl_oracle(ring3_model, v, 100_000, seed=7)
        closed = kl_global(ring3_model, v)
        assert abs(closed - estimate.value) <= 3.0 * estimate.std_error


class TestKlLocal:
    def test_zero_variance(self, ring3_model):
        assert kl_local(ring3_model, 2, 0.0) == 0.0

    def test_single_measurement_equals_global(self, scalar_model):
        for v_i in (0.0, 0.4, 2.0, 9.0):
            assert kl_local(scalar_model, 0, v_i) == pytest.approx(
                kl_global(scalar_model, [v_i]), abs=1e-14
            )

    def test_scalar_arithmetic(self, scalar_model):
        # s = 2, v = 2 -> (1/2)(1 - ln 2)
        expected = 0.5 * (1.0 - math.log(2.0))
        assert kl_local(scalar_model, 0, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(5):
            model = random_desk_model(rng)
            i = int(rng.integers(0, model.m))
            assert kl_local(model, i, float(rng.uniform(0, 10))) >= 0.0


class TestMonteCarloOracles:
    def test_kl_at_zero_profile_within_three_se(self, ring3_model):
        est = mc_kl_oracle(ring3_model, np.zeros(6), 10_000, seed=3)
        assert abs(est.value) <= 3.0 * max(est.std_error, 1e-12)

    def test_scalar_kl_against_closed_form(self, scalar_model):
        est = mc_kl_oracle(scalar_model, [2.0], 100_000, seed=11)
        expected = 0.5 * (1.0 - math.log(2.0))
        assert abs(est.value - expected) <= 3.0 * est.std_error

    def test_scalar_mi_against_closed_form(self, scalar_model):
        est = mc_mi_oracle(scalar_model, [2.0], 100_000, seed=12)
        expected = 0.5 * math.log(4.0 / 3.0)
        assert abs(est.value - expected) <= 3.0 * est.std_error

    def test_seed_determinism(self, ring3_model, rng):
        v = random_profile(rng, ring3_model)
        first = mc_mi_oracle(ring3_model, v, 10_000, seed=42)
        second = mc_mi_oracle(ring3_model, v, 10_000, seed=42)
        assert first == second
        third = mc_kl_oracle(ring3_model, v, 10_000, seed=42)
        fourth = mc_kl_oracle(ring3_model, v, 10_000, seed=42)
        assert third == fourth

    def test_sample_floor_enforced(self, scalar_model):
        with pytest.raises(ValueError, match="at least"):
            mc_mi_oracle(scalar_model, [1.0], 9_999, seed=0)
        with pytest.raises(ValueError, match="at least"):
            mc_kl_oracle(scalar_model, [1.0], 100, seed=0)

    def test_mi_oracle_needs_positive_definite_prior(self):
        # A PSD-singular prior passes model validation but cannot
        # support the state log-density the MI estimator averages.
        singular = build_model(np.eye(2), [[1.0, 1.0], [1.0, 1.0]], 1.0)
        with pytest.raises(ValueError, match="positive definite"):
            mc_mi_oracle(singular, [0.5, 0.5], 10_000, seed=0)

    def test_local_metrics_via_single_row_submodel(self, rng):
        model = random_desk_model(rng)
        i = int(rng.integers(0, model.m))
        v_i = float(rng.uniform(0.2, 3.0)) * float(model.s[i])
        sub = single_row_submodel(model, i)
        est_mi = mc_mi_oracle(sub, [v_i], 100_000, seed=21)
        est_kl = mc_kl_oracle(sub, [v_i], 100_000, seed=22)
        assert abs(mi_local(model, i, v_i) - est_mi.value) <= 3.0 * est_mi.std_error
        assert abs(kl_local(model, i, v_i) - est_kl.value) <= 3.0 * est_kl.std_error
