import math

import numpy as np
import pytest

import stealthgame.dynamics as dynamics
from stealthgame.dynamics import (
    NonFiniteUpdateError,
    potential_audit,
    run_brd,
    verify_ne,
)
from stealthgame.bestresponse import br_context
from stealthgame.games import GameSpec
from stealthgame.metrics import kl_global, mi_global
from stealthgame.model import attacked_cov, build_model

from _helpers import logdet, oracle_br_context, random_desk_model

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestRunBrd:
    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_scalar_analytic_equilibrium(self, scalar_model, game):
        spec = GameSpec(game, 2.0)
        v_star, trajectory, report = run_brd(spec, scalar_model)
        assert report.converged
        assert report.rounds_used <= 3
        assert v_star[0] == pytest.approx(GOLDEN, abs=1e-6)

    def test_origin_fixed_point_converges_in_one_round(
        self, ring3_model, monkeypatch
    ):
        # When every best response is 0 the all-zeros start is a fixed
        # point and the first round already certifies convergence.
        monkeypatch.setattr(
            dynamics, "respond", lambda spec, ctx, sigma2, br3_literal=False: 0.0
        )
        v_star, _, report = run_brd(GameSpec(1, 2.0), ring3_model)
        assert report.converged
        assert report.rounds_used == 1
        np.testing.assert_array_equal(v_star, 0.0)

    def test_huge_weight_shrinks_equilibrium(self, ring3_model):
        # As the detectability weight grows the equilibrium attack
        # vanishes (it never reaches exactly zero from a clean start).
        v_star, _, report = run_brd(GameSpec(1, 1e6), ring3_model)
        assert report.converged
        assert np.max(v_star) < 1e-4

    def test_multistart_uniqueness(self, ring3_model, rng):
        spec = GameSpec(1, 2.0)
        reference, _, _ = run_brd(spec, ring3_model, tol=1e-8)
        scale = 10.0 * float(np.mean(np.diag(ring3_model.Sigma_YY)))
        for _ in range(10):
            v0 = rng.uniform(0.0, scale, size=ring3_model.m)
            v_star, _, report = run_brd(spec, ring3_model, v0=v0, tol=1e-8)
            assert report.converged
            assert np.max(np.abs(v_star - reference)) <= 1e-5

    def test_player_order_invariance_via_relabeling(self, ring3_model):
        # Reversing the measurement labels reverses the round-robin
        # order; the unique NE must be the same profile relabeled.
        spec = GameSpec(2, 1.5)
        v_fwd, _, _ = run_brd(spec, ring3_model)
        flipped = build_model(
            ring3_model.H[::-1].copy(), ring3_model.Sigma_XX, ring3_model.sigma2
        )
        v_rev, _, _ = run_brd(spec, flipped)
        assert np.max(np.abs(v_rev[::-1] - v_fwd)) <= 1e-5

    def test_trajectory_structure(self, ring3_model):
        spec = GameSpec(3, 2.0)
        v_star, trajectory, report = run_brd(spec, ring3_model)
        first = trajectory[0]
        assert first.round == 0 and first.player == -1
        np.testing.assert_allclose(first.v_snapshot, 0.0)
        for prev, rec in zip(trajectory, trajectory[1:]):
            changed = np.flatnonzero(rec.v_snapshot != prev.v_snapshot)
            assert changed.size <= 1
            if changed.size == 1:
                assert changed[0] == rec.player
        np.testing.assert_allclose(trajectory[-1].v_snapshot, v_star)

    def test_tmax_cap_reports_nonconvergence(self, ring3_model):
        spec = GameSpec(1, 2.0)
        _, _, report = run_brd(spec, ring3_model, t_max=1, tol=1e-12)
        assert not report.converged
        assert report.rounds_used == 1
        assert report.max_delta_last_round >= 1e-12

    def test_argument_validation(self, ring3_model):
        spec = GameSpec(1, 2.0)
        with pytest.raises(ValueError, match="t_max"):
            run_brd(spec, ring3_model, t_max=0)
        with pytest.raises(ValueError, match="tol"):
            run_brd(spec, ring3_model, tol=0.0)
        with pytest.raises(ValueError, match="tol"):
            run_brd(spec, ring3_model, tol=math.inf)
        with pytest.raises(ValueError, match="nonnegative"):
            run_brd(spec, ring3_model, v0=-np.ones(6))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_start_rejected(self, ring3_model, bad):
        v0 = np.zeros(6)
        v0[3] = bad
        with pytest.raises(ValueError, match="finite"):
            run_brd(GameSpec(1, 2.0), ring3_model, v0=v0)

    def test_nonfinite_update_aborts_with_trajectory(
        self, ring3_model, monkeypatch
    ):
        calls = {"n": 0}

        def broken(spec, ctx, sigma2, br3_literal=False):
            calls["n"] += 1
            return math.nan if calls["n"] == 3 else 0.1

        monkeypatch.setattr(dynamics, "respond", broken)
        with pytest.raises(NonFiniteUpdateError) as excinfo:
            run_brd(GameSpec(1, 2.0), ring3_model)
        # start + 2 good updates + the diagnostic record for the abort
        assert len(excinfo.value.trajectory) == 4


# v* of the 9-bus case (rho 0.9, 30 dB) at lambda 2, as solved by m-by-m
# factorizations per update before the n-by-n kernel replaced them.
IEEE9_LAM2_NE = {
    1: (0.057953755179357164, 0.03284867265253803, 0.023283981246716698,
        0.05722161608527056, 0.03458387755870622, 0.03917621243291408,
        0.057483428078129395, 0.02708651948873153, 0.03532085182458661,
        0.057953755180863986, 0.0574834280792076, 0.057221616086801375,
        0.17449653396539108, 0.12886444188085017, 0.17181652797918529,
        0.13057127203922864, 0.1715971022230807, 0.12945556575602607),
    2: (0.14338655073652262, 0.11097758985079054, 0.10090177418214807,
        0.1429519457274182, 0.11278583817829713, 0.11766905629747271,
        0.14308813631987505, 0.1044686887039461, 0.11434149198839805,
        0.14338655074516282, 0.14308813632442252, 0.14295194573560366,
        0.28023632873691895, 0.22513354140164665, 0.2774764473438154,
        0.22734489532240332, 0.27682084037860477, 0.22781492788044488),
    3: (146.0087372660637, 12.044852948281914, 3.7878191643976606,
        66.81581752002239, 10.754604626912624, 19.928604383021593,
        101.63499960303307, 4.633351744210813, 49.07624316960573,
        146.0087372660637, 101.63499960303307, 66.81581752002239,
        280.41994524002075, 17.00535919610411, 100.44059264659882,
        32.48108794167638, 156.217143535614, 65.79098871350288),
}


class TestKernelDynamics:
    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_ieee9_equilibria_unchanged(self, ieee9_model, game):
        v_star, _, report = run_brd(GameSpec(game, 2.0), ieee9_model)
        assert report.converged
        np.testing.assert_allclose(v_star, IEEE9_LAM2_NE[game], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_records_match_fresh_metrics(self, ieee9_model, game):
        v_star, trajectory, _ = run_brd(GameSpec(game, 2.0), ieee9_model)
        last = trajectory[-1]
        assert last.mi_global == pytest.approx(
            mi_global(ieee9_model, v_star), rel=1e-13, abs=0.0
        )
        assert last.kl_global == pytest.approx(
            kl_global(ieee9_model, v_star), rel=1e-13, abs=0.0
        )
        # Records between refactors come from rank-one updates.
        for rec in trajectory[1:]:
            assert rec.mi_global == pytest.approx(
                mi_global(ieee9_model, rec.v_snapshot), rel=1e-11, abs=0.0
            )
            assert rec.kl_global == pytest.approx(
                kl_global(ieee9_model, rec.v_snapshot), rel=1e-11, abs=0.0
            )

    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_rank_deficient_prior(self, rng, game):
        n, m = 4, 9
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        Sigma_XX = (basis * np.array([2.0, 1.0, 0.5, 0.0])) @ basis.T
        Sigma_XX = 0.5 * (Sigma_XX + Sigma_XX.T)
        model = build_model(rng.standard_normal((m, n)), Sigma_XX, 0.05)
        v_star, trajectory, report = run_brd(GameSpec(game, 2.0), model)
        assert report.converged
        assert report.ne_residual <= 1e-8
        assert potential_audit(trajectory) == []
        for i in range(m):
            ctx, ref = br_context(model, i, v_star), oracle_br_context(model, i, v_star)
            assert ctx.alpha == pytest.approx(ref.alpha, rel=1e-12, abs=0.0)
            assert ctx.gamma == pytest.approx(ref.gamma, rel=1e-11, abs=0.0)
        mi_mxm = 0.5 * (
            logdet(attacked_cov(model, v_star))
            - np.sum(np.log(model.sigma2 + v_star))
        )
        assert mi_global(model, v_star) == pytest.approx(mi_mxm, rel=1e-12)


class TestVerifyNe:
    def test_run_output_is_fixed_point(self, ring3_model):
        for game in (1, 2, 3):
            spec = GameSpec(game, 2.0)
            v_star, _, report = run_brd(spec, ring3_model, tol=1e-9)
            assert verify_ne(spec, ring3_model, v_star) <= 10.0 * 1e-9

    def test_origin_is_not_equilibrium_at_moderate_weight(self, ring3_model):
        spec = GameSpec(1, 2.0)
        assert verify_ne(spec, ring3_model, np.zeros(6)) > 0.0

    def test_perturbed_equilibrium_has_displaced_residual(self, ring3_model):
        spec = GameSpec(1, 2.0)
        v_star, _, _ = run_brd(spec, ring3_model)
        bumped = v_star.copy()
        bumped[2] += 0.1
        assert verify_ne(spec, ring3_model, bumped) >= 0.09


class TestPotentialAudit:
    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_brd_trajectories_never_raise_potential(self, ring3_model, game):
        spec = GameSpec(game, 2.0)
        _, trajectory, _ = run_brd(spec, ring3_model)
        assert potential_audit(trajectory) == []

    def test_constant_trajectory_is_clean(self, ring3_model):
        # Restarting from the equilibrium changes nothing, so every
        # snapshot repeats and the audit stays empty.
        spec = GameSpec(1, 2.0)
        v_star, _, _ = run_brd(spec, ring3_model)
        _, trajectory, report = run_brd(spec, ring3_model, v0=v_star)
        assert report.rounds_used == 1
        assert potential_audit(trajectory) == []

    def test_fabricated_increase_is_flagged(self, ring3_model):
        spec = GameSpec(1, 2.0)
        _, trajectory, _ = run_brd(spec, ring3_model)
        doctored = list(trajectory)
        rec = doctored[3]
        doctored[3] = type(rec)(
            round=rec.round,
            player=rec.player,
            v_snapshot=rec.v_snapshot,
            potential=doctored[2].potential + 1e-6,
            mi_global=rec.mi_global,
            kl_global=rec.kl_global,
        )
        flagged = potential_audit(doctored)
        assert flagged and flagged[0][0] == 3
