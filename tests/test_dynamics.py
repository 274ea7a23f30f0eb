import math
import tracemalloc

import numpy as np
import pytest

import stealthgame.dynamics as dynamics
from stealthgame.dynamics import (
    DEFAULT_TOL,
    NonFiniteUpdateError,
    potential_audit,
    run_brd,
    verify_ne,
)
from stealthgame.bestresponse import br_context
from stealthgame.games import GameSpec, potential
from stealthgame.grid import load_matrix
from stealthgame.metrics import kl_global, mi_global
from stealthgame.model import (
    CANCELLED,
    PosteriorKernel,
    StatePriorSpec,
    attacked_cov,
    build_model,
    calibrate_noise,
    kernel_gain,
    toeplitz_cov,
)

from _helpers import (
    brd_per_move,
    chain_model,
    clean_cov,
    ieee9_model_at,
    kernel_gains,
    logdet,
    low_redundancy_model,
    mp_gains,
    mp_kernel_brd,
    mp_profile_responses,
    oracle_alpha,
    oracle_br_context,
    random_desk_model,
)

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
        monkeypatch.setattr(dynamics, "respond", lambda spec, ctx, sigma2: 0.0)
        v_star, _, report = run_brd(GameSpec(1, 2.0), ring3_model)
        assert report.converged
        assert report.rounds_used == 1
        np.testing.assert_array_equal(v_star, 0.0)

    @pytest.mark.parametrize("game,rounds", [(1, 7), (2, 8), (3, 7)])
    def test_zero_sensing_row_is_never_attacked(self, game, rounds):
        # Measurement 2 senses no state (c = 0), so its best response is 0
        # whatever the others do; game 2 returns it before its cubic.
        H = load_matrix("1 0\n0 0\n0 1\n1 1\n").H
        Sigma_XX = toeplitz_cov(StatePriorSpec(2, 0.5))
        model = build_model(H, Sigma_XX, calibrate_noise(H, Sigma_XX, 20.0))
        assert model.c[1] == 0.0
        spec = GameSpec(game, 2.0)
        v_star, _, report = run_brd(spec, model)
        assert report.converged and report.rounds_used == rounds
        assert v_star[1] == 0.0 and np.all(v_star[[0, 2, 3]] > 0.0)
        assert report.ne_residual == verify_ne(spec, model, v_star) <= 1e-10
        bumped = v_star.copy()
        bumped[1] = 1.0
        assert verify_ne(spec, model, bumped) == 1.0

    def test_huge_weight_shrinks_equilibrium(self, ring3_model):
        # As the detectability weight grows the equilibrium attack
        # vanishes (it never reaches exactly zero from a clean start).
        v_star, _, report = run_brd(GameSpec(1, 1e6), ring3_model)
        assert report.converged
        assert np.max(v_star) < 1e-4

    def test_multistart_uniqueness(self, ring3_model, rng):
        spec = GameSpec(1, 2.0)
        reference, _, _ = run_brd(spec, ring3_model, tol=1e-8)
        scale = 10.0 * float(np.mean(np.diag(clean_cov(ring3_model).Sigma_YY)))
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

        def broken(spec, ctx, sigma2):
            calls["n"] += 1
            return math.nan if calls["n"] == 3 else 0.1

        monkeypatch.setattr(dynamics, "respond", broken)
        with pytest.raises(NonFiniteUpdateError) as excinfo:
            run_brd(GameSpec(1, 2.0), ring3_model)
        # start + 2 good updates + the diagnostic record for the abort
        assert len(excinfo.value.trajectory) == 4

    @pytest.mark.parametrize("player", [0, 2])
    def test_nonfinite_update_aborts_mid_round(
        self, ring3_model, monkeypatch, player
    ):
        # Call m + player + 1 fails: round 2, after `player` moves of it.
        m, spec = ring3_model.m, GameSpec(1, 2.0)
        calls = {"n": 0}

        def broken(spec, ctx, sigma2):
            calls["n"] += 1
            return math.nan if calls["n"] == m + player + 1 else 0.01 * calls["n"]

        monkeypatch.setattr(dynamics, "respond", broken)
        with pytest.raises(NonFiniteUpdateError) as excinfo:
            run_brd(spec, ring3_model)
        trajectory = excinfo.value.trajectory
        assert len(trajectory) == 1 + m + player + 1
        assert [(rec.round, rec.player) for rec in trajectory] == (
            [(0, -1)] + [(1, i) for i in range(m)] + [(2, i) for i in range(player + 1)]
        )
        for prev, rec in zip(trajectory[:-2], trajectory[1:-1]):
            assert np.flatnonzero(rec.v_snapshot != prev.v_snapshot).tolist() == [
                rec.player
            ]
        before = 0.01 * np.arange(1, m + 1)
        before[:player] = 0.01 * np.arange(m + 1, m + player + 1)
        diagnostic = trajectory[-1]
        np.testing.assert_array_equal(diagnostic.v_snapshot, before)
        np.testing.assert_array_equal(diagnostic.v_snapshot, trajectory[-2].v_snapshot)
        assert diagnostic.potential == pytest.approx(
            potential(spec, ring3_model, before), rel=1e-13, abs=0.0
        )


# v* of the 9-bus case (rho 0.9, 30 dB) at lambda 2: run_brd's rounds
# repeated in 50-digit arithmetic on the kernel's data, rounded to double
# (checked by test_golden_values_are_the_50_digit_dynamics).
IEEE9_LAM2_NE = {
    1: (0.057953755179376384, 0.03284867265252573, 0.023283981246716403,
        0.057221616085245584, 0.03458387755870389, 0.03917621243292511,
        0.057483428078108766, 0.027086519488738425, 0.03532085182456919,
        0.057953755180874915, 0.05748342807929732, 0.057221616086797426,
        0.17449653396523124, 0.12886444188082177, 0.1718165279791483,
        0.13057127203921917, 0.17159710222312538, 0.12945556575601064),
    2: (0.14338655073675194, 0.11097758985087208, 0.10090177418206285,
        0.14295194572718992, 0.11278583817862321, 0.11766905629784126,
        0.14308813631956854, 0.10446868870396253, 0.11434149198835446,
        0.14338655074515533, 0.1430881363243857, 0.1429519457357651,
        0.28023632873646187, 0.22513354140153452, 0.2774764473437032,
        0.22734489532237231, 0.2768208403787024, 0.2278149278802447),
    3: (146.00873729406607, 12.044852948302017, 3.7878191643960046,
        66.81581751850817, 10.754604626959448, 19.9286043831869,
        101.63499961719893, 4.633351744247303, 49.0762431696361,
        146.00873729407382, 101.63499961720163, 66.8158175185108,
        280.41994536687844, 17.005359196069787, 100.44059264831746,
        32.481087942366955, 156.21714356447418, 65.7909887181632),
}
IEEE9_LAM2_ROUNDS = {1: 7, 2: 8, 3: 12}


def run_bits(v, trajectory, report):
    """Every bit of a run_brd result."""
    floats = (report.max_delta_last_round, report.ne_residual)
    return (
        v.tobytes(),
        (report.converged, report.rounds_used, *map(float.hex, floats)),
        [(rec.round, rec.player, rec.v_snapshot.tobytes(),
          *map(float.hex, (rec.potential, rec.mi_global, rec.kl_global)))
         for rec in trajectory],
    )


class TestKernelDynamics:
    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_ieee9_equilibria_unchanged(self, ieee9_model, game):
        v_star, _, report = run_brd(GameSpec(game, 2.0), ieee9_model)
        assert report.converged
        np.testing.assert_allclose(v_star, IEEE9_LAM2_NE[game], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_golden_values_are_the_50_digit_dynamics(self, ieee9_model, game):
        spec = GameSpec(game, 2.0)
        v_mp, rounds = mp_kernel_brd(ieee9_model, spec, DEFAULT_TOL)
        assert rounds == IEEE9_LAM2_ROUNDS[game]
        assert run_brd(spec, ieee9_model)[2].rounds_used == rounds
        np.testing.assert_allclose(IEEE9_LAM2_NE[game], v_mp, rtol=1e-15, atol=0.0)

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
    @pytest.mark.parametrize("m", [18, 149])
    def test_records_match_fresh_potential(self, ieee9_model, m, game):
        # Players jumping from v = 0 take rank-one pivots down to 1.3e-2 in
        # game 3, which amplify any error in the pivot; update forms each
        # from gamma_i as (1 + w_new gamma_i) / (1 + w_old gamma_i), and
        # the 9-bus records stay within 4e-14.  At m = 149 the potentials
        # are up to 8 times larger and the kernel takes 149 rank-one updates
        # between refactors; its records stay within 1.7e-15 of the fresh
        # value, relative.  A round's last record is a fresh evaluation.
        model = ieee9_model if m == 18 else chain_model(60, 30.0)
        assert model.m == m
        spec = GameSpec(game, 2.0)
        _, trajectory, _ = run_brd(spec, model)
        for rec in trajectory:
            fresh = potential(spec, model, rec.v_snapshot)
            if rec.player in (-1, m - 1):
                assert rec.potential == fresh
            elif m == 18:
                assert abs(rec.potential - fresh) <= 1e-13
            else:
                assert abs(rec.potential - fresh) <= 4e-15 * fresh

    @pytest.mark.parametrize("snr", [30.0, 70.0])
    @pytest.mark.parametrize("game", [1, 2, 3])
    @pytest.mark.parametrize("lam", [1.0, 2.0, 1e3])
    def test_records_bit_identical_to_per_move_records(self, snr, game, lam):
        model = ieee9_model_at(snr)
        spec = GameSpec(game, lam)
        assert run_bits(*run_brd(spec, model)) == run_bits(*brd_per_move(spec, model))

    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_moves_bit_identical_to_the_public_path_at_m74(self, game):
        # run_brd reads the players' constants once per run and skips the
        # public solvers' weight check; nothing else may differ.
        model = chain_model(30, 30.0)
        assert model.m == 74
        spec = GameSpec(game, 2.0)
        result = run_brd(spec, model)
        assert type(result[2].max_delta_last_round) is float
        assert run_bits(*result) == run_bits(*brd_per_move(spec, model))

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
            alpha = 1.0 / (model.sigma2 + ctx.gamma)
            assert alpha == pytest.approx(
                oracle_alpha(model, i, v_star), rel=1e-12, abs=0.0)
            assert ctx.gamma == pytest.approx(ref.gamma, rel=1e-11, abs=0.0)
        mi_mxm = 0.5 * (
            logdet(attacked_cov(model, v_star))
            - np.sum(np.log(model.sigma2 + v_star))
        )
        assert mi_global(model, v_star) == pytest.approx(mi_mxm, rel=1e-12)


def tiny_noise_square_model(sigma2: float):
    """The random square H of test_model at a tiny sigma2, where
    1 - w_i q_i keeps few or no bits of a gain."""
    H = np.random.default_rng(0).standard_normal((5, 5))
    return build_model(H, toeplitz_cov(StatePriorSpec(5, 0.5)), sigma2)


class TestSingleGainRule:
    """Games 1 and 2 read gamma_i(0) through d = gamma - gamma0 and
    sigma2 + gamma0, so their equilibria are only as good as the gains;
    verify_ne reads the same gains and cannot tell."""

    @pytest.mark.parametrize("shape", ["identity", "square", "wide", "critical"])
    def test_games_1_and_2_reach_the_50_digit_equilibrium(self, shape):
        # run_brd's tol is absolute, so the bound is relative to the
        # largest variance: entries far below it stop only tol apart.
        # br_context reads the same kernel gains, and gain0 bit for bit at 0.
        def context_gains(model, v):
            return [br_context(model, i, v).gamma for i in range(model.m)]

        for snr in (60.0, 70.0, 80.0):
            model = low_redundancy_model(shape, snr)
            zero = np.zeros(model.m)
            assert context_gains(model, zero) == list(model.gain0)
            np.testing.assert_allclose(
                context_gains(model, zero), mp_gains(model, zero), rtol=1e-14, atol=0)
            for spec in (GameSpec(g, lam) for g in (1, 2) for lam in (2.0, 1e3)):
                v, _, report = run_brd(spec, model, tol=1e-15)
                assert report.converged
                ref = mp_profile_responses(model, spec, v)
                assert np.max(np.abs(v - ref)) <= 1e-13 * np.max(ref)
                kernel, gains = PosteriorKernel(model, v), mp_gains(model, v)
                each = [kernel.gain(i) for i in range(model.m)]
                np.testing.assert_allclose(
                    kernel_gains(kernel), gains, rtol=1e-14, atol=0
                )
                np.testing.assert_allclose(each, gains, rtol=1e-14, atol=0)
                np.testing.assert_allclose(
                    context_gains(model, v), gains, rtol=1e-14, atol=0)

    def test_switched_gains_along_a_game_3_trajectory(self, monkeypatch):
        # On the 9-bus case at 70 dB, q / (1 - w_i q) would be up to
        # 1.6e-7 off at the gains where the switch fires.
        model = ieee9_model_at(70.0)
        calls = []

        def recording_kernel_gain(B, w, inv, i):
            u, gamma = kernel_gain(B, w, inv, i)
            q = float(B[i] @ (inv @ B[i]))
            calls.append((i, gamma, w[i] * q > 1.0 - CANCELLED))
            return u, gamma

        monkeypatch.setattr("stealthgame.model.kernel_gain", recording_kernel_gain)
        v_star, trajectory, _ = run_brd(GameSpec(3, 2.0), model)
        # One row per move, each at the profile of the record before it,
        # then verify_ne's m rows at the equilibrium.
        profiles = [rec.v_snapshot for rec in trajectory[:-1]] + [v_star] * model.m
        assert len(calls) == len(profiles)
        switched = [(v, i, gamma) for v, (i, gamma, fired) in zip(profiles, calls) if fired]
        assert switched
        for v, i, gamma in switched:
            assert gamma == pytest.approx(mp_gains(model, v)[i], rel=1e-14, abs=0)

    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_square_h_at_tiny_noise(self, game):
        # Here 1 - w_i q keeps few or no bits of a gain, and a kernel
        # update's pivot 1 + (w_new - w_old) q, formed from q, rounds to a
        # negative number; update forms it from gamma_i.
        spec = GameSpec(game, 2.0)
        for sigma2 in (1e-13, 1e-14, 1e-15, 1e-16):
            model = tiny_noise_square_model(sigma2)
            v, _, report = run_brd(spec, model, tol=1e-15)
            assert report.converged
            ref = mp_profile_responses(model, spec, v)
            np.testing.assert_allclose(v, ref, rtol=1e-14, atol=0)


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


class TestTrajectoryStorage:
    def test_memory_is_o_of_rounds_times_m(self):
        # Records share their round's start and end profiles, so what a
        # run keeps grows by O(1) per record (O(m) per round); a profile
        # per record would add 8 m = 1.2 kB to each.  No m-by-m array is
        # formed: beyond the records, a run holds only O(m n) arrays at
        # once, the kernels' n-by-n matrices and a refactor's m-by-n
        # temporaries, 3.5 * 8 m n here.  One m-by-m array would add
        # 8 m^2 = 0.18 MB, 2.5 * 8 m n.
        model, spec = chain_model(60, 30.0), GameSpec(3, 2.0)
        assert model.m == 149
        run_brd(spec, model)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            _, trajectory, report = run_brd(spec, model)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.converged and len(trajectory) == 1 + report.rounds_used * model.m
        assert kept <= 400 * len(trajectory)
        assert peak - kept <= 5 * (8 * model.m * model.n)

    @pytest.mark.parametrize("game", [1, 3])
    def test_mutating_outputs_changes_no_record(self, ieee9_model, game):
        spec = GameSpec(game, 2.0)
        v_star, trajectory, report = run_brd(spec, ieee9_model)
        before, solved = run_bits(v_star, trajectory, report)[2], v_star.copy()
        v_star[:] = -1.0
        for rec in trajectory:
            rec.v_snapshot[:] = -2.0
        assert run_bits(v_star, trajectory, report)[2] == before
        np.testing.assert_array_equal(trajectory[-1].v_snapshot, solved)

    def test_records_share_their_round_profiles(self, ieee9_model):
        _, trajectory, report = run_brd(GameSpec(3, 2.0), ieee9_model)
        m = ieee9_model.m
        for t in range(1, report.rounds_used + 1):
            first, last = trajectory[1 + (t - 1) * m], trajectory[t * m]
            assert first.round == last.round == t
            assert all(rec.start is first.start and rec.end is first.end
                       for rec in trajectory[1 + (t - 1) * m:1 + t * m])
            assert first.start is trajectory[(t - 1) * m].end
            assert not first.end.flags.writeable
            np.testing.assert_array_equal(last.v_snapshot, last.end)


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
            start=rec.start,
            end=rec.end,
            potential=doctored[2].potential + 1e-6,
            mi_global=rec.mi_global,
            kl_global=rec.kl_global,
        )
        flagged = potential_audit(doctored)
        assert flagged and flagged[0][0] == 3

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1e-9])
    def test_threshold_validated(self, ring3_model, threshold):
        # A NaN threshold would otherwise flag nothing: rise > nan is false.
        _, trajectory, _ = run_brd(GameSpec(1, 2.0), ring3_model)
        with pytest.raises(ValueError, match="threshold"):
            potential_audit(trajectory, threshold=threshold)
