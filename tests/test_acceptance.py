"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS] criterion N`` line on success (run
with ``pytest tests/test_acceptance.py -v -s`` to see them).  Stated
tolerances are pinned here and nowhere else.  Monte-Carlo checks use
fixed seeds so the whole suite is deterministic.
"""

import json
import math

import numpy as np
import pytest

from stealthgame.bestresponse import best_response
from stealthgame.cli import main
from stealthgame.detection import roc_auc
from stealthgame.dynamics import AUDIT_THRESHOLD, potential_audit, run_brd, verify_ne
from stealthgame.games import GameSpec, cost, potential
from stealthgame.grid import bundled_case
from stealthgame.metrics import kl_global, kl_local, mi_global, mi_local

from _helpers import (
    br_numeric,
    clean_cov,
    mc_kl_oracle,
    mc_mi_oracle,
    oracle_mi_joint,
    oracle_mi_local_joint,
    random_desk_model,
    random_profile,
    single_row_submodel,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _ok(text):
    print(f"[PASS] {text}")


def test_criterion_1_metric_oracle_agreement():
    """Closed-form metrics match independent Gaussian oracles.

    20 random models with m <= 20: the joint-covariance route must agree
    to within floating-point error, the Monte-Carlo expected-log-ratio
    estimators (N = 1e5) to within 3 standard errors.
    """
    rng = np.random.default_rng(20240601)
    n_samples = 100_000
    for _ in range(20):
        model = random_desk_model(rng, m_max=20)
        v = random_profile(rng, model)

        mi = mi_global(model, v)
        assert mi == pytest.approx(oracle_mi_joint(model, v), rel=1e-9, abs=1e-10)

        est_mi = mc_mi_oracle(model, v, n_samples, seed=int(rng.integers(2**31)))
        assert abs(mi - est_mi.value) <= 3.0 * est_mi.std_error

        kl = kl_global(model, v)
        est_kl = mc_kl_oracle(model, v, n_samples, seed=int(rng.integers(2**31)))
        assert abs(kl - est_kl.value) <= 3.0 * est_kl.std_error

        i = int(rng.integers(0, model.m))
        v_i = float(v[i])
        assert mi_local(model, i, v_i) == pytest.approx(
            oracle_mi_local_joint(model, i, v_i), rel=1e-9, abs=1e-12
        )
        sub = single_row_submodel(model, i)
        est_lmi = mc_mi_oracle(sub, [v_i], n_samples, seed=int(rng.integers(2**31)))
        est_lkl = mc_kl_oracle(sub, [v_i], n_samples, seed=int(rng.integers(2**31)))
        assert abs(mi_local(model, i, v_i) - est_lmi.value) <= 3.0 * est_lmi.std_error
        assert abs(kl_local(model, i, v_i) - est_lkl.value) <= 3.0 * est_lkl.std_error
    _ok("criterion 1: closed-form metrics vs independent oracles (20 models, 3 SE)")


def test_criterion_2_scalar_analytic_equilibrium(scalar_model):
    """All three games' dynamics reach v* = (sqrt(5)-1)/2 on the m=1
    model, and the three costs coincide identically there."""
    for game in (1, 2, 3):
        v_star, _, report = run_brd(GameSpec(game, 2.0), scalar_model)
        assert report.converged
        assert abs(v_star[0] - GOLDEN) <= 1e-6
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = [float(rng.uniform(0.0, 10.0))]
        lam = float(rng.uniform(1.0, 10.0))
        c1 = cost(GameSpec(1, lam), scalar_model, 0, v)
        c2 = cost(GameSpec(2, lam), scalar_model, 0, v)
        c3 = cost(GameSpec(3, lam), scalar_model, 0, v)
        assert c1 == pytest.approx(c2, abs=1e-12)
        assert c1 == pytest.approx(c3, abs=1e-12)
    _ok("criterion 2: scalar analytic NE = (sqrt(5)-1)/2 in all games")


@pytest.mark.parametrize("game,lam", [(1, 2.0), (2, 1.3), (3, 2.7)])
def test_criterion_3_exact_potential_identity(game, lam):
    """500 random unilateral deviations: |d cost - d potential| <= 1e-10."""
    rng = np.random.default_rng(100 + game)
    spec = GameSpec(game, lam)
    for _ in range(500):
        model = random_desk_model(rng, m_max=8)
        v = random_profile(rng, model)
        i = int(rng.integers(0, model.m))
        x = float(rng.uniform(0.0, 5.0))
        deviated = v.copy()
        deviated[i] = x
        d_cost = cost(spec, model, i, v) - cost(spec, model, i, deviated)
        d_pot = potential(spec, model, v) - potential(spec, model, deviated)
        assert abs(d_cost - d_pot) <= 1e-10
    _ok(f"criterion 3: exact-potential identity, game {game} (500 deviations)")


@pytest.mark.parametrize("game", [1, 2, 3])
def test_criterion_4_cost_convexity(game):
    """Second finite differences of the own-variance cost section are
    >= -1e-8 on 50 instances x 50 grid points with lam >= 1."""
    rng = np.random.default_rng(200 + game)
    for _ in range(50):
        model = random_desk_model(rng, m_max=8)
        spec = GameSpec(game, float(rng.uniform(1.0, 8.0)))
        v = random_profile(rng, model)
        i = int(rng.integers(0, model.m))
        grid = np.linspace(0.01, 5.0 * float(model.s[i]), 50)
        for t in grid:
            h = 1e-3 * (1.0 + t)
            vals = []
            for tt in (t - h, t, t + h):
                w = v.copy()
                w[i] = max(tt, 0.0)
                vals.append(cost(spec, model, i, w))
            assert (vals[0] - 2.0 * vals[1] + vals[2]) / (h * h) >= -1e-8
    _ok(f"criterion 4: convexity in own variance, game {game} (50x50)")


@pytest.mark.parametrize("game", [1, 2, 3])
def test_criterion_5_best_response_oracle_agreement(game):
    """Closed-form/root-solved best responses match the independent
    numeric minimizer within 1e-8 relative on 200 random instances."""
    rng = np.random.default_rng(42)
    for _ in range(200):
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
    _ok(f"criterion 5: best-response oracle agreement, game {game} (200 instances)")


@pytest.mark.parametrize("game", [1, 2, 3])
def test_criterion_6_equilibrium_uniqueness_and_achievability(game, ieee9_model):
    """9-bus case: 10 random starts reach one equilibrium (1e-5 inf-norm),
    the potential never rises by more than 1e-9 per update, and the
    fixed-point residual is at most 1e-7."""
    assert AUDIT_THRESHOLD == 1e-9  # the rise potential_audit flags
    spec = GameSpec(game, 2.0)
    reference, trajectory, report = run_brd(spec, ieee9_model, tol=1e-9)
    assert report.converged
    assert potential_audit(trajectory) == []
    assert report.ne_residual <= 1e-7

    rng = np.random.default_rng(300 + game)
    scale = 10.0 * float(np.mean(np.diag(clean_cov(ieee9_model).Sigma_YY)))
    for _ in range(10):
        v0 = rng.uniform(0.0, scale, size=ieee9_model.m)
        v_star, trajectory, rep = run_brd(spec, ieee9_model, v0=v0, tol=1e-9)
        assert rep.converged
        assert potential_audit(trajectory) == []
        assert float(np.max(np.abs(v_star - reference))) <= 1e-5
        assert verify_ne(spec, ieee9_model, v_star) <= 1e-7
    _ok(f"criterion 6: NE uniqueness + achievability, game {game} (9-bus, 10 starts)")


@pytest.mark.parametrize("game", [1, 2, 3])
def test_criterion_7_tradeoff_monotonicity(game, ieee9_model):
    """9-bus case, lam in {1, 2, 5, 10}: equilibrium kl_global is
    non-increasing and mi_global non-decreasing in lam."""
    kls, mis = [], []
    for lam in (1.0, 2.0, 5.0, 10.0):
        v_star, _, report = run_brd(GameSpec(game, lam), ieee9_model)
        assert report.converged
        kls.append(kl_global(ieee9_model, v_star))
        mis.append(mi_global(ieee9_model, v_star))
    assert all(a >= b - 1e-12 for a, b in zip(kls, kls[1:])), kls
    assert all(a <= b + 1e-12 for a, b in zip(mis, mis[1:])), mis
    _ok(f"criterion 7: trade-off monotone in lambda, game {game} (9-bus)")


@pytest.mark.parametrize("game", [1, 2])
def test_criterion_8_detection_consistency(game, ieee9_model):
    """The equilibrium with larger kl_global is easier to detect: joint
    LRT AUC at N = 1e4 per hypothesis orders the lam in {1, 10} pair
    with margin > 0.01.

    Games 1 and 2 are the games whose equilibria control the global KL;
    game 3 constrains only per-measurement divergences, leaving the
    joint detector saturated at AUC = 1 for both weights (no ordering
    to resolve).
    """
    v_low, _, _ = run_brd(GameSpec(game, 1.0), ieee9_model)
    v_high, _, _ = run_brd(GameSpec(game, 10.0), ieee9_model)
    kl_low = kl_global(ieee9_model, v_low)
    kl_high = kl_global(ieee9_model, v_high)
    assert kl_low > kl_high
    auc_low = roc_auc(ieee9_model, v_low, 10_000, seed=900 + game)
    auc_high = roc_auc(ieee9_model, v_high, 10_000, seed=900 + game)
    assert auc_low - auc_high > 0.01
    _ok(
        f"criterion 8: AUC({'lam=1'}) = {auc_low:.3f} > AUC(lam=10) = "
        f"{auc_high:.3f} + 0.01, game {game}"
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    """Repeating any CLI command with identical flags produces
    byte-identical output files."""
    flags = ["--case", bundled_case("ieee9"), "--rho", "0.9", "--snr-db", "30"]
    run_out = tmp_path / "eq"
    commands = {
        "run": ["run", *flags, "--game", "1", "--lambda", "2",
                "--out", str(run_out)],
        "sweep": ["sweep", *flags, "--game", "3", "--lambda-list", "1,5",
                  "--out", str(tmp_path / "sweep.csv")],
        "detect": ["detect", *flags, "--ne", str(run_out) + ".ne.json",
                   "--samples", "2000", "--seed", "11",
                   "--out", str(tmp_path / "roc.csv")],
    }
    files = ("eq.trajectory.csv", "eq.ne.json", "sweep.csv", "roc.csv")
    snapshots = []
    for _ in range(2):
        for argv in commands.values():
            assert main(argv) == 0
        snapshots.append({name: (tmp_path / name).read_bytes() for name in files})
    assert snapshots[0] == snapshots[1]
    _ok("criterion 9: CLI outputs byte-identical across repeated runs")
