"""Metamorphic tests: exact symmetries of the games as oracles.

With ``H -> 2^k H`` and ``sigma2 -> 4^k sigma2`` every variance of the
model scales by ``4^k`` and every metric is unchanged, and the games are
homogeneous of degree 1 in the variances, so the equilibrium scales as
``v* -> 4^k v*``.  A power-of-two scale commutes with every
floating-point step while no intermediate leaves the normal range, so
with ``tol`` scaled by ``4^k`` as well the relation holds bit for bit,
with the same round count.

The metrics depend on (H, Sigma_XX) only through ``H Sigma_XX H^T``, so
two more changes leave the game itself unchanged: reordering the
measurements (``H -> P H`` permutes ``v*`` by P) and a change of state
basis (``H -> H T``, ``Sigma_XX -> T^-1 Sigma_XX T^-T`` leaves ``v*``).
These hold to rounding, so they are checked with ``tol`` at ``1e-13`` of
``max v*`` (and at least 1e-13), to within ``1e-13`` of ``max v*``.  None of the relations needs a reference
solution, so they reach models too large for the 50-digit ones.  A
mutation check shows the order relation has teeth: with each gain
perturbed by an amount that depends on the measurement's index, it
fails.

The networks are the bundled 9-bus case and the benchmark's synthetic
60-bus network (m = 149), read from ``bench/synthnet.py`` without
writing anything under ``bench/``.
"""

import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import stealthgame.model as model_module
from stealthgame.dynamics import DEFAULT_TOL, run_brd
from stealthgame.games import GameSpec
from stealthgame.grid import build_dc_jacobian, bundled_case, parse_network
from stealthgame.model import (
    StatePriorSpec,
    build_model,
    calibrate_noise,
    toeplitz_cov,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
SCALES = [-400, -250, -100, 100, 250, 300, 400]
SNR_DB = 30.0


def _load_synthnet():
    spec = importlib.util.spec_from_file_location("bench_synthnet", BENCH / "synthnet.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _network_text(name: str) -> str:
    if name == "ieee9":
        with open(bundled_case("ieee9"), encoding="utf-8") as fh:
            return fh.read()
    return _load_synthnet().network_text(60, 1)


@functools.cache
def _unit_model(name: str):
    """H, Sigma_XX (rho = 0.9) and the 30 dB noise variance of a network."""
    H = build_dc_jacobian(parse_network(_network_text(name))).H
    Sigma_XX = toeplitz_cov(StatePriorSpec(H.shape[1], 0.9))
    return H, Sigma_XX, calibrate_noise(H, Sigma_XX, SNR_DB)


@functools.cache
def _solve(name: str, game: int, k: int):
    """v* and the round count of the network scaled by 2^k, tol by 4^k."""
    H, Sigma_XX, sigma2 = _unit_model(name)
    model = build_model(np.ldexp(H, k), Sigma_XX, math.ldexp(sigma2, 2 * k))
    v_star, _, report = run_brd(
        GameSpec(game, 2.0), model, tol=math.ldexp(DEFAULT_TOL, 2 * k)
    )
    assert report.converged
    return v_star, report.rounds_used


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("game", [1, 2, 3])
@pytest.mark.parametrize("name", ["ieee9", "synth60"])
def test_equilibrium_scales_exactly_with_the_units(name, game, k):
    v_unit, rounds_unit = _solve(name, game, 0)
    v_scaled, rounds_scaled = _solve(name, game, k)
    assert rounds_scaled == rounds_unit
    np.testing.assert_array_equal(v_scaled, np.ldexp(v_unit, 2 * k))
    assert np.all(v_scaled > 0)


RELATION_TOL = 1e-13
GAMES = [1, 2, 3]


@functools.cache
def _relation_tol(name: str, game: int) -> float:
    """RELATION_TOL times the largest entry of v* (at least 1).  Game 3's
    v* reaches 1.3e3 at m = 149, where an absolute 1e-13 is below one ulp
    of it."""
    spec = GameSpec(game, 2.0)
    v_star = run_brd(spec, build_model(*_unit_model(name)))[0]
    return RELATION_TOL * max(1.0, float(np.max(v_star)))


def _equilibrium(name, H, Sigma_XX, sigma2, game):
    spec, tol = GameSpec(game, 2.0), _relation_tol(name, game)
    v_star, _, report = run_brd(spec, build_model(H, Sigma_XX, sigma2), tol=tol)
    assert report.converged
    return v_star


@functools.cache
def _unit_equilibrium(name: str, game: int):
    return _equilibrium(name, *_unit_model(name), game)


def _assert_close(v, reference):
    """v within RELATION_TOL of max(reference), entry by entry."""
    gap = np.max(np.abs(v - reference)) / np.max(reference)
    assert gap <= RELATION_TOL, f"gap {gap:.2e} of max v*"


@pytest.mark.parametrize("game", GAMES)
@pytest.mark.parametrize("name", ["ieee9", "synth60"])
def test_reordering_the_measurements_permutes_the_equilibrium(name, game):
    H, Sigma_XX, sigma2 = _unit_model(name)
    order = np.random.default_rng(12).permutation(H.shape[0])
    v_star = _equilibrium(name, H[order], Sigma_XX, sigma2, game)
    _assert_close(v_star, _unit_equilibrium(name, game)[order])


@pytest.mark.parametrize("game", GAMES)
@pytest.mark.parametrize("name", ["ieee9", "synth60"])
def test_a_change_of_state_basis_leaves_the_equilibrium(name, game):
    # T = Q diag(d) R with orthogonal Q, R and d in [1, 2]: cond T <= 2.
    H, Sigma_XX, sigma2 = _unit_model(name)
    rng = np.random.default_rng(13)
    n = H.shape[1]
    Q, R = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    T = (Q * rng.uniform(1.0, 2.0, n)) @ R
    T_inv = np.linalg.inv(T)
    prior = T_inv @ Sigma_XX @ T_inv.T
    v_star = _equilibrium(name, H @ T, 0.5 * (prior + prior.T), sigma2, game)
    _assert_close(v_star, _unit_equilibrium(name, game))


def _gap(v, reference) -> float:
    """max |v - reference| over max(reference), as _assert_close bounds it."""
    return float(np.max(np.abs(v - reference)) / np.max(reference))


@pytest.mark.parametrize("game", GAMES)
@pytest.mark.parametrize("name", ["ieee9", "synth60"])
def test_an_index_dependent_gain_breaks_the_measurement_order(monkeypatch, name, game):
    # A mutation check: gamma_i * (1 + 2^-30 i / m) ties each gain to the
    # measurement's index, so reordering the measurements no longer
    # reorders the game, and the relation above must fail.  The same
    # perturbation with i / m replaced by 1 treats every index alike, and
    # the relation must still hold: it is the index that breaks it.
    H, Sigma_XX, sigma2 = _unit_model(name)
    order = np.random.default_rng(12).permutation(H.shape[0])
    _relation_tol(name, game)  # cached before the mutation
    kernel_gain = model_module.kernel_gain

    def solve_both(share):
        def perturbed(B, w, inv, i):
            u, gamma = kernel_gain(B, w, inv, i)
            return u, gamma * (1.0 + 2.0**-30 * share(i, B.shape[0]))

        with monkeypatch.context() as patch:
            patch.setattr(model_module, "kernel_gain", perturbed)
            reference = _equilibrium(name, H, Sigma_XX, sigma2, game)
            reordered = _equilibrium(name, H[order], Sigma_XX, sigma2, game)
        return _gap(reordered, reference[order])

    assert solve_both(lambda i, m: i / m) > 100.0 * RELATION_TOL
    assert solve_both(lambda i, m: 1.0) <= RELATION_TOL
