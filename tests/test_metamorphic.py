"""Metamorphic tests: a change of units is an exact symmetry of the games.

With ``H -> 2^k H`` and ``sigma2 -> 4^k sigma2`` every variance of the
model scales by ``4^k`` and every metric is unchanged, and the games are
homogeneous of degree 1 in the variances, so the equilibrium scales as
``v* -> 4^k v*``.  A power-of-two scale commutes with every
floating-point step while no intermediate leaves the normal range, so
with ``tol`` scaled by ``4^k`` as well the relation holds bit for bit,
with the same round count.  It needs no reference solution, so it
reaches models too large for the 50-digit ones.

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
