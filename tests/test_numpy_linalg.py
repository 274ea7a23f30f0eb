"""The package's linear algebra runs on numpy alone.

A fresh import of the command line loads no scipy; the numpy forms of
the Toeplitz prior, the diagonal of Sigma_YY^{-1} and the joint LLR
agree with direct evaluations and with 50-digit references.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stealthgame
from stealthgame.detection import llr_joint, sample_observations
from stealthgame.dynamics import run_brd
from stealthgame.games import GameSpec
from stealthgame.model import StatePriorSpec, toeplitz_cov

from _helpers import random_desk_model


def test_cli_import_loads_no_scipy():
    src = str(Path(stealthgame.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, stealthgame.cli; "
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("n, rho", [(1, 0.5), (5, 0.0), (8, 0.9), (13, 0.37)])
def test_toeplitz_entries_are_powers_of_the_lag(n, rho):
    first_row = rho ** np.arange(n)
    cov = toeplitz_cov(StatePriorSpec(n, rho))
    for i in range(n):
        for j in range(n):
            assert cov[i, j] == first_row[abs(i - j)]


def test_inv_diag_matches_dense_inverse(rng):
    for _ in range(10):
        model = random_desk_model(rng)
        np.testing.assert_allclose(
            1.0 / (model.sigma2 + model.gain0),
            np.diag(np.linalg.inv(model.Sigma_YY)),
            rtol=1e-12,
            atol=0.0,
        )


@pytest.mark.parametrize("lam", [2.0, 100.0])
def test_llr_joint_matches_high_precision_reference(ieee9_model, lam):
    mpmath = pytest.importorskip("mpmath")
    model = ieee9_model
    v, _, report = run_brd(GameSpec(1, lam), model)
    assert report.converged
    Y = sample_observations(model, v, 20, 7, attacked=True)
    values = llr_joint(model, v, Y)
    with mpmath.workdps(50):
        clean = mpmath.matrix(model.Sigma_YY.tolist())
        attacked = clean.copy()
        for j in range(model.m):
            attacked[j, j] += mpmath.mpf(v[j])
        logdet_ratio = mpmath.log(mpmath.det(clean) / mpmath.det(attacked))
        for y_row, value in zip(Y, values):
            y = mpmath.matrix(y_row.tolist())
            quad = (y.T * mpmath.lu_solve(clean, y))[0] - (
                y.T * mpmath.lu_solve(attacked, y)
            )[0]
            ref = 0.5 * (quad + logdet_ratio)
            assert abs(value - float(ref)) <= 2e-12
