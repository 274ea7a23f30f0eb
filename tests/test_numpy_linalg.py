"""The package's linear algebra runs on numpy alone.

A fresh import of the command line loads no scipy; the numpy forms of
the Toeplitz prior, the diagonal of Sigma_YY^{-1} and the joint LLR
agree with direct evaluations and with 50-digit references; an
equilibrium does not depend on the BLAS thread count beyond rounding,
nor a detection draw on numpy's SIMD dispatch of float64 ``tan``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stealthgame
from stealthgame.cli import main
from stealthgame.detection import llr_joint, llr_samples, sample_observations
from stealthgame.dynamics import run_brd
from stealthgame.games import GameSpec
from stealthgame.grid import bundled_case
from stealthgame.model import StatePriorSpec, build_model, toeplitz_cov

from _helpers import clean_cov, random_desk_model


def _fresh_env(**extra):
    """The environment for a fresh interpreter that imports this package."""
    src = str(Path(stealthgame.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def test_cli_import_loads_no_scipy():
    env = _fresh_env()
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
            np.diag(np.linalg.inv(clean_cov(model).Sigma_YY)),
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
        clean = mpmath.matrix(clean_cov(model).Sigma_YY.tolist())
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


# Games 1 and 3 at lambda = 2 on the benchmark's 240-bus network (m = 599),
# printed as JSON: {game: [rounds, v*]}.  bench/synthnet.py is read, and
# -B leaves no bytecode next to it.
_SOLVE_M599 = """
import json, sys
sys.path.insert(0, sys.argv[1])
import synthnet
from stealthgame.dynamics import run_brd
from stealthgame.games import GameSpec
from stealthgame.grid import build_dc_jacobian, parse_network
from stealthgame.model import StatePriorSpec, build_model, calibrate_noise, toeplitz_cov

H = build_dc_jacobian(parse_network(synthnet.network_text(240, 1))).H
Sigma_XX = toeplitz_cov(StatePriorSpec(H.shape[1], 0.9))
model = build_model(H, Sigma_XX, calibrate_noise(H, Sigma_XX, 30.0))
out = {}
for game in (1, 3):
    v, _, report = run_brd(GameSpec(game, 2.0), model)
    out[game] = [report.rounds_used, v.tolist()]
print(json.dumps(out))
"""


def test_equilibria_agree_across_blas_thread_counts():
    """Reruns are byte-identical for one BLAS thread count only: at
    m = 599 the eigh and GEMM of the model build already round
    differently with 2 threads.  Across thread counts the rounds agree
    and v* agrees to 1e-12 of max v; bits are not compared."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    runs = [
        subprocess.Popen(
            [sys.executable, "-B", "-c", _SOLVE_M599, bench],
            env=_fresh_env(**{name: threads for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}),
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    ]
    outputs = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    one, two = (json.loads(output) for output in outputs)
    for game in ("1", "3"):
        (rounds_one, v_one), (rounds_two, v_two) = one[game], two[game]
        assert rounds_one == rounds_two
        v_one, v_two = np.array(v_one), np.array(v_two)
        assert np.max(np.abs(v_one - v_two)) <= 1e-12 * np.max(v_one)


def _avx512_dispatch_targets() -> list[str]:
    """The AVX-512 entries of numpy's SIMD dispatch that this CPU runs."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [
        name for name in __cpu_dispatch__
        if ("AVX512" in name or name == "X86_V4") and __cpu_features__.get(name)
    ]


# One llr_samples draw saved to argv[1], then each detect command of the
# JSON list in argv[2].
_DRAW_AND_DETECT = """
import json, sys
import numpy as np
from stealthgame.cli import main
from stealthgame.detection import llr_samples
from stealthgame.model import build_model

np.save(sys.argv[1], llr_samples(build_model(np.eye(2), np.eye(2), 1.0), [2.0, 6.0], 100_000, 12))
sys.exit(max(main(argv) for argv in json.loads(sys.argv[2])))
"""


def test_draws_agree_without_avx512(tmp_path):
    """llr_samples forms cos^2 from np.tan and its exponentials from
    np.log, which numpy dispatches to AVX-512 loops where the CPU has
    them.  With that dispatch disabled the
    draw agrees to 1e-12 of its largest value, and the README's detect
    runs (games 1-3 at lambda = 2, seeds 1-3, 10,000 samples) give the
    same alpha_hat and beta_hat columns, tau to 1e-12 relative."""
    disabled = _avx512_dispatch_targets()
    if not disabled:
        pytest.skip("numpy dispatches no AVX-512 loop on this CPU")
    flags = ["--case", bundled_case("ieee9"), "--rho", "0.9", "--snr-db", "30"]
    for game in (1, 2, 3):
        assert main(["run", *flags, "--game", str(game), "--lambda", "2",
                     "--out", str(tmp_path / f"g{game}")]) == 0

    def detect_runs(tag):
        return [["detect", *flags, "--ne", str(tmp_path / f"g{game}.ne.json"),
                 "--samples", "10000", "--seed", str(seed),
                 "--out", str(tmp_path / f"{tag}_g{game}_s{seed}.csv")]
                for game in (1, 2, 3) for seed in (1, 2, 3)]

    run = subprocess.Popen(
        [sys.executable, "-c", _DRAW_AND_DETECT, str(tmp_path / "draw.npy"),
         json.dumps(detect_runs("off"))],
        env=_fresh_env(NPY_DISABLE_CPU_FEATURES=" ".join(disabled)),
    )
    draw = np.array(llr_samples(build_model(np.eye(2), np.eye(2), 1.0), [2.0, 6.0], 100_000, 12))
    assert all(main(argv) == 0 for argv in detect_runs("on"))
    assert run.wait(timeout=120) == 0
    assert np.max(np.abs(np.load(tmp_path / "draw.npy") - draw)) <= 1e-12 * np.max(np.abs(draw))
    for on, off in zip(detect_runs("on"), detect_runs("off")):
        (tau_on, *errors_on), (tau_off, *errors_off) = (
            np.array([row.split(",") for row in Path(argv[-1]).read_text().splitlines()
                      if not row.startswith(("#", "tau"))], dtype=float).T
            for argv in (on, off))
        np.testing.assert_array_equal(errors_off, errors_on)
        np.testing.assert_allclose(tau_off, tau_on, rtol=1e-12, atol=0.0)
