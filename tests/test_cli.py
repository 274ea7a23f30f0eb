import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stealthgame.cli as cli
from stealthgame.cli import _fmt, main
from stealthgame.dynamics import NonFiniteUpdateError, run_brd
from stealthgame.games import GameSpec, potential
from stealthgame.grid import (
    build_dc_jacobian,
    bundled_case,
    parse_network,
    serialize_network,
)
from stealthgame.model import (
    StatePriorSpec,
    build_model,
    calibrate_noise,
    toeplitz_cov,
)

from _helpers import chain_network, mp_profile_responses, naive_trajectory_lines

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

IEEE9 = bundled_case("ieee9")
MODEL_FLAGS = ["--case", IEEE9, "--rho", "0.9", "--snr-db", "30"]


@pytest.fixture
def scalar_matrix(tmp_path):
    """Matrix file giving the m = n = 1 analytic toy system."""
    path = tmp_path / "unit.mat"
    path.write_text("1\n")
    return str(path)


def scalar_flags(scalar_matrix):
    return ["--h-matrix", scalar_matrix, "--rho", "0", "--sigma2", "1"]


class TestBuild:
    def test_ieee9_summary(self, capsys):
        assert main(["build", *MODEL_FLAGS]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["m"] == 18
        assert summary["n"] == 8
        assert summary["snr_db"] == pytest.approx(30.0, abs=1e-9)

    def test_two_bus_with_zero_rho(self, tmp_path, capsys):
        case = tmp_path / "two.net"
        case.write_text("bus 2\nslack 1\nbranch 1 2 10.0\n")
        rc = main(["build", "--case", str(case), "--rho", "0", "--snr-db", "10"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["m"], summary["n"]) == (3, 1)

    def test_missing_file_exits_4(self, capsys):
        rc = main(["build", "--case", "/nonexistent.net", "--rho", "0.9",
                   "--snr-db", "30"])
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    def test_noise_flags_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["build", *MODEL_FLAGS, "--sigma2", "1"])
        assert excinfo.value.code == 2

    def test_noise_flag_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["build", "--case", IEEE9, "--rho", "0.9"])
        assert excinfo.value.code == 2

    def test_malformed_case_exits_4(self, tmp_path, capsys):
        case = tmp_path / "bad.net"
        case.write_text("bus 2\nbranch 1 5 1.0\n")
        rc = main(["build", "--case", str(case), "--rho", "0", "--snr-db", "10"])
        assert rc == 4
        assert "dangling" in capsys.readouterr().err

    @pytest.mark.parametrize("name,text,message", [
        ("bad.net", "# c\nbus 3\nbranch 1 2 1\nbranch 2 2 1\n",
         "line 4: branch 2: from_bus equals to_bus"),
        ("split.net", "bus 4\nbranch 1 2 1\nbranch 3 4 1\n",
         "branch graph is not connected"),
        ("empty.net", "# no buses\n", "missing bus declaration"),
        ("ragged.mat", "1 0\n1\n", "line 2: ragged row"),
        ("empty.mat", "# nothing\n", "empty matrix file"),
        ("zero.mat", "0 0\n0 0\n", "tr(H Sigma_XX H^T) must be positive"),
        ("huge.mat", "1e300 0\n0 1\n", "H Sigma_XX H^T overflows"),
        ("huge-bus.net", "bus 999999999999999999999999999999\nbranch 1 2 1\n",
         "branch graph is not connected"),
        ("undecodable.net", b"bus 2\nbranch 1 2 1 # \xff\n", "'utf-8' codec can't decode"),
        ("undecodable.mat", b"1 \xff\n", "'utf-8' codec can't decode"),
        ("two-value.net", "bus 2\nbranch 1 2\n",
         "line 2: branch needs <from> <to> <value>"),
        ("bus-args.net", "# c\nbus 3 4\nbranch 1 2 1\n",
         "line 2: expected 1 argument(s) for bus"),
    ], ids=["self-loop", "disconnected", "no-bus", "ragged", "empty-matrix",
            "zero-matrix", "overflowing-matrix", "huge-bus-count", "undecodable-case",
            "undecodable-matrix", "two-value-branch", "two-argument-bus"])
    def test_file_errors_name_the_file(self, tmp_path, capsys, name, text, message):
        # Under either noise flag: --sigma2 reaches build_model without
        # calibrate_noise.
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        flag = "--case" if name.endswith(".net") else "--h-matrix"
        for noise in (["--snr-db", "10"], ["--sigma2", "1"]):
            rc = main(["build", flag, str(path), "--rho", "0", *noise])
            out, err = capsys.readouterr()
            assert (rc, out) == (4, "")
            assert err.startswith(f"error: {path}: {message}")


class TestRun:
    def test_scalar_toy_reaches_analytic_ne(self, tmp_path, scalar_matrix, capsys):
        out = tmp_path / "toy"
        rc = main(["run", *scalar_flags(scalar_matrix), "--game", "1",
                   "--lambda", "2", "--out", str(out)])
        assert rc == 0
        ne = json.loads((tmp_path / "toy.ne.json").read_text())
        assert ne["converged"] is True
        assert ne["v_star"][0] == pytest.approx(GOLDEN, abs=1e-6)

    def test_lambda_bound_is_usage_error(self, tmp_path, scalar_matrix):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *scalar_flags(scalar_matrix), "--game", "1",
                  "--lambda", "0.5", "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2

    def test_deterministic_outputs(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", *MODEL_FLAGS, "--game", "2", "--lambda", "1.5",
                         "--out", str(out)]) == 0
        for ext in (".trajectory.csv", ".ne.json"):
            assert (tmp_path / f"a{ext}").read_bytes() == (
                tmp_path / f"b{ext}"
            ).read_bytes()

    @pytest.mark.parametrize("game", [1, 3])
    def test_trajectory_csv_is_every_cell_formatted(
        self, tmp_path, capsys, monkeypatch, game
    ):
        # The writer formats only each record's moved cell; at m = 149 its
        # lines must equal a rendering of every cell of every record.
        case = tmp_path / "chain60.net"
        case.write_text(serialize_network(chain_network(60)))
        runs = []

        def recording_run_brd(*args, **kwargs):
            runs.append(run_brd(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "run_brd", recording_run_brd)
        out = tmp_path / "chain"
        assert main(["run", "--case", str(case), "--rho", "0.9", "--snr-db", "30",
                     "--game", str(game), "--lambda", "2", "--out", str(out)]) == 0
        (_, trajectory, _), = runs
        assert len(trajectory[0].v_snapshot) == 149
        with open(tmp_path / "chain.trajectory.csv", encoding="utf-8", newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        assert lines[1:] == naive_trajectory_lines(trajectory)

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        rc = main(["run", *MODEL_FLAGS, "--game", "1", "--lambda", "2",
                   "--tmax", "1", "--tol", "1e-14",
                   "--out", str(tmp_path / "short")])
        assert rc == 3
        ne = json.loads((tmp_path / "short.ne.json").read_text())
        assert ne["converged"] is False

    @pytest.mark.parametrize("game", [2, 3])
    @pytest.mark.parametrize(
        "lam,tol", [("1e-300", "1e-9"), ("1e-300", "1e140"), ("1e300", "1e-9")]
    )
    def test_extreme_weight_reaches_the_finite_equilibrium(
        self, tmp_path, capsys, ieee9_model, game, lam, tol
    ):
        # At lam = 1e-300 the equilibrium variances are about 1e151, where
        # doubles are 1e135 apart; the dynamics reach a profile that a
        # round leaves unchanged, so the default tolerance is met as well
        # as one of the variances' scale.
        out = tmp_path / "extreme"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", *MODEL_FLAGS, "--game", str(game), "--lambda", lam,
                       "--tol", tol, "--out", str(out)])
        assert rc == 0
        ne = json.loads((tmp_path / "extreme.ne.json").read_text())
        assert ne["converged"] is True
        v = np.array(ne["v_star"])
        assert np.all(np.isfinite(v))
        responses = mp_profile_responses(ieee9_model, GameSpec(game, float(lam)), v)
        np.testing.assert_allclose(v, responses, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "matrix, noise",
        [
            # sigma2 = 1e299 and gamma = 1e300: gamma (sigma2 + gamma0)
            # overflows unless the game-1 root is solved at a smaller scale.
            ("1e150\n", ["--snr-db", "10"]),
            # Beside sigma2 = 1e200 the tiny gains overflow nothing and must
            # not be scaled away: player 2's response is about 5e-131.
            ("1e50 0\n0 1e-65\n", ["--sigma2", "1e200"]),
            ("1e-58\n", ["--sigma2", "1e200"]),
        ],
    )
    def test_extreme_scale_game_1_reaches_the_finite_equilibrium(
        self, tmp_path, capsys, matrix, noise
    ):
        path = tmp_path / "extreme.mat"
        path.write_text(matrix)
        out = tmp_path / "extreme"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--h-matrix", str(path), "--rho", "0.5", *noise,
                       "--game", "1", "--lambda", "2", "--out", str(out)])
        assert rc == 0
        ne = json.loads((tmp_path / "extreme.ne.json").read_text())
        assert ne["converged"] is True
        H = np.array([row.split() for row in matrix.splitlines()], dtype=float)
        Sigma_XX = toeplitz_cov(StatePriorSpec(H.shape[1], 0.5))
        sigma2 = (calibrate_noise(H, Sigma_XX, float(noise[1]))
                  if noise[0] == "--snr-db" else float(noise[1]))
        model = build_model(H, Sigma_XX, sigma2)
        responses = mp_profile_responses(model, GameSpec(1, 2.0), ne["v_star"])
        assert min(responses) > 0.0
        np.testing.assert_allclose(ne["v_star"], responses, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("game", [2, 3])
    def test_extreme_scale_games_2_and_3_reach_the_finite_equilibrium(
        self, tmp_path, capsys, game
    ):
        # Beside sigma2 = 1e299 and gamma = 1e300 the cubics' products
        # overflow unless they are solved at a smaller scale; the game-1,
        # game-2 and game-3 equilibria are all 6.93e299.
        path = tmp_path / "huge.mat"
        path.write_text("1e150\n")
        out = tmp_path / "huge"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--h-matrix", str(path), "--rho", "0.5", "--snr-db", "10",
                       "--game", str(game), "--lambda", "2", "--out", str(out)])
        assert rc == 0
        ne = json.loads((tmp_path / "huge.ne.json").read_text())
        assert ne["converged"] is True
        H = np.array([[1e150]])
        Sigma_XX = toeplitz_cov(StatePriorSpec(1, 0.5))
        model = build_model(H, Sigma_XX, calibrate_noise(H, Sigma_XX, 10.0))
        responses = mp_profile_responses(model, GameSpec(game, 2.0), ne["v_star"])
        assert responses[0] > 1e299
        np.testing.assert_allclose(ne["v_star"], responses, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("game", [1, 2, 3])
    def test_tiny_scale_reaches_the_finite_equilibrium(self, tmp_path, capsys, game):
        # At sigma2 = 1e-300 the products of the scalars underflow unless
        # they are solved at a larger scale; every game's equilibrium is
        # sigma2 (5^(1/2) - 1) / 2 = 6.18e-301, not 0.
        path = tmp_path / "tiny.mat"
        path.write_text("1e-150\n")
        out = tmp_path / "tiny"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--h-matrix", str(path), "--rho", "0.5", "--sigma2", "1e-300",
                       "--game", str(game), "--lambda", "2", "--out", str(out)])
        assert rc == 0
        ne = json.loads((tmp_path / "tiny.ne.json").read_text())
        model = build_model(np.array([[1e-150]]), toeplitz_cov(StatePriorSpec(1, 0.5)), 1e-300)
        responses = mp_profile_responses(model, GameSpec(game, 2.0), ne["v_star"])
        assert responses[0] > 6e-301
        np.testing.assert_allclose(ne["v_star"], responses, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "k, sigma2, tol",
        [
            # Squares of the switched gain's terms underflowed: 6 of the 18
            # variances were written as 0.
            (-400, "2.6087471678852601e-242", "1e-250"),
            # They overflowed: player 12's gain was NaN and the run exited 4.
            (300, "7.2181502875203385e+179", "%.17g" % math.ldexp(1e-9, 600)),
        ],
    )
    def test_game_3_in_other_units_scales_the_equilibrium(
        self, tmp_path, capsys, k, sigma2, tol
    ):
        # The README's game-3 run with H times 2^k, written exactly, and
        # sigma2 (30 dB) times 4^k: v* is the README v* times 4^k.
        with open(IEEE9, encoding="utf-8") as fh:
            H = np.ldexp(build_dc_jacobian(parse_network(fh.read())).H, k)
        path = tmp_path / "scaled.mat"
        path.write_text("".join(" ".join("%.17g" % x for x in row) + "\n" for row in H))
        game = ["--game", "3", "--lambda", "2"]
        assert main(["run", *MODEL_FLAGS, *game, "--out", str(tmp_path / "unit")]) == 0
        rc = main(["run", "--h-matrix", str(path), "--rho", "0.9", "--sigma2", sigma2,
                   *game, "--tol", tol, "--out", str(tmp_path / "scaled")])
        assert rc == 0
        unit = json.loads((tmp_path / "unit.ne.json").read_text())
        scaled = json.loads((tmp_path / "scaled.ne.json").read_text())
        assert scaled["rounds"] == unit["rounds"] == 12
        assert min(scaled["v_star"]) > 0.0
        np.testing.assert_array_equal(scaled["v_star"], np.ldexp(unit["v_star"], 2 * k))

    def test_trajectory_roundtrip_reproduces_potential(self, tmp_path, capsys):
        out = tmp_path / "rt"
        assert main(["run", *MODEL_FLAGS, "--game", "3", "--lambda", "2",
                     "--out", str(out)]) == 0
        lines = [
            ln
            for ln in (tmp_path / "rt.trajectory.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        header = lines[0].split(",")
        v_cols = [k for k, name in enumerate(header) if name.startswith("v_")]
        pot_col = header.index("potential")

        with open(IEEE9, encoding="utf-8") as fh:
            jac = build_dc_jacobian(parse_network(fh.read()))
        Sigma_XX = toeplitz_cov(StatePriorSpec(8, 0.9))
        model = build_model(
            jac.H, Sigma_XX, calibrate_noise(jac.H, Sigma_XX, 30.0)
        )
        spec = GameSpec(3, 2.0)
        for row in lines[1:]:
            cells = row.split(",")
            v = np.array([float(cells[k]) for k in v_cols])
            recorded = float(cells[pot_col])
            assert abs(potential(spec, model, v) - recorded) <= 1e-12


class TestRemovedFlag:
    @pytest.mark.parametrize("game", ["1", "2", "3"])
    @pytest.mark.parametrize("command,weight", [("run", "--lambda"),
                                                ("sweep", "--lambda-list")],
                             ids=["run", "sweep"])
    def test_br3_literal_is_a_usage_error(self, tmp_path, capsys, command, weight, game):
        # Each game has one best response, so no flag selects another.
        with pytest.raises(SystemExit) as excinfo:
            main([command, *MODEL_FLAGS, "--game", game, weight, "2", "--br3-literal",
                  "--out", str(tmp_path / "lit")])
        assert excinfo.value.code == 2
        assert "--br3-literal" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestZeroWeight:
    # Games 2 and 3 have no equilibrium at lambda = 0.
    @pytest.mark.parametrize("command,game,weights", [
        ("run", "2", ["--lambda", "0"]),
        ("sweep", "3", ["--lambda-list", "0,1"]),
    ], ids=["run", "sweep"])
    def test_usage_error_writes_no_file(self, tmp_path, capsys, command, game,
                                        weights):
        with pytest.raises(SystemExit) as excinfo:
            main([command, *MODEL_FLAGS, "--game", game, *weights,
                  "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2
        assert "lam must be positive, got 0.0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    @pytest.mark.parametrize("weights,message", [
        ("1,x", "bad --lambda-list '1,x'"),
        (" , ", "--lambda-list must contain at least one value"),
    ], ids=["non-numeric", "empty"])
    def test_bad_lambda_list_is_usage_error(self, tmp_path, capsys, weights, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *MODEL_FLAGS, "--game", "1", "--lambda-list", weights,
                  "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_tradeoff_monotone_on_small_case(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", *MODEL_FLAGS, "--game", "1",
                   "--lambda-list", "1,2,5,10", "--out", str(out)])
        assert rc == 0
        rows = [
            ln.split(",")
            for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("lambda")
        ]
        assert len(rows) == 4
        kl = [float(r[5]) for r in rows]
        mi = [float(r[4]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(kl, kl[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(mi, mi[1:]))

    def test_single_lambda_single_row(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert main(["sweep", *MODEL_FLAGS, "--game", "2",
                     "--lambda-list", "3.5", "--out", str(out)]) == 0
        rows = [
            ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("lambda")
        ]
        assert len(rows) == 1

    def test_deterministic(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "sa.csv", tmp_path / "sb.csv"
        for out in (out_a, out_b):
            assert main(["sweep", *MODEL_FLAGS, "--game", "1",
                         "--lambda-list", "5,1,2", "--out", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_rows_sorted_by_lambda(self, tmp_path, capsys):
        out = tmp_path / "sorted.csv"
        assert main(["sweep", *MODEL_FLAGS, "--game", "1",
                     "--lambda-list", "5,1,2", "--out", str(out)]) == 0
        lams = [
            float(ln.split(",")[0])
            for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("lambda")
        ]
        assert lams == sorted(lams)

    @pytest.mark.parametrize("game", ["1", "2", "3"])
    def test_rows_are_the_run_summaries(self, tmp_path, capsys, game):
        """Each sweep row is, byte for byte, the summary of ``run``'s NE
        file at the same weight, its round count last."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *MODEL_FLAGS, "--game", game,
                     "--lambda-list", "1,2,5,10", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[5:]
        for row, lam in zip(rows, ["1", "2", "5", "10"], strict=True):
            prefix = tmp_path / f"run{lam}"
            assert main(["run", *MODEL_FLAGS, "--game", game,
                         "--lambda", lam, "--out", str(prefix)]) == 0
            ne = json.loads((tmp_path / f"run{lam}.ne.json").read_text())
            v = np.array(ne["v_star"])
            cells = [float(lam), np.min(v), np.mean(v), np.max(v),
                     ne["mi_global"], ne["kl_global"]]
            assert row == ",".join([*map(_fmt, cells), str(ne["rounds"])])

    def test_failed_run_leaves_no_csv(self, tmp_path, capsys, monkeypatch):
        calls = []

        def failing_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise NonFiniteUpdateError("non-finite update", [])
            return run_brd(*args, **kwargs)

        monkeypatch.setattr(cli, "run_brd", failing_second)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *MODEL_FLAGS, "--game", "1",
                     "--lambda-list", "1,2,5", "--out", str(out)]) == 4
        assert "non-finite update" in capsys.readouterr().err
        assert len(calls) == 2
        assert not out.exists()

    def test_unconverged_sweep_exits_3_with_every_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *MODEL_FLAGS, "--game", "1", "--tmax", "1",
                     "--lambda-list", "1,2,5,10", "--out", str(out)]) == 3
        lines = out.read_text().splitlines()
        assert lines[4] == "lambda,v_min,v_mean,v_max,mi_global,kl_global,rounds"
        rows = [ln.split(",") for ln in lines[5:]]
        assert [(row[0], row[-1]) for row in rows] == [(lam, "1") for lam in "1 2 5 10".split()]


class TestDetect:
    @pytest.fixture
    def ne_file(self, tmp_path, capsys):
        out = tmp_path / "eq"
        assert main(["run", *MODEL_FLAGS, "--game", "1", "--lambda", "1",
                     "--out", str(out)]) == 0
        return str(tmp_path / "eq.ne.json")

    def test_roc_file_shape(self, tmp_path, ne_file, capsys):
        out = tmp_path / "roc.csv"
        rc = main(["detect", *MODEL_FLAGS, "--ne", ne_file,
                   "--samples", "2000", "--seed", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert any("kl_global=" in ln for ln in lines if ln.startswith("#"))
        rows = [ln for ln in lines if ln and not ln.startswith(("#", "tau"))]
        assert len(rows) == 101
        for row in rows:
            tau, alpha_hat, beta_hat = map(float, row.split(","))
            assert tau > 0
            assert 0.0 <= alpha_hat <= 1.0
            assert 0.0 <= beta_hat <= 1.0

    def test_clean_profile_indistinguishable(self, tmp_path, capsys):
        ne = tmp_path / "zero.ne.json"
        ne.write_text(json.dumps({"v_star": [0.0] * 18}))
        out = tmp_path / "flat.csv"
        rc = main(["detect", *MODEL_FLAGS, "--ne", str(ne),
                   "--samples", "10000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        for row in out.read_text().splitlines():
            if row and not row.startswith(("#", "tau")):
                _, alpha_hat, beta_hat = map(float, row.split(","))
                assert 0.95 <= alpha_hat + beta_hat <= 1.05

    def test_nonfinite_profile_exits_4(self, tmp_path, capsys):
        ne = tmp_path / "nan.ne.json"
        ne.write_text(json.dumps({"v_star": [0.0] * 17 + [math.nan]}))
        rc = main(["detect", *MODEL_FLAGS, "--ne", str(ne),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        assert "finite" in capsys.readouterr().err

    def test_missing_ne_file_exits_4(self, tmp_path, capsys):
        rc = main(["detect", *MODEL_FLAGS, "--ne", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 4

    def test_deterministic(self, tmp_path, ne_file, capsys):
        out_a, out_b = tmp_path / "ra.csv", tmp_path / "rb.csv"
        for out in (out_a, out_b):
            assert main(["detect", *MODEL_FLAGS, "--ne", ne_file,
                         "--samples", "2000", "--seed", "9",
                         "--out", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_auc_orders_with_weight(self, tmp_path, capsys):
        # The lam=1 equilibrium has larger joint divergence than the
        # lam=10 one, so its empirical ROC dominates.
        def curve_auc(path):
            points = [(0.0, 1.0)]  # (alpha, detection) as tau -> inf
            for row in path.read_text().splitlines():
                if row and not row.startswith(("#", "tau")):
                    _, a, b = map(float, row.split(","))
                    points.append((a, 1.0 - b))
            points.append((1.0, 1.0))
            points.sort()
            return sum(
                0.5 * (y0 + y1) * (x1 - x0)
                for (x0, y0), (x1, y1) in zip(points, points[1:])
            )

        aucs = {}
        for lam in ("1", "10"):
            prefix = tmp_path / f"lam{lam}"
            assert main(["run", *MODEL_FLAGS, "--game", "1", "--lambda", lam,
                         "--out", str(prefix)]) == 0
            roc = tmp_path / f"roc{lam}.csv"
            assert main(["detect", *MODEL_FLAGS,
                         "--ne", str(prefix) + ".ne.json",
                         "--samples", "4000", "--seed", "3",
                         "--out", str(roc)]) == 0
            aucs[lam] = curve_auc(roc)
        assert aucs["1"] >= aucs["10"]


def run_module(argv, cwd):
    """``python -m stealthgame.cli`` in a fresh process, with Python's
    default warning filters, under which a RuntimeWarning prints to stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "stealthgame.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


# Caps the process's own address space at 3 GiB before numpy is imported,
# so an allocation too large for memory fails at once with MemoryError.
CAPPED_MAIN = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from stealthgame.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestOutOfMemory:
    """An input too large for memory exits 4 with one line, naming the file
    when the file is too large; each command runs in a fresh process that
    caps its own memory, never without the cap."""

    def run_capped(self, argv, cwd):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_network_too_large_for_a_dense_jacobian(self, tmp_path):
        # A connected 100,000-bus chain: H would take 149 GiB.
        path = tmp_path / "chain.net"
        path.write_text("bus 100000\nslack 1\n"
                        + "".join(f"branch {k} {k + 1} x:0.1\n" for k in range(1, 100000)))
        proc = self.run_capped(["build", "--case", str(path), "--rho", "0.5",
                                "--snr-db", "30"], tmp_path)
        assert proc.returncode == 4
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: {path}: out of memory")

    def test_sample_count_too_large(self, tmp_path, capsys):
        ne = tmp_path / "g1"
        assert main(["run", *MODEL_FLAGS, "--game", "1", "--lambda", "2", "--out", str(ne)]) == 0
        proc = self.run_capped(["detect", *MODEL_FLAGS, "--ne", f"{ne}.ne.json",
                                "--samples", "1000000000000", "--out", "roc.csv"], tmp_path)
        assert proc.returncode == 4
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: out of memory")
        assert not (tmp_path / "roc.csv").exists()


class TestModuleEntryPoint:
    """``python -m stealthgame.cli`` in a fresh process prints what an
    in-process :func:`main` prints and exits with its code."""

    @pytest.mark.parametrize("argv,code", [
        (["build", *MODEL_FLAGS], 0),
        (["run", *MODEL_FLAGS, "--game", "2", "--lambda", "0", "--out", "x"], 2),
    ], ids=["build", "run-zero-weight"])
    def test_matches_in_process_main(self, tmp_path, capsys, monkeypatch, argv,
                                     code):
        monkeypatch.chdir(tmp_path)
        proc = run_module(argv, tmp_path)
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        assert (proc.returncode, rc) == (code, code)
        assert (proc.stdout, proc.stderr) == (out, err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("noise", [["--snr-db", "30"], ["--sigma2", "1"]],
                             ids=["snr-db", "sigma2"])
    def test_overflowing_matrix_prints_one_line(self, tmp_path, noise):
        # numpy's overflow warning stays off stderr, and the error names
        # the matrix, not the SNR.
        path = tmp_path / "huge.mat"
        path.write_text("1e300 0\n0 1\n")
        proc = run_module(["build", "--h-matrix", str(path), "--rho", "0.9",
                           *noise], tmp_path)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: {path}: H Sigma_XX H^T overflows: H or Sigma_XX entries too large"
        ]
