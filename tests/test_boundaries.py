"""Non-finite and out-of-range input at the library and CLI boundaries."""

import json
import math
import warnings

import numpy as np
import pytest

from stealthgame.bestresponse import br_context
from stealthgame.cli import main
from stealthgame.detection import llr_local
from stealthgame.games import GameSpec
from stealthgame.grid import (
    Branch,
    BusNetwork,
    NetworkFormatError,
    bundled_case,
    load_matrix,
    parse_network,
)
from stealthgame.metrics import kl_local, mi_local
from stealthgame.model import build_model

MODEL_FLAGS = ["--case", bundled_case("ieee9"), "--rho", "0.9", "--snr-db", "30"]
NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteWeight:
    @pytest.mark.parametrize("game", [1, 2, 3])
    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_game_spec_rejects(self, game, lam):
        with pytest.raises(ValueError, match="finite"):
            GameSpec(game, lam)

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_run_exits_2(self, tmp_path, capsys, lam):
        out = tmp_path / "g2"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *MODEL_FLAGS, "--game", "2", f"--lambda={lam}",
                  "--out", str(out)])
        assert excinfo.value.code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "g2.ne.json").exists()

    def test_sweep_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *MODEL_FLAGS, "--game", "1", "--lambda-list",
                  "2,nan", "--out", str(tmp_path / "s.csv")])
        assert excinfo.value.code == 2


class TestScalarValidators:
    @pytest.mark.parametrize("v_i", NON_FINITE)
    def test_local_metrics_reject_non_finite_variance(self, ring3_model, v_i):
        with pytest.raises(ValueError, match="finite"):
            kl_local(ring3_model, 0, v_i)
        with pytest.raises(ValueError, match="finite"):
            mi_local(ring3_model, 0, v_i)
        with pytest.raises(ValueError, match="finite"):
            llr_local(ring3_model, 0, v_i, 0.3)

    def test_negative_variance_still_rejected(self, ring3_model):
        for func in (kl_local, mi_local):
            with pytest.raises(ValueError, match="nonnegative"):
                func(ring3_model, 0, -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            llr_local(ring3_model, 0, -1.0, 0.3)

    @pytest.mark.parametrize("i", [-1, 6])
    def test_index_out_of_range(self, ring3_model, i):
        with pytest.raises(IndexError, match="outside"):
            llr_local(ring3_model, i, 1.0, 0.3)
        with pytest.raises(IndexError, match="outside"):
            kl_local(ring3_model, i, 1.0)
        with pytest.raises(IndexError, match="outside"):
            br_context(ring3_model, i, np.zeros(6))


class TestDegenerateDetectInput:
    def test_overflowing_profile_exits_4(self, tmp_path, capsys):
        ne = tmp_path / "huge.ne.json"
        ne.write_text(json.dumps({"v_star": [1e308] * 18}))
        out = tmp_path / "roc.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warnings either
            rc = main(["detect", *MODEL_FLAGS, "--ne", str(ne),
                       "--samples", "2000", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert str(ne) in err
        assert "kl_global" in err
        assert not out.exists()


class TestNonFiniteModelInput:
    @pytest.mark.parametrize("sigma2", NON_FINITE)
    def test_build_model_rejects_noise(self, sigma2):
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            build_model([[1.0]], [[1.0]], sigma2)

    @pytest.mark.parametrize("sigma2", [1e-320, 5e-324])
    def test_build_model_rejects_subnormal_noise(self, sigma2):
        with pytest.raises(ValueError, match="reciprocal overflows"):
            build_model(np.eye(3), np.eye(3), sigma2)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_build_model_rejects_matrix_entries(self, bad):
        with pytest.raises(ValueError, match="H entries must be finite"):
            build_model([[1.0, bad]], np.eye(2), 1.0)
        with pytest.raises(ValueError, match="Sigma_XX entries must be finite"):
            build_model(np.eye(2), [[1.0, bad], [bad, 1.0]], 1.0)

    def test_build_model_rejects_overflowing_signal(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="overflows"):
                build_model([[1e200]], [[1.0]], 1.0)

    @pytest.mark.parametrize("b", NON_FINITE)
    def test_bus_network_rejects_susceptance(self, b):
        with pytest.raises(NetworkFormatError, match="branch 1: susceptance"):
            BusNetwork(n_bus=2, slack=1, branches=(Branch(1, 2, b),))

    @pytest.mark.parametrize("value", ["inf", "nan", "x:1e-320"])
    def test_network_file_names_the_line(self, value):
        with pytest.raises(NetworkFormatError, match="line 3: .*susceptance"):
            parse_network(f"bus 2\n# comment\nbranch 1 2 {value}\n")

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_matrix_file_names_the_line(self, token):
        with pytest.raises(NetworkFormatError, match="line 2: .*finite"):
            load_matrix(f"1 0\n0 {token}\n")

    @pytest.mark.parametrize("value", ["inf", "x:1e-320"])
    def test_build_exits_4_on_case(self, tmp_path, capfd, value):
        case = tmp_path / "bad.net"
        case.write_text(f"bus 3\nbranch 1 2 1.0\nbranch 2 3 {value}\n")
        rc = main(["build", "--case", str(case), "--rho", "0.9", "--snr-db", "30"])
        out, err = capfd.readouterr()
        assert rc == 4
        assert out == ""  # no summary, and no LAPACK complaint either
        assert "line 3" in err and "susceptance" in err

    def test_build_exits_4_on_matrix_file(self, tmp_path, capfd):
        mat = tmp_path / "h.mat"
        mat.write_text("1 0\nnan 1\n")
        rc = main(["build", "--h-matrix", str(mat), "--rho", "0.5",
                   "--sigma2", "1"])
        out, err = capfd.readouterr()
        assert rc == 4
        assert out == ""
        assert "line 2" in err and "finite" in err

    def test_build_exits_4_on_noise(self, capsys):
        rc = main(["build", *MODEL_FLAGS[:4], "--sigma2", "nan"])
        assert rc == 4
        assert "sigma2" in capsys.readouterr().err

    def test_build_exits_4_on_subnormal_noise(self, tmp_path, capfd):
        mat = tmp_path / "h.mat"
        mat.write_text("1 0 0\n0 1 0\n0 0 1\n")
        rc = main(["build", "--h-matrix", str(mat), "--rho", "0.5",
                   "--sigma2", "1e-320"])
        out, err = capfd.readouterr()
        assert rc == 4
        assert out == ""
        assert "sigma2" in err and "reciprocal overflows" in err

    @pytest.mark.parametrize("value", ["x:inf", "x:nan", "x:-inf"])
    def test_nonfinite_reactance_names_the_line(self, value):
        with pytest.raises(NetworkFormatError,
                           match=r"^line 3: reactance must be finite and positive"):
            parse_network(f"bus 2\n# comment\nbranch 1 2 {value}\n")


class TestNonFiniteTolerance:
    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_run_exits_4(self, tmp_path, capsys, tol):
        out = tmp_path / "g1"
        rc = main(["run", *MODEL_FLAGS, "--game", "1", "--lambda", "2",
                   "--tol", tol, "--out", str(out)])
        assert rc == 4
        assert "tol" in capsys.readouterr().err
        assert not (tmp_path / "g1.ne.json").exists()
