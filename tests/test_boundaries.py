"""Non-finite and out-of-range input at the library and CLI boundaries."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from stealthgame.bestresponse import br_context, br_g1, br_g2, br_g3
from stealthgame.cli import main
from stealthgame.detection import llr_samples, roc_auc, sample_observations
from stealthgame.dynamics import run_brd
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
from stealthgame.model import PosteriorKernel, build_model, calibrate_noise

from _helpers import ieee9_model_at, llr_local

MODEL_FLAGS = ["--case", bundled_case("ieee9"), "--rho", "0.9", "--snr-db", "30"]
NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteWeight:
    @pytest.mark.parametrize("game", [1, 2, 3])
    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_game_spec_rejects(self, scalar_model, game, lam):
        # The game's solver runs the same weight check, and rejects a noise
        # variance that is not finite and positive.
        solver = (br_g1, br_g2, br_g3)[game - 1]
        ctx = br_context(scalar_model, 0, [0.0])
        with pytest.raises(ValueError, match="finite"):
            GameSpec(game, lam)
        with pytest.raises(ValueError, match="finite"):
            solver(ctx, scalar_model.sigma2, lam)
        for sigma2 in (lam, 0.0, -1.0):
            with pytest.raises(ValueError, match="sigma2 must be finite and positive"):
                solver(ctx, sigma2, 2.0)

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

    @pytest.mark.parametrize(
        "content",
        ['"v_star"', "[1, 2]", "null", '{"v_star": {"0": 1}}', '{"v_star": "123"}',
         '{"v_star": [1, "a"]}', '{"v_star": [true]}', '{"v_star": [[1, 2]]}',
         '{"v_star": [' + "9" * 400 + "]}",
         # The right length (m = 18), but not a profile.
         '{"v_star": [NaN' + ", 0" * 17 + "]}",
         '{"v_star": [Infinity' + ", 0" * 17 + "]}",
         '{"v_star": [-1' + ", 0" * 17 + "]}"],
    )
    def test_malformed_ne_file_exits_4(self, tmp_path, capsys, content):
        ne = tmp_path / "bad.ne.json"
        ne.write_text(content)
        out = tmp_path / "roc.csv"
        rc = main(["detect", *MODEL_FLAGS, "--ne", str(ne), "--samples", "2000",
                   "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert str(ne) in err and "v_star" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [b'{"v_star": [0.5, \xff]}', b'{"v_star": [1,', b"{", b"[" * 100_000],
        ids=["undecodable", "broken", "unclosed", "deeply-nested"],
    )
    def test_unreadable_ne_file_exits_4(self, tmp_path, capsys, content):
        ne = tmp_path / "bad.ne.json"
        ne.write_bytes(content)
        out = tmp_path / "roc.csv"
        rc = main(["detect", *MODEL_FLAGS, "--ne", str(ne), "--samples", "2000",
                   "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ne}: ") and err.count("\n") == 1
        assert not out.exists()


class TestDetectArguments:
    @pytest.mark.parametrize(
        "flag, value",
        [("--samples", "999"), ("--samples", "-5"), ("--grid", "0"),
         ("--grid", "-3"), ("--seed", "-1")],
    )
    def test_rejected_before_model_and_draw(self, tmp_path, capsys, flag, value):
        # Neither file exists: naming the flag shows that the arguments are
        # checked before the model is built or any sample drawn.
        out = tmp_path / "roc.csv"
        args = {"--samples": "2000", "--grid": "11", "--seed": "4", flag: value}
        rc = main(["detect", "--case", str(tmp_path / "missing.txt"), "--rho", "0.9",
                   "--snr-db", "30", "--ne", str(tmp_path / "missing.ne.json"),
                   *(tok for item in args.items() for tok in item),
                   "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert flag in err
        assert "missing" not in err
        assert not out.exists()

    def test_smallest_accepted_values(self, tmp_path):
        prefix = tmp_path / "eq"
        assert main(["run", *MODEL_FLAGS, "--game", "1", "--lambda", "2",
                     "--out", str(prefix)]) == 0
        out = tmp_path / "roc.csv"
        assert main(["detect", *MODEL_FLAGS, "--ne", f"{prefix}.ne.json",
                     "--samples", "1000", "--grid", "1", "--seed", "0",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6  # 4 comments, header, 1 row


class TestKernelUpdate:
    @pytest.mark.parametrize("i,v_i,error", [
        (0, math.nan, ValueError),
        (0, -0.5, ValueError),
        (-1, 0.1, IndexError),
        (6, 0.1, IndexError),
    ], ids=["nan", "negative", "index-1", "index-m"])
    def test_rejects_before_any_change(self, ring3_model, i, v_i, error):
        kernel = PosteriorKernel(ring3_model, np.full(6, 0.3 * ring3_model.sigma2))
        v, inv, logdet, kl = kernel.v.copy(), kernel.inv.copy(), kernel.logdet, kernel.kl
        with pytest.raises(error):
            kernel.update(i, v_i * ring3_model.sigma2)
        np.testing.assert_array_equal(kernel.v, v)
        np.testing.assert_array_equal(kernel.inv, inv)
        assert (kernel.logdet, kernel.kl) == (logdet, kl)


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

    @pytest.mark.parametrize("H,Sigma_XX", [
        (np.zeros((0, 2)), np.eye(2)),
        (np.zeros((2, 0)), np.eye(0)),
        (np.zeros(0), np.eye(0)),
    ])
    def test_build_model_rejects_empty_h(self, H, Sigma_XX):
        shape = np.atleast_2d(H).shape
        with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
            build_model(H, Sigma_XX, 1.0)

    def test_build_model_rejects_overflowing_signal(self):
        # The product overflows, then only its trace (three entries of
        # 8.1e307); numpy's overflow warning, which the suite makes an
        # error, stays quiet.
        for H in ([[1e200]], np.diag([9e153] * 3)):
            Sigma_XX = np.eye(len(H))
            with pytest.raises(ValueError, match="overflows"):
                build_model(H, Sigma_XX, 1.0)
            with pytest.raises(ValueError, match="overflows"):
                calibrate_noise(H, Sigma_XX, 30.0)

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

    def test_build_model_names_sigma_yy_when_noise_is_too_small(self):
        model = ieee9_model_at(30.0)
        with pytest.raises(ValueError, match="Sigma_YY .*sigma2 1e-20"):
            build_model(model.H, model.Sigma_XX, 1e-20)

    def test_build_model_names_the_kernel_matrix_when_noise_is_too_small(self):
        # One measurement of five states: Sigma_YY is 1-by-1 and factors,
        # but rounding leaves I + B^T B / sigma2 a nonpositive pivot.
        with pytest.raises(ValueError, match=r"M\(0\) .*sigma2 1e-14"):
            build_model([[10.0, 20.0, 30.0, 40.0, 50.0]], np.eye(5), 1e-14)

    @pytest.mark.parametrize("noise", [["--sigma2", "1e-20"], ["--snr-db", "400"]])
    def test_build_exits_4_when_noise_is_too_small(self, capfd, noise):
        rc = main(["build", *MODEL_FLAGS[:4], *noise])
        out, err = capfd.readouterr()
        assert rc == 4
        assert out == ""
        assert "Sigma_YY" in err and "sigma2" in err

    @pytest.mark.parametrize("entry,sigma2,words", [
        # I + B^T B / sigma2 overflows to inf.
        ("1e150", "1e-300", r"the kernel matrix M\(0\) is not within double range"),
        # M(0) is I, but the SNR ratio 1e-320 / 1e300 underflows to 0.
        ("1e-160", "1e300", r"SNR .* is not within double range: .* too large"),
    ])
    def test_build_exits_4_when_the_model_leaves_double_range(
        self, tmp_path, capfd, entry, sigma2, words
    ):
        mat = tmp_path / "h.mat"
        mat.write_text(entry + "\n")
        rc = main(["build", "--h-matrix", str(mat), "--rho", "0", "--sigma2", sigma2])
        out, err = capfd.readouterr()
        assert rc == 4
        assert out == ""
        assert re.fullmatch(f"error: {re.escape(str(mat))}: {words}[^\n]*\n", err)

    def test_run_converges_at_tiny_noise(self, tmp_path, capfd):
        # The square H of test_model at sigma2 = 1e-14, where a game-2
        # kernel update's pivot 1 + (w_new - w_old) q, formed from q,
        # rounds to a negative number; update forms it from gamma_i.
        H = np.random.default_rng(0).standard_normal((5, 5))
        path = tmp_path / "h.txt"
        rows = (" ".join(repr(float(x)) for x in row) for row in H)
        path.write_text("\n".join(rows))
        model_flags = ["--h-matrix", str(path), "--rho", "0.5", "--sigma2", "1e-14"]
        rc = main(["run", *model_flags, "--game", "2", "--lambda", "2",
                   "--out", str(tmp_path / "g2")])
        out, err = capfd.readouterr()
        assert rc == 0
        assert err == ""
        assert "converged" in out and "NOT" not in out

    @pytest.mark.parametrize("snr", [*NON_FINITE, 4000.0, -4000.0])
    def test_calibrate_noise_rejects_snr(self, snr):
        with pytest.raises(ValueError, match="SNR"):
            calibrate_noise(np.eye(2), np.eye(2), snr)

    @pytest.mark.parametrize("snr", ["inf", "nan", "-inf", "4000"])
    def test_build_exits_4_on_snr(self, capfd, snr):
        rc = main(["build", *MODEL_FLAGS[:4], f"--snr-db={snr}"])
        out, err = capfd.readouterr()
        assert rc == 4
        assert out == ""
        assert "SNR" in err

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


class TestRoundCapBelowOne:
    def test_run_exits_4(self, tmp_path, capsys):
        rc = main(["run", *MODEL_FLAGS, "--game", "1", "--lambda", "2",
                   "--tmax", "0", "--out", str(tmp_path / "g1")])
        assert rc == 4
        assert "t_max must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_exits_4(self, tmp_path, capsys):
        rc = main(["sweep", *MODEL_FLAGS, "--game", "1", "--lambda-list", "1,2",
                   "--tmax", "0", "--out", str(tmp_path / "sweep.csv")])
        assert rc == 4
        assert "t_max must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestIntegerArguments:
    """An index or a count is checked as an integer: a float, a string or a
    bool is refused, not truncated or read as 0 or 1."""

    # Each entry point that takes a measurement index, as a call on a model
    # and a kernel; a refused call must leave the kernel as it was.
    INDEX_CALLS = {
        "mi_local": lambda model, kernel, i: mi_local(model, i, 1.0),
        "kl_local": lambda model, kernel, i: kl_local(model, i, 1.0),
        "br_context": lambda model, kernel, i: br_context(model, i, np.zeros(6)).gamma,
        "update": lambda model, kernel, i: kernel.update(i, 1.0) or kernel.v.copy(),
    }

    @pytest.mark.parametrize("entry", INDEX_CALLS)
    @pytest.mark.parametrize("i", [1.7, 1.0, np.float64(1.0), "2", True])
    def test_measurement_index(self, ring3_model, i, entry):
        call = self.INDEX_CALLS[entry]
        kernel = PosteriorKernel(ring3_model, np.zeros(6))
        v = kernel.v.copy()
        with pytest.raises(ValueError, match="measurement index must be an integer"):
            call(ring3_model, kernel, i)
        np.testing.assert_array_equal(kernel.v, v)
        np.testing.assert_array_equal(
            call(ring3_model, PosteriorKernel(ring3_model, np.zeros(6)), np.int64(1)),
            call(ring3_model, PosteriorKernel(ring3_model, np.zeros(6)), 1))

    @pytest.mark.parametrize("t_max", [2.5, 2.0, math.nan, True, "3"])
    def test_round_cap(self, ring3_model, t_max):
        with pytest.raises(ValueError, match="t_max must be an integer"):
            run_brd(GameSpec(1, 2.0), ring3_model, t_max=t_max)

    SAMPLE_CALLS = {
        "sample_observations": lambda model, v, n: sample_observations(model, v, n, 0, True),
        "llr_samples": lambda model, v, n: llr_samples(model, v, n, 0),
        "roc_auc": lambda model, v, n: roc_auc(model, v, n, 0),
    }

    @pytest.mark.parametrize("entry", SAMPLE_CALLS)
    @pytest.mark.parametrize("n_samples", [2.5, 1000.7, 1000.0, "1000", True])
    def test_sample_count(self, ring3_model, n_samples, entry):
        call = self.SAMPLE_CALLS[entry]
        v = np.full(6, ring3_model.sigma2)
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            call(ring3_model, v, n_samples)
        assert len(llr_samples(ring3_model, v, np.int64(3), 0)[0]) == 3
