import json
import math

import numpy as np
import pytest

from stealthgame.cli import main
from stealthgame.games import GameSpec, potential
from stealthgame.grid import bundled_case
from stealthgame.model import StatePriorSpec, build_model, toeplitz_cov

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

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        rc = main(["run", *MODEL_FLAGS, "--game", "1", "--lambda", "2",
                   "--tmax", "1", "--tol", "1e-14",
                   "--out", str(tmp_path / "short")])
        assert rc == 3
        ne = json.loads((tmp_path / "short.ne.json").read_text())
        assert ne["converged"] is False

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

        from stealthgame.grid import build_dc_jacobian, parse_network
        from stealthgame.model import calibrate_noise

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


class TestSweep:
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

    def test_br3_literal_tag_in_output(self, tmp_path, capsys):
        out = tmp_path / "lit.csv"
        assert main(["sweep", *MODEL_FLAGS, "--game", "3",
                     "--lambda-list", "2", "--br3-literal",
                     "--out", str(out)]) == 0
        data_row = [
            ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("lambda")
        ][0]
        assert data_row.endswith(",literal")

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
