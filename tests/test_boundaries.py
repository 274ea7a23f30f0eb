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
from stealthgame.grid import bundled_case
from stealthgame.metrics import kl_local, mi_local

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
