"""The threshold curve from LLR samples, and ``detect`` drawing them once."""

import math

import numpy as np
import pytest

import stealthgame.detection as detection
from stealthgame.cli import main
from stealthgame.detection import error_curve, llr_samples, threshold_curve
from stealthgame.grid import bundled_case

from _helpers import oracle_threshold_curve, random_profile

MODEL_FLAGS = ["--case", bundled_case("ieee9"), "--rho", "0.9", "--snr-db", "30"]


def test_error_curve_is_threshold_curve_of_llr_samples(ring3_model, rng):
    v = random_profile(rng, ring3_model)
    taus = list(np.exp(np.linspace(-4, 4, 17)))
    assert threshold_curve(*llr_samples(ring3_model, v, 3_000, 11), taus) == (
        error_curve(ring3_model, v, 3_000, 11, taus)
    )


def test_counts_at_each_threshold():
    null = np.arange(1_000, dtype=float)
    attacked = np.arange(1_000, dtype=float) + 500.0
    ((tau, alpha_hat, beta_hat),) = threshold_curve(null, attacked, [math.exp(600.0)])
    assert tau == math.exp(600.0)
    assert alpha_hat == 400 / 1_000  # null values 600..999 accuse
    assert beta_hat == 100 / 1_000  # attacked values 500..599 miss


@pytest.mark.parametrize("decimals", [None, 1])  # untied, then heavily tied
def test_matches_comparison_loop(rng, decimals):
    taus = list(np.exp(np.linspace(-3, 3, 25)))
    # Values exactly at log(tau) check the >= / < boundaries.
    at_thresholds = [math.log(tau) for tau in taus]
    null = np.concatenate([rng.normal(-0.5, 1.0, 1_500), at_thresholds])
    attacked = np.concatenate([rng.normal(0.5, 1.0, 1_300), at_thresholds])
    if decimals is not None:
        null, attacked = null.round(decimals), attacked.round(decimals)
    assert threshold_curve(null, attacked, taus) == (
        oracle_threshold_curve(null, attacked, taus)
    )


def test_nan_neither_accuses_nor_misses(rng):
    taus = [0.5, 1.0, 2.0]
    null = rng.standard_normal(1_200)
    attacked = rng.standard_normal(1_100)
    null[::7] = math.nan
    attacked[::5] = math.nan
    assert threshold_curve(null, attacked, taus) == (
        oracle_threshold_curve(null, attacked, taus)
    )


def test_validation():
    llr = np.zeros(1_000)
    with pytest.raises(ValueError, match="nonempty"):
        threshold_curve(llr, llr, [])
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="positive"):
            threshold_curve(llr, llr, [1.0, bad])
    with pytest.raises(ValueError, match="at least 1000"):
        threshold_curve(llr, llr[:999], [1.0])


def test_detect_samples_each_hypothesis_once(tmp_path, capsys, monkeypatch):
    prefix = tmp_path / "eq"
    assert main(["run", *MODEL_FLAGS, "--game", "1", "--lambda", "2",
                 "--out", str(prefix)]) == 0
    calls = []
    draw = detection._draw_llr

    def counting(weights, offset, n_samples, seed):
        calls.append(seed.spawn_key)
        return draw(weights, offset, n_samples, seed)

    monkeypatch.setattr(detection, "_draw_llr", counting)
    assert main(["detect", *MODEL_FLAGS, "--ne", f"{prefix}.ne.json",
                 "--samples", "2000", "--seed", "4",
                 "--out", str(tmp_path / "roc.csv")]) == 0
    assert calls == [(0,), (1,)]  # the clean child seed, then the attacked one
