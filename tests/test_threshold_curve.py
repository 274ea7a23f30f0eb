"""The threshold curve from LLR samples, and ``detect`` drawing them once."""

import math
import tracemalloc

import numpy as np
import pytest

from stealthgame import detection
from stealthgame.cli import main
from stealthgame.detection import (
    SAMPLE_CHUNK_ROWS,
    error_curve,
    llr_samples,
    threshold_curve,
)
from stealthgame.grid import bundled_case

from _helpers import oracle_threshold_curve, random_profile, shuffled_samples

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


@pytest.mark.parametrize("nan", [False, True])
def test_unsorted_input_is_read_not_modified(rng, nan):
    # Ties, both signed zeros (log(1) = 0 is a threshold) and NaNs, in
    # random order: the curve is that of sorted copies, which are read
    # as they are when they hold no NaN, and no input array changes.
    taus = [0.5, 1.0, 2.0]
    null = shuffled_samples(rng, 1_500, nan=nan)
    attacked = shuffled_samples(rng, 1_300, shift=0.5, nan=nan)
    null_sorted, attacked_sorted = np.sort(null), np.sort(attacked)
    inputs = (null, attacked, null_sorted, attacked_sorted)
    before = [x.tobytes() for x in inputs]
    curve = threshold_curve(null, attacked, taus)
    assert curve == threshold_curve(null_sorted, attacked_sorted, taus)
    assert curve == oracle_threshold_curve(null, attacked, taus)
    assert [x.tobytes() for x in inputs] == before


def test_strided_input_is_sorted_in_one_copy(rng):
    # Flattening a column of a 2-column array copies it, and that copy is
    # the one sorted: one extra 8 n bytes per sample at most, not two.
    n, taus = 100_000, [0.5, 1.0, 2.0]
    null, attacked = (
        np.stack([shuffled_samples(rng, n, shift=shift), np.zeros(n)], axis=1)[:, 0]
        for shift in (0.0, 0.5)
    )
    before = [null.tobytes(), attacked.tobytes()]
    expected = threshold_curve(np.sort(null), np.sort(attacked), taus)
    tracemalloc.start()
    try:
        curve = threshold_curve(null, attacked, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve == expected
    assert [null.tobytes(), attacked.tobytes()] == before
    assert peak <= 2.5 * 8 * n


def test_validation():
    llr = np.zeros(1_000)
    with pytest.raises(ValueError, match="nonempty"):
        threshold_curve(llr, llr, [])
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="positive"):
            threshold_curve(llr, llr, [1.0, bad])
    with pytest.raises(ValueError, match="at least 1000"):
        threshold_curve(llr, llr[:999], [1.0])


def _run_game1(tmp_path, lam="2"):
    prefix = tmp_path / "eq"
    assert main(["run", *MODEL_FLAGS, "--game", "1", "--lambda", lam,
                 "--out", str(prefix)]) == 0
    return f"{prefix}.ne.json"


def test_detect_draws_the_normals_once(tmp_path, capsys, monkeypatch):
    ne = _run_game1(tmp_path)
    seeds, drawn = [], []
    chunk_generator = detection._chunk_generator

    class CountingGenerator:
        def __init__(self, seed, first_chunk, pairs):
            seeds.append((seed, first_chunk))
            self._rng = chunk_generator(seed, first_chunk, pairs)

        def standard_exponential(self, *args, out, **kwargs):
            drawn.append(("exponential", out.size))
            return self._rng.standard_exponential(*args, out=out, **kwargs)

        def random(self, *args, out, **kwargs):
            drawn.append(("uniform", out.size))
            return self._rng.random(*args, out=out, **kwargs)

    monkeypatch.setattr(detection, "_chunk_generator", CountingGenerator)
    assert main(["detect", *MODEL_FLAGS, "--ne", ne,
                 "--samples", "2000", "--seed", "4",
                 "--out", str(tmp_path / "roc.csv")]) == 0
    # One generator for both hypotheses, from the first chunk (2 chunks
    # stay on one thread), and per whole chunk one block of uniforms,
    # angles and radii, chunk x ceil(m / 2) values each.
    assert seeds == [(4, 0)]
    block = SAMPLE_CHUNK_ROWS * 9  # m = 18
    chunks = -(-2000 // SAMPLE_CHUNK_ROWS)
    assert drawn == [("uniform", 2 * block)] * chunks


def test_detect_errors_never_sum_above_one(tmp_path, capsys):
    # A weak attack (AUC about 0.55) keeps the curve near chance, where
    # independent clean and attacked draws would cross it.
    ne = _run_game1(tmp_path, lam="10")
    out = tmp_path / "roc.csv"
    n = 10_000
    assert main(["detect", *MODEL_FLAGS, "--ne", ne, "--samples", str(n),
                 "--seed", "2", "--out", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines()
            if line and not line.startswith(("#", "tau"))]
    assert len(rows) == 101
    for row in rows:
        _, alpha_hat, beta_hat = map(float, row.split(","))
        # Compare counts: alpha_hat and beta_hat are multiples of 1/n.
        assert round(alpha_hat * n) + round(beta_hat * n) <= n
