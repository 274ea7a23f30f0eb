"""Monte-Carlo likelihood-ratio detection of random attacks.

Samples clean and attacked measurement vectors, evaluates joint and
per-measurement log-likelihood ratios, and estimates Type-I/Type-II
error trade-offs for threshold tests.  Thresholds are applied on the
log scale to avoid overflow.  Every draw comes from an explicitly
seeded generator, so every result is reproducible byte for byte.

:func:`sample_observations` multiplies standard normals by the lower
Cholesky factor of the covariance (the clean one is cached as
``model.chol_YY``).  The joint LLR of an observation is one quadratic
form, ``(1/2) y^T Delta y`` plus a log-determinant ratio, with ``Delta =
Sigma_YY^{-1} diag(v) Sigma_a^{-1}`` (``Sigma_a = Sigma_YY + diag(v)``):
this equals ``Sigma_YY^{-1} - Sigma_a^{-1}`` without the cancellation of
the difference, and is exactly 0 at ``v = 0``.

:func:`llr_samples` (hence :func:`error_curve`, :func:`roc_auc` and the
``detect`` command) draws LLR values without forming observations.  With
``F = L^{-1} diag(sqrt(v))`` for ``L = model.chol_YY`` and ``kappa_k >= 0``
the eigenvalues of ``F F^T`` (so ``1 + kappa_k`` are the generalized
eigenvalues of ``(Sigma_a, Sigma_YY)``), the joint LLR of a clean
observation is distributed as
``(1/2) sum_k kappa_k / (1 + kappa_k) z_k^2 - (1/2) sum_k log1p(kappa_k)``
and that of an attacked one as
``(1/2) sum_k kappa_k z_k^2 - (1/2) sum_k log1p(kappa_k)``, z standard
normal.  That is the distribution of :func:`llr_joint` of
:func:`sample_observations` draws, with other realizations, and there
is no cancellation: at ``v = 0`` every value is exactly 0.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    MeasurementModel,
    as_profile,
    attacked_cov,
    check_index,
    check_scalar_variance,
    chol_inverse,
    chol_logdet,
)

MIN_CURVE_SAMPLES = 1000
# Rows of standard normals drawn at a time by llr_samples (4.8 MB at m = 74).
SAMPLE_CHUNK_ROWS = 8192

__all__ = [
    "sample_observations",
    "llr_joint",
    "llr_local",
    "llr_samples",
    "threshold_curve",
    "error_curve",
    "roc_auc",
    "rank_auc",
]


def sample_observations(
    model: MeasurementModel, v, n_samples: int, seed: int, attacked: bool
) -> np.ndarray:
    """Draw measurement vectors, one per row, clean or attacked.

    Row k is ``L z_k`` for standard normal ``z_k`` and the lower Cholesky
    factor ``L`` of ``Sigma_YY`` (clean) or ``Sigma_YY + diag(v)``
    (attacked); the same seed gives the same ``z_k`` under both.
    """
    v = as_profile(model, v)
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if attacked:
        chol = np.linalg.cholesky(attacked_cov(model, v))
    else:
        chol = model.chol_YY
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_samples, model.m)) @ chol.T


def llr_joint(model: MeasurementModel, v, y) -> float | np.ndarray:
    """Joint log-likelihood ratio, attacked over clean density.

    Accepts a single length-m vector or an (N, m) batch; returns a
    scalar or length-N array accordingly.
    """
    v = as_profile(model, v)
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    Y = np.atleast_2d(y)
    if Y.shape[1] != model.m:
        raise ValueError(f"observations have {Y.shape[1]} columns, expected {model.m}")

    chol_a, logdet_a = chol_logdet(attacked_cov(model, v))
    delta = chol_inverse(model.chol_YY) @ (v[:, None] * chol_inverse(chol_a))
    delta = 0.5 * (delta + delta.T)
    quad = np.einsum("ij,ij->i", Y @ delta, Y)
    out = 0.5 * quad + 0.5 * (model.logdet_YY - logdet_a)
    return float(out[0]) if single else out


def llr_local(model: MeasurementModel, i: int, v_i: float, y_i) -> float | np.ndarray:
    """Scalar log-likelihood ratio for measurement i alone."""
    i = check_index(model, i)
    v_i = check_scalar_variance(v_i)
    s_i = model.s[i]
    y = np.asarray(y_i, dtype=float)
    out = 0.5 * y * y * (1.0 / s_i - 1.0 / (s_i + v_i)) + 0.5 * (
        math.log(s_i) - math.log(s_i + v_i)
    )
    return float(out) if out.ndim == 0 else out


def llr_samples(
    model: MeasurementModel, v, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Joint LLR values of ``n_samples`` clean and attacked observations.

    Draws the weighted sums of squared standard normals of the module
    docstring, ``SAMPLE_CHUNK_ROWS`` rows at a time, so no observation
    matrix is formed; a chunked draw is the same stream as one draw, and
    the first k values do not depend on ``n_samples``.  Child seeds
    derived from ``seed`` keep the two hypothesis draws independent yet
    reproducible from the one user-facing seed.  At ``v = 0`` every value
    is exactly 0.
    """
    v = as_profile(model, v)
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    kappa = _whitened_spectrum(model, v)
    half_logdet = 0.5 * float(np.sum(np.log1p(kappa)))
    seed_null, seed_attacked = np.random.SeedSequence(seed).spawn(2)
    return (
        _draw_llr(0.5 * kappa / (1.0 + kappa), half_logdet, n_samples, seed_null),
        _draw_llr(0.5 * kappa, half_logdet, n_samples, seed_attacked),
    )


def _whitened_spectrum(model: MeasurementModel, v: np.ndarray) -> np.ndarray:
    """kappa: the eigenvalues of F F^T, F = L^{-1} diag(sqrt(v)), clipped at 0."""
    F = np.linalg.inv(model.chol_YY) * np.sqrt(v)
    return np.clip(np.linalg.eigvalsh(F @ F.T), 0.0, None)


def _draw_llr(weights, offset, n_samples, seed) -> np.ndarray:
    """``sum_k weights_k z_k^2 - offset`` for n_samples standard normal rows."""
    rng = np.random.default_rng(seed)
    out = np.empty(n_samples)
    chunk = np.empty((min(SAMPLE_CHUNK_ROWS, n_samples), weights.size))
    for start in range(0, n_samples, SAMPLE_CHUNK_ROWS):
        rows = chunk[: min(SAMPLE_CHUNK_ROWS, n_samples - start)]
        rng.standard_normal(out=rows)
        np.square(rows, out=rows)
        np.matmul(rows, weights, out=out[start : start + rows.shape[0]])
    out -= offset
    return out


def threshold_curve(
    llr_null: np.ndarray, llr_attacked: np.ndarray, thresholds
) -> list[tuple[float, float, float]]:
    """Empirical (tau, Type-I, Type-II) triples from joint LLR samples.

    For each threshold tau > 0 the detector accuses when the joint LLR
    is at least log(tau).  Type-I error is estimated on ``llr_null``
    (clean samples), Type-II on ``llr_attacked``; each needs at least
    ``MIN_CURVE_SAMPLES`` values.
    """
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("thresholds must be a nonempty list")
    if not all(t > 0 for t in thresholds):
        raise ValueError("thresholds must be positive (they are ratio levels)")
    n_samples = min(np.size(llr_null), np.size(llr_attacked))
    if n_samples < MIN_CURVE_SAMPLES:
        raise ValueError(
            f"need at least {MIN_CURVE_SAMPLES} samples per hypothesis, got {n_samples}"
        )

    # One sort per hypothesis; NaN sorts last and neither accuses nor misses.
    null = np.sort(llr_null, axis=None)
    attacked = np.sort(llr_attacked, axis=None)
    log_taus = [math.log(tau) for tau in thresholds]
    n_null_valid = null.size - np.count_nonzero(np.isnan(null))
    accused = n_null_valid - np.searchsorted(null, log_taus, side="left")
    missed = np.searchsorted(attacked, log_taus, side="left")
    return [
        (tau, int(a) / null.size, int(b) / attacked.size)
        for tau, a, b in zip(thresholds, accused, missed)
    ]


def error_curve(
    model: MeasurementModel,
    v,
    n_samples: int,
    seed: int,
    thresholds,
) -> list[tuple[float, float, float]]:
    """Empirical (tau, Type-I, Type-II) triples for the joint LRT.

    :func:`threshold_curve` of ``n_samples`` fresh clean and attacked
    samples each, drawn by :func:`llr_samples`.
    """
    llr_null, llr_attacked = llr_samples(model, v, n_samples, seed)
    return threshold_curve(llr_null, llr_attacked, thresholds)


def roc_auc(model: MeasurementModel, v, n_samples: int, seed: int) -> float:
    """Empirical detection AUC of the joint LRT (rank statistic).

    Probability that an attacked sample's LLR exceeds a clean sample's,
    ties counted half.
    """
    llr_null, llr_attacked = llr_samples(model, v, int(n_samples), seed)
    return rank_auc(llr_null, llr_attacked)


def rank_auc(llr_null: np.ndarray, llr_attacked: np.ndarray) -> float:
    """Mann-Whitney AUC of two samples, tied values sharing their midrank.

    The midranks are integers or halves, so the rank sum is exact below
    2**53 values.
    """
    combined = np.concatenate([llr_null, llr_attacked])
    _, group, counts = np.unique(combined, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    ranks = ((2 * last - counts + 1) / 2.0)[group]
    n0 = llr_null.size
    n1 = llr_attacked.size
    rank_sum = float(np.sum(ranks[n0:]))
    return (rank_sum - n1 * (n1 + 1) / 2.0) / (n0 * n1)
