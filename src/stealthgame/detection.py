"""Monte-Carlo likelihood-ratio detection of random attacks.

Samples clean and attacked measurement vectors, evaluates joint and
per-measurement log-likelihood ratios, and estimates Type-I/Type-II
error trade-offs for threshold tests.  Thresholds are applied on the
log scale to avoid overflow.  Sampling multiplies standard normals by
the lower Cholesky factor of the covariance (the clean one is cached as
``model.chol_YY``) with an explicitly seeded generator, so every result
is reproducible byte for byte.

The joint LLR is one quadratic form, ``(1/2) y^T Delta y`` plus a
log-determinant ratio, with ``Delta = Sigma_YY^{-1} diag(v) Sigma_a^{-1}``
(``Sigma_a = Sigma_YY + diag(v)``): this equals ``Sigma_YY^{-1} -
Sigma_a^{-1}`` without the cancellation of the difference, is exactly 0
at ``v = 0``, and a batch of observations costs one matrix product.
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
    """Joint LLR values for fresh clean and attacked sample batches.

    Child seeds derived from ``seed`` keep the two hypothesis draws
    independent yet reproducible from the one user-facing seed.
    """
    seed_null, seed_attacked = np.random.SeedSequence(seed).spawn(2)
    null = sample_observations(model, v, n_samples, seed_null, attacked=False)
    comp = sample_observations(model, v, n_samples, seed_attacked, attacked=True)
    return llr_joint(model, v, null), llr_joint(model, v, comp)


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

    curve = []
    for tau in thresholds:
        log_tau = math.log(tau)
        alpha_hat = float(np.mean(llr_null >= log_tau))
        beta_hat = float(np.mean(llr_attacked < log_tau))
        curve.append((tau, alpha_hat, beta_hat))
    return curve


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
