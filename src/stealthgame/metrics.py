"""Closed-form information metrics and their Monte-Carlo estimators.

All values are in nats.  ``mi_global``/``kl_global`` describe the full
measurement vector; ``mi_local``/``kl_local`` describe one compromised
measurement in isolation.  The Monte-Carlo estimators sample the exact
generative model and average log-density ratios, providing a route to
the same quantities that never touches the closed forms.

Measurement indices are 0-based throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .model import (
    MeasurementModel,
    PosteriorKernel,
    as_profile,
    attacked_cov,
    chol_logdet,
)

_LOG_2PI = math.log(2.0 * math.pi)
MC_MIN_SAMPLES = 10_000

__all__ = [
    "mi_global",
    "mi_local",
    "kl_global",
    "kl_local",
    "McEstimate",
    "mc_mi_oracle",
    "mc_kl_oracle",
]


def _check_index(model: MeasurementModel, i: int) -> int:
    i = int(i)
    if not 0 <= i < model.m:
        raise IndexError(f"measurement index {i} outside [0, {model.m})")
    return i


def _check_scalar_variance(v_i: float) -> float:
    v_i = float(v_i)
    if v_i < 0:
        raise ValueError(f"attack variance must be nonnegative, got {v_i}")
    return v_i


def mi_global(model: MeasurementModel, v) -> float:
    """Mutual information between the states and all attacked measurements.

    Closed form: (1/2) log(|Sigma_YY + diag(v)| / |sigma2 I + diag(v)|),
    evaluated as (1/2) log det M(v) of a fresh :class:`PosteriorKernel`.
    Nonnegative, and non-increasing in every v_i.
    """
    return PosteriorKernel(model, v).mi


def mi_local(model: MeasurementModel, i: int, v_i: float) -> float:
    """Mutual information between the states and attacked measurement i.

    Closed form: (1/2) log(1 + c_i / (sigma2 + v_i)) with
    c_i = e_i^T H Sigma_XX H^T e_i.
    """
    i = _check_index(model, i)
    v_i = _check_scalar_variance(v_i)
    return 0.5 * math.log1p(model.c[i] / (model.sigma2 + v_i))


def kl_global(model: MeasurementModel, v) -> float:
    """KL divergence of attacked from clean measurement distribution.

    Closed form: (1/2)(log(|Sigma_YY| / |Sigma_YY + diag(v)|)
    + tr(Sigma_YY^{-1} diag(v))), evaluated from a fresh
    :class:`PosteriorKernel`.  Zero iff v = 0.
    """
    return PosteriorKernel(model, v).kl


def kl_local(model: MeasurementModel, i: int, v_i: float) -> float:
    """Scalar KL divergence for measurement i.

    Closed form: (1/2)(v_i / s_i + log(s_i / (s_i + v_i))) with
    s_i = e_i^T Sigma_YY e_i.
    """
    i = _check_index(model, i)
    v_i = _check_scalar_variance(v_i)
    s_i = model.s[i]
    return 0.5 * (v_i / s_i + math.log(s_i) - math.log(s_i + v_i))


class McEstimate(NamedTuple):
    value: float
    std_error: float


def _gauss_logpdf(chol: np.ndarray, logdet: float, X: np.ndarray) -> np.ndarray:
    """Per-row log density of N(0, L L^T) given the lower factor L."""
    W = scipy.linalg.solve_triangular(chol, X.T, lower=True)
    quad = np.sum(W * W, axis=0)
    d = chol.shape[0]
    return -0.5 * (quad + logdet + d * _LOG_2PI)


def _check_mc_args(n_samples: int) -> int:
    n_samples = int(n_samples)
    if n_samples < MC_MIN_SAMPLES:
        raise ValueError(
            f"need at least {MC_MIN_SAMPLES} samples, got {n_samples}"
        )
    return n_samples


def mc_mi_oracle(model: MeasurementModel, v, n_samples: int, seed: int) -> McEstimate:
    """Sample-average estimator of the global mutual information.

    Draws (state, attacked measurement) pairs from the generative model
    and averages log f(x, y) - log f(x) - log f(y) under the joint
    Gaussian.  Deterministic for a fixed seed.
    """
    v = as_profile(model, v)
    n_samples = _check_mc_args(n_samples)
    try:
        chol_XX = np.linalg.cholesky(model.Sigma_XX)
    except np.linalg.LinAlgError:
        raise ValueError("Sigma_XX must be positive definite for the MC oracle") from None
    logdet_XX = 2.0 * float(np.sum(np.log(np.diag(chol_XX))))

    cov_attacked = attacked_cov(model, v)
    chol_A, logdet_A = chol_logdet(cov_attacked)

    cross = model.Sigma_XX @ model.H.T
    joint = np.block([[model.Sigma_XX, cross], [cross.T, cov_attacked]])
    chol_J, logdet_J = chol_logdet(joint)

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_samples, model.n)) @ chol_XX.T
    Z = math.sqrt(model.sigma2) * rng.standard_normal((n_samples, model.m))
    A = np.sqrt(v) * rng.standard_normal((n_samples, model.m))
    Y = X @ model.H.T + Z + A

    ratio = (
        _gauss_logpdf(chol_J, logdet_J, np.hstack([X, Y]))
        - _gauss_logpdf(chol_XX, logdet_XX, X)
        - _gauss_logpdf(chol_A, logdet_A, Y)
    )
    return McEstimate(
        value=float(np.mean(ratio)),
        std_error=float(np.std(ratio, ddof=1) / math.sqrt(n_samples)),
    )


def mc_kl_oracle(model: MeasurementModel, v, n_samples: int, seed: int) -> McEstimate:
    """Sample-average estimator of the global KL divergence.

    Averages the log-likelihood ratio of attacked vs. clean densities
    over samples drawn from the attacked distribution.
    """
    v = as_profile(model, v)
    n_samples = _check_mc_args(n_samples)
    chol_A, logdet_A = chol_logdet(attacked_cov(model, v))
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((n_samples, model.m)) @ chol_A.T
    ratio = _gauss_logpdf(chol_A, logdet_A, Y) - _gauss_logpdf(
        model.chol_YY, model.logdet_YY, Y
    )
    return McEstimate(
        value=float(np.mean(ratio)),
        std_error=float(np.std(ratio, ddof=1) / math.sqrt(n_samples)),
    )
