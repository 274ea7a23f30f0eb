"""Closed-form information metrics.

All values are in nats.  ``mi_global``/``kl_global`` describe the full
measurement vector; ``mi_local``/``kl_local`` describe one compromised
measurement in isolation.

Measurement indices are 0-based throughout.
"""

from __future__ import annotations

import math

# attacked_cov is not called here but stays bound: the benchmark's
# tracer wraps it in this module.
from .model import (  # noqa: F401
    MeasurementModel,
    PosteriorKernel,
    attacked_cov,
    check_index,
    check_nonnegative,
)

__all__ = [
    "mi_global",
    "mi_local",
    "kl_global",
    "kl_local",
]


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
    i = check_index(model, i)
    v_i = check_nonnegative("attack variance", v_i)
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
    i = check_index(model, i)
    v_i = check_nonnegative("attack variance", v_i)
    s_i = model.s[i]
    return 0.5 * (v_i / s_i + math.log(s_i) - math.log(s_i + v_i))
