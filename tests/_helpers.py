"""Shared test utilities: random desk-scale models and independent oracles.

The oracles here compute mutual information through the explicit joint
covariance of (states, attacked measurements), best-response contexts
through m-by-m factorizations, the AUC through a loop over tied runs
and threshold curves through two comparisons per threshold; they never
call the package's closed forms or its n-by-n kernel, so
closed-form/oracle comparisons check two genuinely different routes.
The Monte-Carlo estimators ``mc_mi_oracle``/``mc_kl_oracle`` sample the
generative model and average log-density ratios; the numeric
best-response minimizer ``br_numeric`` touches only ``games.cost``,
never the closed-form or bisection solvers.
"""

import math
from typing import NamedTuple

import numpy as np

from stealthgame.bestresponse import V_MAX, BRContext
from stealthgame.games import GameSpec, cost
from stealthgame.model import (
    MeasurementModel,
    StatePriorSpec,
    as_profile,
    attacked_cov,
    build_model,
    calibrate_noise,
    chol_logdet,
    toeplitz_cov,
)

_GOLDEN_WIDTH = 1e-10
_LOG_2PI = math.log(2.0 * math.pi)
MC_MIN_SAMPLES = 10_000


def random_desk_model(rng, m_max=10, n_max=6):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(n, m_max + 1))
    H = rng.standard_normal((m, n))
    rho = float(rng.uniform(0.0, 0.95))
    Sigma_XX = toeplitz_cov(StatePriorSpec(n, rho))
    snr = float(rng.uniform(5.0, 25.0))
    return build_model(H, Sigma_XX, calibrate_noise(H, Sigma_XX, snr))


def random_profile(rng, model, scale=3.0):
    return rng.uniform(0.0, scale, size=model.m) * float(
        np.mean(np.diag(model.Sigma_YY))
    )


def logdet(mat):
    sign, value = np.linalg.slogdet(mat)
    assert sign > 0
    return value


def oracle_mi_joint(model, v):
    """Global MI from the (n+m) joint covariance of (states, attacked)."""
    cross = model.Sigma_XX @ model.H.T
    joint = np.block(
        [[model.Sigma_XX, cross], [cross.T, attacked_cov(model, v)]]
    )
    return 0.5 * (
        logdet(model.Sigma_XX) + logdet(attacked_cov(model, v)) - logdet(joint)
    )


def oracle_mi_local_joint(model, i, v_i):
    """Local MI from the (n+1) joint covariance of (states, measurement i)."""
    h_i = model.H[i]
    cross = (model.Sigma_XX @ h_i).reshape(-1, 1)
    var_i = float(model.s[i]) + v_i
    joint = np.block([[model.Sigma_XX, cross], [cross.T, np.array([[var_i]])]])
    return 0.5 * (logdet(model.Sigma_XX) + np.log(var_i) - logdet(joint))


def single_row_submodel(model, i):
    """One-measurement model sharing row i: its global metrics are the
    parent's local metrics at index i."""
    return build_model(model.H[i : i + 1], model.Sigma_XX, model.sigma2)


def oracle_br_context(model, i, v):
    """Best-response context from m-by-m factorizations.

    alpha from a dense solve with Sigma_YY + diag(v with v_i = 0);
    gamma from a dense solve with A = G D + I, D the inverse noise-plus-
    attack variances with player i's entry set to 0.
    """
    v_others = np.asarray(v, dtype=float).copy()
    v_others[i] = 0.0
    e_i = np.zeros(model.m)
    e_i[i] = 1.0
    alpha = float(np.linalg.solve(attacked_cov(model, v_others), e_i)[i])

    weights = 1.0 / (model.sigma2 + np.asarray(v, dtype=float))
    weights[i] = 0.0
    A = model.signal_cov * weights[np.newaxis, :]
    A[np.diag_indices_from(A)] += 1.0
    gamma = float(np.linalg.solve(A, model.signal_cov[:, i])[i])
    return BRContext(
        alpha=alpha,
        beta=float(model.inv_diag_YY[i]),
        gamma=gamma,
        s=float(model.s[i]),
        c=float(model.c[i]),
    )


def oracle_rank_auc(llr_null, llr_attacked):
    """AUC from ranks of a stable sort, each run of ties set to its midrank."""
    combined = np.concatenate([llr_null, llr_attacked])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty_like(order, dtype=float)
    ranks[order] = np.arange(1, combined.size + 1)
    sorted_vals = combined[order]
    k = 0
    while k < sorted_vals.size:
        j = k
        while j + 1 < sorted_vals.size and sorted_vals[j + 1] == sorted_vals[k]:
            j += 1
        if j > k:
            ranks[order[k : j + 1]] = 0.5 * (k + 1 + j + 1)
        k = j + 1
    n0 = llr_null.size
    n1 = llr_attacked.size
    rank_sum = float(np.sum(ranks[n0:]))
    return (rank_sum - n1 * (n1 + 1) / 2.0) / (n0 * n1)


def oracle_threshold_curve(llr_null, llr_attacked, thresholds):
    """(tau, Type-I, Type-II) triples by two full comparisons per threshold."""
    curve = []
    for tau in thresholds:
        log_tau = math.log(tau)
        alpha_hat = float(np.mean(llr_null >= log_tau))
        beta_hat = float(np.mean(llr_attacked < log_tau))
        curve.append((tau, alpha_hat, beta_hat))
    return curve


class BracketError(RuntimeError):
    """The numeric minimizer could not bracket a finite minimum."""


def br_numeric(spec: GameSpec, model: MeasurementModel, i: int, v) -> float:
    """Numerical oracle: minimize the raw cost over the player's action.

    Brackets the minimum by doubling the upper end until the cost slope
    (finite difference) turns positive, shrinks by golden-section to an
    interval of width ~1e-10, then polishes by bisecting the
    finite-difference slope (golden-section alone is limited to about
    sqrt(eps) relative accuracy in the minimizer position).  Touches
    only ``games.cost``; independent of the closed-form/bisection
    solvers.
    """
    v = as_profile(model, v).copy()

    def f(t: float) -> float:
        v[i] = t
        return cost(spec, model, i, v)

    def slope(t: float) -> float:
        # Adaptive step: wide enough away from zero to beat roundoff in
        # the O(100)-nat cost values, narrow near zero so minimizers of
        # order 1e-6 are still resolved.  Five-point stencil when there
        # is room, offset central difference otherwise.
        h = 3e-5 * (1.0 + t)
        if t > 0.0:
            h = min(h, max(0.25 * t, 1e-7))
        if t - 2.0 * h >= 0.0:
            return (
                8.0 * (f(t + h) - f(t - h)) - (f(t + 2.0 * h) - f(t - 2.0 * h))
            ) / (12.0 * h)
        left = max(t - h, 0.0)
        return (f(t + h) - f(left)) / (t + h - left)

    # Multi-scale chord test at the boundary: the minimum is interior
    # only if the cost actually drops below f(0) somewhere nearby.
    f0 = f(0.0)
    if all(f(h0) >= f0 for h0 in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3)):
        return 0.0
    hi = 1.0
    while slope(hi) <= 0.0:
        hi *= 2.0
        if hi > V_MAX:
            raise BracketError(
                f"no finite minimum below V_MAX={V_MAX:g} for player {i} "
                f"(game {spec.game}, lam {spec.lam})"
            )

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = 0.0
    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    fa, fb = f(a), f(b)
    while hi - lo > _GOLDEN_WIDTH:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = f(b)

    mid = 0.5 * (lo + hi)
    pad = 1e-5 * (1.0 + mid)
    a = max(mid - pad, 0.0)
    b = mid + pad
    if slope(a) >= 0.0:
        return a
    if slope(b) <= 0.0:
        return b
    for _ in range(100):
        t = 0.5 * (a + b)
        if slope(t) < 0.0:
            a = t
        else:
            b = t
        if b - a <= 1e-13 * (1.0 + t):
            break
    return 0.5 * (a + b)


class McEstimate(NamedTuple):
    value: float
    std_error: float


def _gauss_logpdf(chol: np.ndarray, logdet: float, X: np.ndarray) -> np.ndarray:
    """Per-row log density of N(0, L L^T) given the lower factor L."""
    W = np.linalg.solve(chol, X.T)
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
        chol_XX, logdet_XX = chol_logdet(model.Sigma_XX)
    except np.linalg.LinAlgError:
        raise ValueError("Sigma_XX must be positive definite for the MC oracle") from None

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
