"""Shared test utilities: random desk-scale models and independent oracles.

The oracles here compute mutual information through the explicit joint
covariance of (states, attacked measurements), best-response contexts
through m-by-m factorizations and the AUC through a loop over tied runs;
they never call the package's closed forms or its n-by-n kernel, so
closed-form/oracle comparisons check two genuinely different routes.
"""

import numpy as np
import scipy.linalg

from stealthgame.bestresponse import BRContext
from stealthgame.model import (
    StatePriorSpec,
    attacked_cov,
    build_model,
    calibrate_noise,
    toeplitz_cov,
)


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

    alpha from a Cholesky solve with Sigma_YY + diag(v with v_i = 0);
    gamma from a dense solve with A = G D + I, D the inverse noise-plus-
    attack variances with player i's entry set to 0.
    """
    v_others = np.asarray(v, dtype=float).copy()
    v_others[i] = 0.0
    chol = np.linalg.cholesky(attacked_cov(model, v_others))
    e_i = np.zeros(model.m)
    e_i[i] = 1.0
    alpha = float(scipy.linalg.cho_solve((chol, True), e_i)[i])

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
