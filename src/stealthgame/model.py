"""Stochastic observation model: state prior, noise calibration, covariances.

The sensed system is ``y = H x + z`` with ``x ~ N(0, Sigma_XX)`` and
``z ~ N(0, sigma2 I)``, so the clean measurements have covariance
``Sigma_YY = H Sigma_XX H^T + sigma2 I``.  An attack profile ``v``
(one nonnegative variance per measurement) adds ``diag(v)``.

Global metrics and best-response scalars are read from one n-by-n kernel,
:class:`PosteriorKernel`: with ``Sigma_XX = L L^T`` and ``B = H L``, it
holds the inverse and log-determinant of ``M(v) = I + B^T diag(w) B``,
``w_j = 1 / (sigma2 + v_j)``.  Changing one ``v_i`` is a rank-one change
of ``M``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PSD_TOL = 1e-12  # absolute eigenvalue slack when validating covariances

__all__ = [
    "StatePriorSpec",
    "MeasurementModel",
    "toeplitz_cov",
    "calibrate_noise",
    "snr_db",
    "build_model",
    "attacked_cov",
    "chol_logdet",
    "chol_inverse",
    "posterior_matrix",
    "PosteriorKernel",
]


@dataclass(frozen=True)
class StatePriorSpec:
    """Exponentially decaying Toeplitz prior: entry (i, j) = rho^|i-j|."""

    n: int
    rho: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state dimension must be positive, got {self.n}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")


def toeplitz_cov(spec: StatePriorSpec) -> np.ndarray:
    idx = np.arange(spec.n)
    first_row = spec.rho**idx
    return first_row[np.abs(idx[:, None] - idx[None, :])]


def snr_db(H: np.ndarray, Sigma_XX: np.ndarray, sigma2: float) -> float:
    """Signal-to-noise ratio 10*log10(tr(H Sigma_XX H^T) / (m sigma2))."""
    H = np.asarray(H, dtype=float)
    m = H.shape[0]
    signal = float(np.trace(H @ Sigma_XX @ H.T))
    return 10.0 * np.log10(signal / (m * sigma2))


def calibrate_noise(H: np.ndarray, Sigma_XX: np.ndarray, snr_db_target: float) -> float:
    """Noise variance that realizes the requested SNR in decibels."""
    H = np.asarray(H, dtype=float)
    m = H.shape[0]
    signal = float(np.trace(H @ Sigma_XX @ H.T))
    if signal <= 0:
        raise ValueError("tr(H Sigma_XX H^T) must be positive to set an SNR")
    return signal / (m * 10.0 ** (snr_db_target / 10.0))


@dataclass(frozen=True)
class MeasurementModel:
    """Immutable observation model with cached derived quantities.

    Build through :func:`build_model`; every consumer in the package
    reads the cached ``Sigma_YY`` factorization rather than refactoring.

    Cached fields: ``signal_cov`` is ``H Sigma_XX H^T``; ``chol_YY`` the
    lower Cholesky factor of ``Sigma_YY``; ``logdet_YY`` its
    log-determinant; ``inv_diag_YY`` the diagonal of ``Sigma_YY^{-1}``;
    ``s`` the diagonal of ``Sigma_YY``; ``c`` the diagonal of
    ``signal_cov`` (so ``s = c + sigma2``); ``B`` is ``H L`` for a factor
    ``Sigma_XX = L L^T`` (from ``eigh``, so singular priors work); and
    ``logdet_M0`` is the log-determinant of the kernel matrix ``M(0)``.
    """

    H: np.ndarray
    sigma2: float
    Sigma_XX: np.ndarray
    Sigma_YY: np.ndarray
    signal_cov: np.ndarray = field(repr=False)
    chol_YY: np.ndarray = field(repr=False)
    logdet_YY: float = field(repr=False)
    inv_diag_YY: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    logdet_M0: float = field(repr=False)

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[1]

    def snr_db(self) -> float:
        return snr_db(self.H, self.Sigma_XX, self.sigma2)


def build_model(H: np.ndarray, Sigma_XX: np.ndarray, sigma2: float) -> MeasurementModel:
    """Assemble and validate a :class:`MeasurementModel`."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    Sigma_XX = np.atleast_2d(np.asarray(Sigma_XX, dtype=float))
    sigma2 = float(sigma2)
    m, n = H.shape
    if Sigma_XX.shape != (n, n):
        raise ValueError(
            f"Sigma_XX shape {Sigma_XX.shape} does not match H columns ({n})"
        )
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2}")
    if not math.isfinite(1.0 / sigma2):
        raise ValueError(f"sigma2 {sigma2} is too small: its reciprocal overflows")
    if not np.all(np.isfinite(H)):
        raise ValueError("H entries must be finite")
    if not np.all(np.isfinite(Sigma_XX)):
        raise ValueError("Sigma_XX entries must be finite")
    if not np.allclose(Sigma_XX, Sigma_XX.T, atol=1e-10):
        raise ValueError("Sigma_XX must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(Sigma_XX)
    if eigvals[0] < -PSD_TOL:
        raise ValueError(f"Sigma_XX is not PSD (min eigenvalue {eigvals[0]:.3e})")
    B = H @ (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None)))

    signal_cov = H @ Sigma_XX @ H.T
    signal_cov = 0.5 * (signal_cov + signal_cov.T)  # enforce exact symmetry
    if not np.all(np.isfinite(signal_cov)):
        raise ValueError("H Sigma_XX H^T overflows: H or Sigma_XX entries too large")
    Sigma_YY = signal_cov + sigma2 * np.eye(m)
    chol_YY, logdet_YY = chol_logdet(Sigma_YY)
    # Sigma_YY^{-1} = L^{-T} L^{-1}: its diagonal holds the column sums
    # of the squared entries of L^{-1}.
    inv_chol_YY = np.linalg.inv(chol_YY)
    # The weights, hence the log-determinant, of a kernel at v = 0, so
    # that kl_global(model, 0) is exactly 0.
    _, logdet_M0 = chol_logdet(posterior_matrix(B, np.full(m, 1.0 / sigma2)))
    return MeasurementModel(
        H=H,
        sigma2=sigma2,
        Sigma_XX=Sigma_XX,
        Sigma_YY=Sigma_YY,
        signal_cov=signal_cov,
        chol_YY=chol_YY,
        logdet_YY=logdet_YY,
        inv_diag_YY=np.sum(inv_chol_YY**2, axis=0),
        s=np.diag(Sigma_YY).copy(),
        c=np.diag(signal_cov).copy(),
        B=B,
        logdet_M0=logdet_M0,
    )


def as_profile(model: MeasurementModel, v) -> np.ndarray:
    """Validate an attack profile: finite, nonnegative, length m."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (model.m,):
        raise ValueError(f"profile length {v.size} does not match m={model.m}")
    if not np.all(np.isfinite(v)):
        raise ValueError("attack variances must be finite")
    if np.any(v < 0):
        raise ValueError("attack variances must be nonnegative")
    return v


def check_index(model: MeasurementModel, i: int) -> int:
    """Validate a 0-based measurement index."""
    i = int(i)
    if not 0 <= i < model.m:
        raise IndexError(f"measurement index {i} outside [0, {model.m})")
    return i


def check_scalar_variance(v_i: float) -> float:
    """Validate one attack variance: finite and nonnegative."""
    v_i = float(v_i)
    if not math.isfinite(v_i):
        raise ValueError(f"attack variance must be finite, got {v_i}")
    if v_i < 0:
        raise ValueError(f"attack variance must be nonnegative, got {v_i}")
    return v_i


def attacked_cov(model: MeasurementModel, v) -> np.ndarray:
    """Covariance of the compromised measurements, Sigma_YY + diag(v)."""
    v = as_profile(model, v)
    out = model.Sigma_YY.copy()
    out[np.diag_indices_from(out)] += v
    return out


def chol_logdet(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a positive definite matrix, and its log-determinant."""
    chol = np.linalg.cholesky(mat)
    return chol, 2.0 * float(np.sum(np.log(np.diag(chol))))


def chol_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse L^{-T} L^{-1} of the matrix whose lower Cholesky factor is L."""
    inv_chol = np.linalg.inv(chol)
    return inv_chol.T @ inv_chol


def posterior_matrix(B: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The kernel matrix I + B^T diag(w) B."""
    M = (B.T * w) @ B
    M[np.diag_indices_from(M)] += 1.0
    return M


class PosteriorKernel:
    """Inverse and log-determinant of M(v) = I + B^T diag(w) B.

    Here ``w_j = 1 / (sigma2 + v_j)`` and ``B = H L``.  By the matrix
    determinant lemma ``log det M`` is ``log det(Sigma_YY + diag(v)) -
    sum_j log(sigma2 + v_j)``, so it gives both global metrics.  For
    player i with ``q = b_i^T M^{-1} b_i`` (b_i the i-th row of B),
    Sherman-Morrison gives the gain of the other players' measurements,
    ``gamma_i = q / (1 - w_i q)``; ``alpha_i = 1 / (sigma2 + gamma_i)``.

    :meth:`update` moves one player in O(n^2); :meth:`refactor` rebuilds
    from the profile in O(m n^2 + n^3).  ``gamma_i`` loses about
    ``log10(1 + w_i gamma_i)`` digits to the cancellation in ``1 - w_i q``.

    Attributes: ``v`` (the kernel's own copy of the profile), ``w``,
    ``inv`` (M^{-1}) and ``logdet`` (log det M).
    """

    def __init__(self, model: MeasurementModel, v):
        self.model = model
        self.v = as_profile(model, v).copy()
        self.refactor()

    def refactor(self) -> None:
        """Rebuild the inverse and log-determinant from the profile."""
        self.w = 1.0 / (self.model.sigma2 + self.v)
        chol, self.logdet = chol_logdet(posterior_matrix(self.model.B, self.w))
        self.inv = chol_inverse(chol)

    def gain(self, i: int) -> float:
        """gamma_i: variance of (H x)_i given the other attacked measurements."""
        b = self.model.B[i]
        q = float(b @ (self.inv @ b))
        return q / (1.0 - self.w[i] * q)

    def gains(self) -> np.ndarray:
        """gamma_i for every player at once."""
        B = self.model.B
        q = np.einsum("ij,ij->i", B @ self.inv, B)
        return q / (1.0 - self.w * q)

    def update(self, i: int, v_i: float) -> None:
        """Set player i's variance to v_i by a rank-one update."""
        w_i = 1.0 / (self.model.sigma2 + v_i)
        # The new w_i minus the old one, without cancellation.
        delta = (self.v[i] - v_i) * w_i * self.w[i]
        if delta != 0.0:
            b = self.model.B[i]
            u = self.inv @ b
            dq = delta * float(b @ u)
            self.inv -= (delta / (1.0 + dq)) * np.outer(u, u)
            self.logdet += math.log1p(dq)
        self.v[i] = v_i
        self.w[i] = w_i

    @property
    def mi(self) -> float:
        """Global mutual information, (1/2) log det M."""
        return 0.5 * self.logdet

    @property
    def kl(self) -> float:
        """Global KL divergence of attacked from clean measurements.

        (1/2)(log det M(0) - log det M(v) - sum_j log1p(v_j / sigma2)
        + v . diag(Sigma_YY^{-1})), exactly 0 at v = 0.
        """
        model = self.model
        return 0.5 * (
            model.logdet_M0
            - self.logdet
            - float(np.sum(np.log1p(self.v / model.sigma2)))
            + float(self.v @ model.inv_diag_YY)
        )
