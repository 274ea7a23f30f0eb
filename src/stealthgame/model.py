"""Stochastic observation model: state prior, noise calibration, covariances.

The sensed system is ``y = H x + z`` with ``x ~ N(0, Sigma_XX)`` and
``z ~ N(0, sigma2 I)``, so the clean measurements have covariance
``Sigma_YY = H Sigma_XX H^T + sigma2 I``.  An attack profile ``v``
(one nonnegative variance per measurement) adds ``diag(v)``.  One private
routine forms ``H Sigma_XX H^T`` and requires a positive, finite trace:
:func:`calibrate_noise` reads the trace and :func:`build_model` the matrix.

Global metrics and best-response scalars are read from one n-by-n kernel,
:class:`PosteriorKernel`: with ``Sigma_XX = L L^T`` and ``B = H L``, it
holds the inverse and log-determinant of ``M(v) = I + B^T diag(w) B``,
``w_j = 1 / (sigma2 + v_j)``.  Only :func:`posterior_factor` factors
``M(v)``, for the model's ``M(0)`` and whenever a kernel is rebuilt.
Changing one ``v_i`` is a rank-one change of ``M``: a best-response move
costs four BLAS calls, a matrix-vector product for ``M^{-1} b_i``, a dot
product for ``b_i . M^{-1} b_i``, one outer product into a preallocated
n-by-n workspace and one in-place subtraction.  At n = 59 (m = 149) they
take about 5 us of a move's 15 to 19 us (2 vCPUs, numpy 2.4); the rest
is Python call overhead, not flops.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

PSD_TOL = 1e-12  # absolute eigenvalue slack when validating covariances
# A difference smaller than this share of its terms has lost more than
# 4 bits to cancellation.
CANCELLED = 2.0**-4

__all__ = [
    "StatePriorSpec",
    "MeasurementModel",
    "toeplitz_cov",
    "calibrate_noise",
    "build_model",
    "attacked_cov",
    "chol_logdet",
    "chol_inverse",
    "posterior_factor",
    "kernel_gain",
    "PosteriorKernel",
]


@dataclass(frozen=True)
class StatePriorSpec:
    """Exponentially decaying Toeplitz prior: entry (i, j) = rho^|i-j|."""

    n: int
    rho: float

    def __post_init__(self):
        check_integer("n", self.n)
        if self.n < 1:
            raise ValueError(f"state dimension must be positive, got {self.n}")
        check_real("rho", self.rho)
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")


def toeplitz_cov(spec: StatePriorSpec) -> np.ndarray:
    idx = np.arange(spec.n)
    first_row = spec.rho**idx
    return first_row[np.abs(idx[:, None] - idx[None, :])]


def _signal_cov(H: np.ndarray, Sigma_XX: np.ndarray) -> np.ndarray:
    """H Sigma_XX H^T, exactly symmetric, or a ValueError if it or its
    trace overflows or the trace is not positive (no signal)."""
    with np.errstate(over="ignore", invalid="ignore"):
        signal_cov = H @ Sigma_XX @ H.T
        signal_cov = 0.5 * (signal_cov + signal_cov.T)
        trace = np.trace(signal_cov)
    if not (np.isfinite(trace) and np.all(np.isfinite(signal_cov))):
        raise ValueError("H Sigma_XX H^T overflows: H or Sigma_XX entries too large")
    if trace <= 0:
        raise ValueError("tr(H Sigma_XX H^T) must be positive")
    return signal_cov


def calibrate_noise(H: np.ndarray, Sigma_XX: np.ndarray, snr_db_target: float) -> float:
    """Noise variance that realizes the requested SNR in decibels."""
    H = np.asarray(H, dtype=float)
    m = H.shape[0]
    signal = float(np.trace(_signal_cov(H, Sigma_XX)))
    try:
        sigma2 = signal / (m * 10.0 ** (snr_db_target / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma2 = 0.0
    if not 0.0 < sigma2 < math.inf:  # also a NaN or infinite SNR
        raise ValueError(
            f"SNR must be finite and give a noise variance within double "
            f"range, got {snr_db_target} dB"
        )
    return sigma2


@dataclass(frozen=True)
class MeasurementModel:
    """Immutable observation model with cached derived quantities.

    Build through :func:`build_model`.  Every array it keeps is O(m n):
    ``Sigma_YY`` is formed only where it is read, by :func:`attacked_cov`.

    Cached fields: ``s`` the diagonal of ``Sigma_YY``; ``c`` the diagonal
    of ``H Sigma_XX H^T`` (so ``s = c + sigma2``), which :meth:`snr_db`
    reads; ``B`` is ``H L`` for a factor ``Sigma_XX = L L^T`` (from
    ``eigh``, so singular priors work);
    ``logdet_M0`` is the log-determinant of the kernel matrix ``M(0)``;
    and ``gain0`` holds each player's gain ``gamma_i(0)`` with every other
    measurement clean.  ``M(0)`` is factored by :func:`posterior_factor`
    and each ``gamma_i(0)`` formed by :func:`kernel_gain`, the two calls a
    kernel at ``v = 0`` makes.  By Sherman-Morrison on
    that kernel, ``1 / (sigma2 + gamma_i(0))`` is the i-th diagonal entry
    of ``Sigma_YY^{-1}``.
    """

    H: np.ndarray
    sigma2: float
    Sigma_XX: np.ndarray
    s: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    logdet_M0: float = field(repr=False)
    gain0: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[1]

    def snr_db(self) -> float:
        """Signal-to-noise ratio 10 log10(tr(H Sigma_XX H^T) / (m sigma2))."""
        return float(10.0 * np.log10(np.sum(self.c) / (self.m * self.sigma2)))


def build_model(H: np.ndarray, Sigma_XX: np.ndarray, sigma2: float) -> MeasurementModel:
    """Assemble and validate a :class:`MeasurementModel`."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    Sigma_XX = np.atleast_2d(np.asarray(Sigma_XX, dtype=float))
    m, n = H.shape
    if m == 0 or n == 0:
        raise ValueError(
            f"H must have at least one row and one column, got shape {H.shape}"
        )
    if Sigma_XX.shape != (n, n):
        raise ValueError(
            f"Sigma_XX shape {Sigma_XX.shape} does not match H columns ({n})"
        )
    sigma2 = check_positive("sigma2", sigma2)
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

    signal_cov = _signal_cov(H, Sigma_XX)
    Sigma_YY = signal_cov + sigma2 * np.eye(m)  # as attacked_cov forms it
    # M(0) and the gains as a kernel at v = 0 forms them, so that
    # kl_global(model, 0) is exactly 0 and the gain differences
    # gamma_i(v) - gamma_i(0) of the best responses are exactly 0 while a
    # kernel is at v = 0.
    w0 = np.full(m, 1.0 / sigma2)
    try:
        np.linalg.cholesky(Sigma_YY)  # only to check it is positive definite
        with np.errstate(over="ignore", invalid="ignore"):
            inv_M0, logdet_M0 = posterior_factor(B, w0)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"Sigma_YY or the kernel matrix M(0) is not numerically positive "
            f"definite: sigma2 {sigma2} is too small for this H and Sigma_XX"
        ) from None
    if not (math.isfinite(logdet_M0) and np.all(np.isfinite(inv_M0))):
        raise ValueError(
            f"the kernel matrix M(0) is not within double range: "
            f"sigma2 {sigma2} is too small for this H and Sigma_XX"
        )
    gain0 = [kernel_gain(B, w0, inv_M0, i)[1] for i in range(m)]
    model = MeasurementModel(
        H=H,
        sigma2=sigma2,
        Sigma_XX=Sigma_XX,
        s=np.diag(Sigma_YY).copy(),
        c=np.diag(signal_cov).copy(),
        B=B,
        logdet_M0=logdet_M0,
        gain0=np.array(gain0),
    )
    with np.errstate(over="ignore", divide="ignore"):
        snr_db = model.snr_db()
    if not math.isfinite(snr_db):
        raise ValueError(
            f"SNR tr(H Sigma_XX H^T) / (m sigma2) is not within double range: "
            f"sigma2 {sigma2} is too {'large' if snr_db < 0 else 'small'} "
            f"for this H and Sigma_XX"
        )
    return model


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
    """Validate a 0-based measurement index: an integer in [0, m)."""
    check_integer("measurement index", i)
    if not 0 <= i < model.m:
        raise IndexError(f"measurement index {i} outside [0, {model.m})")
    return int(i)


def check_integer(name: str, value) -> None:
    """Validate an integer field: a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value) -> None:
    """Validate a real-number field: a Python or numpy real, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_positive(name: str, value) -> float:
    """Validate a scalar named ``name``: finite and positive; as a float."""
    value = float(value)
    if not 0.0 < value < math.inf:  # NaN fails both comparisons
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def check_nonnegative(name: str, value) -> float:
    """Validate a scalar named ``name``: finite and nonnegative; as a float."""
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


def attacked_cov(model: MeasurementModel, v) -> np.ndarray:
    """Covariance of the compromised measurements, Sigma_YY + diag(v).

    Formed from ``H`` and ``Sigma_XX`` as :func:`build_model` forms
    ``Sigma_YY``, so ``v = 0`` gives the same bits.
    """
    v = as_profile(model, v)
    out = _signal_cov(model.H, model.Sigma_XX) + model.sigma2 * np.eye(model.m)
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


def posterior_factor(B: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse and log-determinant of the kernel matrix M = I + B^T diag(w) B."""
    M = (B.T * w) @ B
    M[np.diag_indices_from(M)] += 1.0
    chol, logdet = chol_logdet(M)
    return chol_inverse(chol), logdet


def kernel_gain(B, w, inv, i: int) -> tuple[np.ndarray, float]:
    """u = M^{-1} b_i and gamma_i, for M = I + B^T diag(w) B with inverse inv.

    With ``q = b_i . u`` (u and q are one BLAS call each), Sherman-Morrison
    gives ``gamma_i = q / (1 - w_i q)``, a Python float.
    When that difference would lose more than 4 bits
    (``w_i q > 1 - CANCELLED``), u is refined once against M (applied as
    ``I + B^T diag(w) B``), and ``M u = b_i`` gives the same gain as
    ``q^2 / (|u|^2 + sum_{j != i} w_j (b_j . u)^2)``, a ratio of sums of
    squares, in O(m n).  Each square is of ``sqrt(w_j) (b_j . u)`` and q
    divides before it multiplies, so no term has the square of a
    variance, which leaves double range at extreme scale.  The returned
    u is the refined one.
    """
    b = B[i]
    u = inv.dot(b)
    q = float(b.dot(u))
    wq = float(w[i]) * q
    if wq <= 1.0 - CANCELLED:
        return u, q / (1.0 - wq)
    u = u + inv @ (b - u - B.T @ (w * (B @ u)))
    q = float(b @ u)
    Bu = np.sqrt(w) * (B @ u)
    Bu[i] = 0.0
    return u, q / float(u @ u + Bu @ Bu) * q


class PosteriorKernel:
    """Inverse and log-determinant of M(v) = I + B^T diag(w) B.

    Here ``w_j = 1 / (sigma2 + v_j)`` and ``B = H L``.  By the matrix
    determinant lemma ``log det M`` is ``log det(Sigma_YY + diag(v)) -
    sum_j log(sigma2 + v_j)``, so it gives both global metrics.

    Player i's row is ``M^{-1} b_i`` (b_i the i-th row of B) and the gain
    of the other players' measurements, ``gamma_i``, both from
    :func:`kernel_gain`; ``alpha_i = 1 / (sigma2 + gamma_i)``.  The kernel
    caches the last row it formed, and :meth:`gain` and :meth:`update`
    read only that row, so a gain followed by a move of the same player
    forms it once.  :meth:`update` is O(n^2), one BLAS outer product into
    a workspace and one in-place subtraction; :meth:`refactor` rebuilds
    from the profile in O(m n^2 + n^3) by :func:`posterior_factor`, the
    call that gave the model its ``M(0)``.  The sums
    ``sum_j log1p(v_j / sigma2)`` and ``v . diag(Sigma_YY^{-1})`` that
    :attr:`kl` needs are kept as running totals, with
    ``diag(Sigma_YY^{-1}) = 1 / (sigma2 + gain0)``, so :attr:`mi` and
    :attr:`kl` are O(1); :meth:`refactor` recomputes them.

    Attributes: ``v`` (the kernel's own copy of the profile), ``w``,
    ``inv`` (M^{-1}) and ``logdet`` (log det M).
    """

    def __init__(self, model: MeasurementModel, v):
        self.model = model
        self.v = as_profile(model, v).copy()
        self._outer = np.empty((model.n, model.n))  # update's rank-one term
        self._beta = 1.0 / (model.sigma2 + model.gain0)  # diag(Sigma_YY^{-1})
        self.refactor()

    def refactor(self) -> None:
        """Rebuild the inverse, log-determinant and sums from the profile."""
        model = self.model
        self.w = 1.0 / (model.sigma2 + self.v)
        self.inv, self.logdet = posterior_factor(model.B, self.w)
        self._log_sum = float(np.sum(np.log1p(self.v / model.sigma2)))
        self._lin_sum = float(self.v @ self._beta)
        self._row = None

    def _solve_row(self, i: int) -> tuple[np.ndarray, float]:
        """Player i's row, M^{-1} b_i and gamma_i, formed once per kernel state."""
        if self._row is None or self._row[0] != i:
            self._row = (i, *kernel_gain(self.model.B, self.w, self.inv, i))
        return self._row[1], self._row[2]

    def gain(self, i: int) -> float:
        """gamma_i: variance of (H x)_i given the other attacked measurements."""
        return self._solve_row(i)[1]

    def update(self, i: int, v_i: float) -> None:
        """Set player i's variance to v_i by a rank-one update from its row.

        With ``u = M^{-1} b_i`` and ``q = b_i . u``, the Sherman-Morrison
        pivot ``1 + (w_new - w_old) q`` equals
        ``(1 + w_new gamma_i) / (1 + w_old gamma_i)``, a ratio of two
        numbers >= 1 that cannot cancel; it scales the rank-one term in
        ``u u^T`` and its logarithm moves ``log det M``.
        """
        model = self.model
        i = check_index(model, i)
        v_i = check_nonnegative("attack variance", v_i)
        v_old, w_old = self.v.item(i), self.w.item(i)
        w_i = 1.0 / (model.sigma2 + v_i)
        # The new w_i minus the old one, without cancellation.
        delta = (v_old - v_i) * w_i * w_old
        if delta != 0.0:
            u, gamma = self._solve_row(i)
            before, after = 1.0 + w_old * gamma, 1.0 + w_i * gamma
            self._row = None
            scaled = (delta * before / after) * u
            # One BLAS call; each entry is one product, as in np.multiply.outer.
            np.dot(scaled[:, None], u[None, :], out=self._outer)
            self.inv -= self._outer
            self.logdet += math.log(after / before)
        # log1p(v_i / sigma2) - log1p(v_old / sigma2) in one logarithm.
        self._log_sum += math.log1p((v_i - v_old) * w_old)
        self._lin_sum += (v_i - v_old) * self._beta.item(i)
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
        return 0.5 * (
            self.model.logdet_M0 - self.logdet - self._log_sum + self._lin_sum
        )
