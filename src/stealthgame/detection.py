"""Monte-Carlo likelihood-ratio detection of random attacks.

Samples clean and attacked measurement vectors, evaluates their joint
log-likelihood ratios, and estimates Type-I/Type-II error trade-offs
for threshold tests.  Thresholds are applied on the log scale to avoid
overflow.  Every draw comes from an explicitly seeded generator, so
every result is reproducible byte for byte.

:func:`sample_observations` multiplies standard normals by the lower
Cholesky factor of the covariance.  The model keeps no m-by-m matrix:
each function here factors ``Sigma_YY + diag(v)`` as
:func:`attacked_cov` forms it, with ``v = 0`` for ``Sigma_YY``.  The
joint LLR of an observation is one quadratic form, ``(1/2) y^T Delta
y`` plus a log-determinant ratio, with ``Delta = Sigma_YY^{-1} diag(v)
Sigma_a^{-1}`` (``Sigma_a = Sigma_YY + diag(v)``): this equals
``Sigma_YY^{-1} - Sigma_a^{-1}`` without the cancellation of the
difference, and is exactly 0 at ``v = 0``.

:func:`llr_samples` (hence :func:`error_curve`, :func:`roc_auc` and the
``detect`` command) draws LLR values without forming observations.  With
``F = L^{-1} diag(sqrt(v))`` for ``L`` the factor of ``Sigma_YY`` and
``kappa_k >= 0`` the eigenvalues of ``F F^T``, the squared singular
values of F (so ``1 + kappa_k`` are the generalized eigenvalues of
``(Sigma_a, Sigma_YY)``), the joint LLR
of a clean observation is distributed as
``(1/2) sum_k kappa_k / (1 + kappa_k) z_k^2 - (1/2) sum_k log1p(kappa_k)``
and that of an attacked one as
``(1/2) sum_k kappa_k z_k^2 - (1/2) sum_k log1p(kappa_k)``, z standard
normal.  That is the distribution of :func:`llr_joint` of
:func:`sample_observations` draws, with other realizations, and there
is no cancellation: at ``v = 0`` every value is exactly 0.

Both sums read z only through its squares, which are drawn in pairs.
With ``h = ceil(m / 2)`` (and ``kappa`` padded with one zero weight when
m is odd), each row takes uniforms ``U_j`` and ``U'_j`` for ``j < h``,
sets ``E_j = -log(1 - U'_j)``, which is ``Exp(1)`` by inversion
(Devroye, *Non-Uniform Random Variate Generation*, 1986, II.2), and sets
``z_j^2 = 2 E_j / (1 + tan^2(pi U_j / 2))`` and ``z_{j+h}^2 = 2 E_j -
z_j^2``.  This is the polar form of two independent normals (Box and
Muller, 1958): ``z_j = R cos(theta)``, ``z_{j+h} = R sin(theta)`` with
``R^2 / 2 ~ Exp(1)`` and ``theta`` uniform on [0, 2 pi) and independent
of R, so ``z_j^2 + z_{j+h}^2 = R^2`` and ``z_{j+h}^2 = R^2 - z_j^2``;
``cos^2`` is symmetric about 0 and about ``pi / 2``, so ``cos^2(theta)``
has the law of ``cos^2(pi U / 2)``.  The squares therefore have the
joint law of the squares of m independent standard normals, and every
LLR keeps its law.  Two uniforms replace two normals, and each costs
less.  The generator fills uniforms faster than its ziggurat draws
exponentials, and numpy runs float64 ``log`` and ``tan`` as AVX-512
loops where the CPU has them; where it does not, the draw is about
10% slower than with the generator's exponentials.  At m = 74 a chunk
of 1024 rows takes about 0.42 ms on a 2-vCPU AVX-512 host: the uniform
fill 49%, ``tan`` 16%, ``log`` 10%, the other elementwise steps 18%
and the two matrix products 5%.  ``U'`` is a multiple of ``2^-53`` in
[0, 1), so ``1 - U'`` is exact and lies in (0, 1], and E is finite, in
[0, 53 log 2].  The squared cosine comes from the exact identity
``cos^2 x = 1 / (1 + tan^2 x)``, because numpy's AVX-512 float64
``tan`` is about 7 times faster than its scalar ``cos``.  ``t =
tan(x)`` is at most ``tan(fl(pi / 2))``, about 1.6e16, so ``t^2`` is
finite, and both squares of a pair lie in [0, 2 E] in floating point:
``E / (1 + t^2)`` divides E by a number of at least 1.  The draw keeps
``log(1 - U') = -E`` and so the negated squares, and the weights carry
the sign: negation is exact, so each product, and every value, is that
of E, the squares and the positive weights.

The chunks are split into contiguous blocks, one per CPU the process
may run on, with at least 8 chunks to a block and at most 4 blocks, so
a 10,000-sample draw stays on the calling thread.  The calling thread
draws the first block and one plain thread each other, started and
joined within the call.  Each block has its own chunk buffer (0.6 MB at
m = 74, and the cap keeps their number from growing with the CPU count)
and its own PCG64 generator: that of ``np.random.default_rng(seed)``,
advanced past the chunks before the block.  PCG64 jumps ahead in
O(log n) steps (O'Neill, 2014; Brown, 1994), and each float64 of
``Generator.random`` takes exactly one of its 64-bit outputs, so every
value is bit for bit that of one serial draw, whatever the number of
CPUs.  numpy releases the GIL while it fills uniforms and runs its
loops.  At m = 74 a 100,000-sample draw takes about 24 ms on 2 vCPUs,
against 37 ms on one.  The split pays only while OpenBLAS's worker
threads sleep: a LAPACK call that wakes them leaves them busy-waiting
for about 0.1 s on the other CPUs.  So kappa comes from an SVD of F,
which below m of about 128 takes an unblocked path that wakes no
worker, where ``eigvalsh`` of ``F F^T`` wakes them at m = 74.  From m of
about 128 on, every factorization here wakes them, and the split is
then about as fast as the serial draw.

One draw of z serves both hypotheses, as in
:func:`sample_observations`: each array has the distribution above, and
since the weight gap
``(1/2) kappa_k^2 / (1 + kappa_k)`` is nonnegative, every attacked value
is at least the clean value of its draw.  An empirical ROC therefore
never dips below chance (Type-I plus Type-II error is at most 1 at every
threshold), as the true LRT's does not.  The same-draw pairs also enter
the rank AUC of :func:`roc_auc`: its expectation exceeds that of
independent samples by ``(1 - AUC) / n <= 1 / (2 n)`` for n samples.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading

import numpy as np

from .model import (
    MeasurementModel,
    as_profile,
    attacked_cov,
    check_integer,
    chol_inverse,
    chol_logdet,
)

MIN_CURVE_SAMPLES = 1000
# Rows of squared normals drawn at a time by llr_samples: a 0.6 MB
# buffer at m = 74.
SAMPLE_CHUNK_ROWS = 1024
# Chunks per thread at least, and threads at most, in llr_samples: a
# 10,000-sample draw (10 chunks) stays on the calling thread, and as each
# thread holds a chunk buffer of its own, the draw holds at most four
# buffers whatever the CPU count.
_MIN_THREAD_CHUNKS = 8
_MAX_THREADS = 4

__all__ = [
    "sample_observations",
    "llr_joint",
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
    v, n_samples = as_profile(model, v), _sample_count(n_samples)
    chol = np.linalg.cholesky(attacked_cov(model, v if attacked else np.zeros_like(v)))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_samples, model.m)) @ chol.T


def _sample_count(n_samples) -> int:
    """``n_samples``, an integer of at least 1, as an int."""
    check_integer("n_samples", n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    return int(n_samples)


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

    chol_0, logdet_0 = chol_logdet(attacked_cov(model, np.zeros_like(v)))
    chol_a, logdet_a = chol_logdet(attacked_cov(model, v))
    delta = chol_inverse(chol_0) @ (v[:, None] * chol_inverse(chol_a))
    delta = 0.5 * (delta + delta.T)
    quad = np.einsum("ij,ij->i", Y @ delta, Y)
    out = 0.5 * quad + 0.5 * (logdet_0 - logdet_a)
    return float(out[0]) if single else out


def llr_samples(
    model: MeasurementModel, v, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Joint LLR values of ``n_samples`` clean and attacked observations.

    Draws the weighted sums of squared standard normals of the module
    docstring from one PCG64 stream seeded with ``seed``, in chunks of
    ``SAMPLE_CHUNK_ROWS`` rows, so no observation matrix is formed.  The
    chunks are split into contiguous blocks, one per thread, each drawn
    from the stream advanced to its first chunk, so the values do not
    depend on the number of threads (see the module docstring).  Each
    chunk fills one ``2 x SAMPLE_CHUNK_ROWS x h`` block of uniforms
    (``h = ceil(m / 2)``): the angles U, then the U' of the exponentials
    ``E = -log(1 - U')``.  Row k's squares are ``z_j^2 = 2 E_kj / (1 +
    tan^2(pi U_kj / 2))``, which is ``2 E_kj cos^2(pi U_kj / 2)``, and
    ``z_{j+h}^2 = 2 E_kj - z_j^2``, both in [0, 2 E_kj] since ``1 + tan^2
    >= 1``, and finite since E is at most ``53 log 2`` and the angle at
    most ``fl(pi / 2)``, where ``tan`` is about 1.6e16.  They are weighted
    against ``kappa`` padded with one zero when m is odd, both hypotheses
    in one matrix product per half of the block.  The draw holds ``-E``
    and the negated squares, and negated weights make each product the
    positive one exactly.  Its speed rests on numpy's AVX-512 loops for
    float64 ``log`` and ``tan`` (see the module docstring).  Whole chunks
    are drawn and reduced, and the rows needed copied out, so the first k
    values do not depend on ``n_samples``.  Value k of both arrays comes
    from the same row of squares, weighted by ``kappa / (1 + kappa)``
    (clean) and ``kappa`` (attacked), so ``llr_attacked >= llr_null``
    elementwise while each array keeps its own distribution; a rank AUC
    of the two arrays is biased up by at most ``1 / (2 n_samples)``.  At
    ``v = 0`` every value is exactly 0.
    """
    v, n_samples = as_profile(model, v), _sample_count(n_samples)
    kappa = _whitened_spectrum(model, v)
    pairs = -(-model.m // 2)
    padded = np.zeros(2 * pairs)
    padded[: model.m] = kappa
    # Columns (clean, attacked) of each half's weights.  The halves hold
    # -z^2 / 2, so the module docstring's weights lose their 1/2 and
    # change sign: each product is the positive one exactly.
    weights = -np.stack([padded / (1.0 + padded), padded], axis=1)
    llr_null, llr_attacked = np.empty(n_samples), np.empty(n_samples)
    chunks = -(-n_samples // SAMPLE_CHUNK_ROWS)
    workers = max(1, min(_cpu_count(), chunks // _MIN_THREAD_CHUNKS, _MAX_THREADS))
    firsts = [chunks * k // workers for k in range(workers + 1)]
    failures = []

    def draw(first: int, stop: int) -> None:
        try:
            _draw_chunks(weights, seed, first, stop, llr_null, llr_attacked)
        except BaseException as exc:  # re-raised by the caller after join
            failures.append(exc)

    # A new thread starts from an empty context; copying this one carries
    # numpy's errstate, a context variable, over to each helper.
    helpers = [
        threading.Thread(
            target=contextvars.copy_context().run, args=(draw, first, stop)
        )
        for first, stop in zip(firsts[1:-1], firsts[2:])
    ]
    started = []
    try:
        for helper in helpers:
            helper.start()
            started.append(helper)
        _draw_chunks(weights, seed, 0, firsts[1], llr_null, llr_attacked)
    finally:
        for helper in started:
            helper.join()
    if failures:
        raise failures[0]
    half_logdet = 0.5 * float(np.sum(np.log1p(kappa)))
    llr_null -= half_logdet
    llr_attacked -= half_logdet
    return llr_null, llr_attacked


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS and Windows
        return os.cpu_count() or 1


def _chunk_generator(seed, first_chunk: int, pairs: int) -> np.random.Generator:
    """``np.random.default_rng(seed)`` past the uniforms of ``first_chunk``
    chunks of :func:`llr_samples`, ``2 x SAMPLE_CHUNK_ROWS x pairs`` each.

    Each float64 of ``Generator.random`` takes exactly one 64-bit output
    of PCG64, which jumps ahead in O(log n) steps, so the generator's
    next uniform is the one the serial draw takes next at that chunk.
    """
    bits = np.random.PCG64(seed)
    bits.advance(first_chunk * 2 * SAMPLE_CHUNK_ROWS * pairs)
    return np.random.Generator(bits)


def _draw_chunks(
    weights: np.ndarray,
    seed,
    first: int,
    stop: int,
    llr_null: np.ndarray,
    llr_attacked: np.ndarray,
) -> None:
    """Chunks ``[first, stop)`` of :func:`llr_samples`' draw, before its
    log-determinant term, into their rows of ``llr_null`` and
    ``llr_attacked``, with a generator and a chunk buffer of their own."""
    pairs = weights.shape[0] // 2
    weights_angle, weights_radius = weights[:pairs], weights[pairs:]
    rng = _chunk_generator(seed, first, pairs)
    draw = np.empty((2, SAMPLE_CHUNK_ROWS, pairs))
    angle, radius = draw  # U, then U'
    reduced, term = np.empty((2, SAMPLE_CHUNK_ROWS, 2))
    n_samples, rows = llr_null.size, SAMPLE_CHUNK_ROWS
    for start in range(first * rows, stop * rows, rows):
        rng.random(out=draw)
        np.subtract(1.0, radius, out=radius)  # 1 - U', exact, in (0, 1]
        np.log(radius, out=radius)  # -E = -R^2 / 2, in [-53 ln 2, 0]
        angle *= 0.5 * math.pi
        np.tan(angle, out=angle)
        np.square(angle, out=angle)
        angle += 1.0  # 1 + tan^2 = 1 / cos^2, at least 1
        np.divide(radius, angle, out=angle)  # -E cos^2, in [-E, 0]
        radius -= angle  # -(E - E cos^2) <= 0
        np.matmul(angle, weights_angle, out=reduced)
        np.matmul(radius, weights_radius, out=term)
        reduced += term
        end = min(start + rows, n_samples)
        llr_null[start:end] = reduced[: end - start, 0]
        llr_attacked[start:end] = reduced[: end - start, 1]


def _whitened_spectrum(model: MeasurementModel, v: np.ndarray) -> np.ndarray:
    """kappa: the eigenvalues of F F^T, F = L^{-1} diag(sqrt(v)), ascending.

    They are the squared singular values of F.  LAPACK's SVD of F skips
    the product F F^T, and below m of about 128 it takes an unblocked
    path that leaves OpenBLAS's worker threads asleep.  ``eigvalsh`` of
    F F^T wakes them at m = 74, and their busy-wait takes a CPU from the
    threaded draw of :func:`llr_samples` that follows.
    """
    chol = np.linalg.cholesky(attacked_cov(model, np.zeros_like(v)))
    F = np.linalg.inv(chol) * np.sqrt(v)
    return np.linalg.svd(F, compute_uv=False)[::-1] ** 2


def threshold_curve(
    llr_null: np.ndarray, llr_attacked: np.ndarray, thresholds
) -> list[tuple[float, float, float]]:
    """Empirical (tau, Type-I, Type-II) triples from joint LLR samples.

    For each threshold tau > 0 the detector accuses when the joint LLR
    is at least log(tau).  Type-I error is estimated on ``llr_null``
    (clean samples), Type-II on ``llr_attacked``; each needs at least
    ``MIN_CURVE_SAMPLES`` values.  A sample already in ascending order
    is read as it is; any other is sorted into a copy, so the caller's
    arrays are never modified.
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

    # At most one sort per hypothesis; NaN sorts last and neither accuses nor misses.
    null, attacked = _ascending(llr_null), _ascending(llr_attacked)
    log_taus = [math.log(tau) for tau in thresholds]
    n_null_valid = null.size - np.count_nonzero(np.isnan(null))
    accused = n_null_valid - np.searchsorted(null, log_taus, side="left")
    missed = np.searchsorted(attacked, log_taus, side="left")
    return [
        (tau, int(a) / null.size, int(b) / attacked.size)
        for tau, a, b in zip(thresholds, accused, missed)
    ]


def _ascending(x) -> np.ndarray:
    """The values of ``x``, flattened, in ascending order with NaNs last.

    Returns ``x`` itself (flattened, a view when ``x`` is contiguous) when
    one O(n) comparison of neighbours shows it already is in that order.
    Otherwise it sorts the flattened values: in place when flattening
    already copied them, else into one copy.  ``x`` is never modified.
    A NaN fails every comparison, so two or more values holding one are
    always sorted, which puts the NaNs last.
    """
    flat = np.ravel(x)
    if np.all(flat[:-1] <= flat[1:]):
        return flat
    if np.may_share_memory(flat, x):
        return np.sort(flat)
    flat.sort()
    return flat


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
    llr_null.sort()  # the draw is ours: sorted in place, not copied
    llr_attacked.sort()
    return threshold_curve(llr_null, llr_attacked, thresholds)


def roc_auc(model: MeasurementModel, v, n_samples: int, seed: int) -> float:
    """Empirical detection AUC of the joint LRT (rank statistic).

    Probability that an attacked sample's LLR exceeds a clean sample's,
    ties counted half, over all n^2 pairs of :func:`llr_samples` values.
    The n pairs from the same draw each count 1 (the attacked value is
    never below its clean one), so the estimate's expectation exceeds the
    AUC of independent samples by ``(1 - AUC) / n <= 1 / (2 n)``; the
    other n^2 - n pairs are independent.
    """
    llr_null, llr_attacked = llr_samples(model, v, n_samples, seed)
    llr_null.sort()  # the draw is ours: sorted in place, not copied
    llr_attacked.sort()
    return rank_auc(llr_null, llr_attacked)


def rank_auc(llr_null: np.ndarray, llr_attacked: np.ndarray) -> float:
    """Mann-Whitney AUC of two samples, ties counted half.

    U sums, over the attacked values, the number of null values below
    plus half the number tied, which is the midrank sum of the attacked
    sample less n1 (n1 + 1) / 2.  U comes from two ``searchsorted``
    counts over the two samples in ascending order.  A sample already in
    that order is read as it is; any other is sorted into a copy, and
    the caller's arrays are never modified.  So the extra memory is one
    index array plus a copy of each sample that was not ascending, O(n).
    The count 2 U is an integer, so the result is U / (n0 n1) correctly
    rounded while n0 n1 is below 2**52.  NaNs sort above +inf and tie
    with one another.  Raises ValueError when either sample is empty.
    """
    n0, n1 = llr_null.size, llr_attacked.size
    if n0 == 0 or n1 == 0:
        raise ValueError(f"rank_auc needs nonempty samples, got sizes {n0} and {n1}")
    null, attacked = _ascending(llr_null), _ascending(llr_attacked)
    below = int(np.searchsorted(null, attacked, side="left").sum())
    not_above = int(np.searchsorted(null, attacked, side="right").sum())
    return (below + not_above) / 2.0 / (n0 * n1)
