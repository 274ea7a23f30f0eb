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
never the quadratic or cubic solvers.  The ``mp_*`` references redo
best responses and best-response dynamics in 50-digit mpmath
arithmetic from the cost derivatives, not from the solvers' polynomials,
and ``kl_global`` from the m-by-m matrix ``sigma2 I + B B^T``.
``llr_local``, the scalar LLR of one measurement, is the Monte-Carlo
oracle for the package's ``kl_local``.  ``brd_per_move`` is the one
oracle that runs the package's kernel: it redoes ``run_brd`` through the
public, validated ``player_contexts`` and ``br_g1``/``br_g2``/``br_g3``, with
one trajectory record formed after every move and the local sums of games
2 and 3 kept one term at a time, to check bit for bit the moves and the
records that ``run_brd`` assembles once per round.
``naive_trajectory_lines`` renders every cell of every record, the
reference for ``run``'s trajectory writer.
"""

import math
from types import SimpleNamespace
from typing import NamedTuple

import mpmath
import numpy as np

from stealthgame.bestresponse import (
    BRContext,
    br_g1,
    br_g2,
    br_g3,
    player_contexts,
)
from stealthgame.dynamics import (
    DEFAULT_T_MAX,
    DEFAULT_TOL,
    ConvergenceReport,
    TrajectoryRecord,
)
from stealthgame.games import GameSpec, cost
from stealthgame.grid import (
    Branch,
    BusNetwork,
    build_dc_jacobian,
    bundled_case,
    parse_network,
)
from stealthgame.model import (
    MeasurementModel,
    PosteriorKernel,
    StatePriorSpec,
    as_profile,
    attacked_cov,
    build_model,
    calibrate_noise,
    check_index,
    check_nonnegative,
    chol_logdet,
    toeplitz_cov,
)

_GOLDEN_WIDTH = 1e-10
_BRACKET_MAX = 1e12  # br_numeric's largest upper end
MP_DPS = 50
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


def ieee9_model_at(snr: float) -> MeasurementModel:
    """Bundled 9-bus case with rho = 0.9 and the noise of an SNR in dB."""
    with open(bundled_case("ieee9"), encoding="utf-8") as fh:
        H = build_dc_jacobian(parse_network(fh.read())).H
    Sigma_XX = toeplitz_cov(StatePriorSpec(H.shape[1], 0.9))
    return build_model(H, Sigma_XX, calibrate_noise(H, Sigma_XX, snr))


def chain_network(n_bus: int, seed: int = 0) -> BusNetwork:
    """A chain of n_bus buses plus n_bus // 2 random chords: (n_bus - 1)
    + n_bus // 2 branches, so (n_bus - 1) + n_bus // 2 + n_bus
    measurements (74 for 30 buses, 149 for 60)."""
    rng = np.random.default_rng(seed)
    edges = {(k, k + 1) for k in range(1, n_bus)}
    while len(edges) < (n_bus - 1) + n_bus // 2:
        a, b = sorted(rng.choice(np.arange(1, n_bus + 1), 2, replace=False).tolist())
        edges.add((a, b))
    branches = tuple(Branch(a, b, float(rng.uniform(5.0, 20.0)))
                     for a, b in sorted(edges))
    return BusNetwork(n_bus=n_bus, slack=1, branches=branches)


def chain_model(n_bus: int, snr: float, seed: int = 0) -> MeasurementModel:
    """The model of :func:`chain_network` with rho = 0.9 and the noise of
    an SNR in dB."""
    H = build_dc_jacobian(chain_network(n_bus, seed)).H
    Sigma_XX = toeplitz_cov(StatePriorSpec(H.shape[1], 0.9))
    return build_model(H, Sigma_XX, calibrate_noise(H, Sigma_XX, snr))


def low_redundancy_model(shape: str, snr: float) -> MeasurementModel:
    """A model whose measurements share little or no information: H = I
    (2-by-2), a random square or wide H, or a tall H with a critical row
    (the only measurement of the last state)."""
    rng = np.random.default_rng(0)
    if shape == "identity":
        H, Sigma_XX = np.eye(2), np.eye(2)
    elif shape == "square":
        H, Sigma_XX = rng.standard_normal((5, 5)), toeplitz_cov(StatePriorSpec(5, 0.5))
    elif shape == "wide":
        H, Sigma_XX = rng.standard_normal((3, 6)), toeplitz_cov(StatePriorSpec(6, 0.9))
    else:
        H = np.vstack([np.eye(6, 4) + rng.standard_normal((6, 4)), np.eye(1, 4, 3)])
        H[:6, 3] = 0.0
        Sigma_XX = np.eye(4)
    return build_model(H, Sigma_XX, calibrate_noise(H, Sigma_XX, snr))


class CleanCov(NamedTuple):
    Sigma_YY: np.ndarray
    chol_YY: np.ndarray
    logdet_YY: float


def clean_cov(model: MeasurementModel) -> CleanCov:
    """Sigma_YY, its lower Cholesky factor and its log-determinant, which a
    model does not keep, formed as detection forms them."""
    Sigma_YY = attacked_cov(model, np.zeros(model.m))
    return CleanCov(Sigma_YY, *chol_logdet(Sigma_YY))


def kernel_gains(kernel: PosteriorKernel) -> np.ndarray:
    """gamma_i of every player at the kernel's profile."""
    return np.array([kernel.gain(i) for i in range(kernel.model.m)])


def random_profile(rng, model, scale=3.0):
    return rng.uniform(0.0, scale, size=model.m) * float(
        np.mean(np.diag(clean_cov(model).Sigma_YY))
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


def oracle_alpha(model, i, v):
    """alpha_i = e_i^T (Sigma_YY + diag(v with v_i = 0))^{-1} e_i from a
    dense m-by-m solve; it equals 1 / (sigma2 + gamma_i)."""
    v_others = np.asarray(v, dtype=float).copy()
    v_others[i] = 0.0
    e_i = np.zeros(model.m)
    e_i[i] = 1.0
    return float(np.linalg.solve(attacked_cov(model, v_others), e_i)[i])


def oracle_br_context(model, i, v):
    """Best-response context from m-by-m factorizations.

    gamma from a dense solve with A = G D + I, D the inverse noise-plus-
    attack variances with player i's entry set to 0, and gamma0 the same
    with every attack variance 0.
    """
    v_others = np.asarray(v, dtype=float).copy()
    v_others[i] = 0.0
    G = clean_cov(model).Sigma_YY - model.sigma2 * np.eye(model.m)

    def gain(profile):
        weights = 1.0 / (model.sigma2 + profile)
        weights[i] = 0.0
        A = G * weights[np.newaxis, :]
        A[np.diag_indices_from(A)] += 1.0
        return float(np.linalg.solve(A, G[:, i])[i])

    return BRContext(
        gamma=gain(v_others),
        gamma0=gain(np.zeros(model.m)),
        s=float(model.s[i]),
        c=float(model.c[i]),
        v=float(v[i]),
    )


def checked_response(spec: GameSpec, ctx: BRContext, sigma2: float) -> float:
    """The best response by the public solver of the game, which checks
    the weight and the noise variance on every call."""
    if spec.game == 1:
        return br_g1(ctx, sigma2, spec.lam)
    if spec.game == 2:
        return br_g2(ctx, sigma2, spec.lam)
    return br_g3(ctx, sigma2, spec.lam)


def brd_per_move(spec: GameSpec, model: MeasurementModel, t_max=DEFAULT_T_MAX,
                 tol=DEFAULT_TOL):
    """``run_brd`` from v = 0 through the public, validated calls: each
    context from ``player_contexts`` and each response from ``br_g1``,
    ``br_g2`` or ``br_g3``.  After each update the kernel's profile is
    copied and the potential formed from its global metrics.  In games 2
    and 3 the local sum is the round start's plus a running sum of the
    moved players' changes, one term at a time; the last move of a round,
    where the kernel is refactored, takes the sum over the whole profile
    afresh.  The residual is formed from a fresh kernel."""

    def local_terms(v):
        if spec.game == 2:
            return np.log1p(model.c / (model.sigma2 + v))
        return v / model.s + np.log(model.s) - np.log(model.s + v)

    def record(kernel, t, player, local_sum):
        if spec.game == 1:
            pot = kernel.mi + spec.lam * kernel.kl
        elif spec.game == 2:
            pot = 0.5 * local_sum + spec.lam * kernel.kl
        else:
            pot = kernel.mi + spec.lam * (0.5 * local_sum)
        snapshot = kernel.v.copy()  # start = end, so v_snapshot is this profile
        return TrajectoryRecord(t, player, snapshot, snapshot, pot, kernel.mi,
                                kernel.kl)

    def response(kernel, i):
        ctx = context(i, kernel.gain(i), float(kernel.v[i]))
        return checked_response(spec, ctx, model.sigma2)

    context = player_contexts(model)
    kernel = PosteriorKernel(model, np.zeros(model.m))
    local_sum = float(np.sum(local_terms(kernel.v)))
    trajectory = [record(kernel, 0, -1, local_sum)]
    converged, rounds_used = False, 0
    for t in range(1, t_max + 1):
        max_delta, start_sum, change = 0.0, local_sum, 0.0
        for i in range(model.m):
            new_vi = response(kernel, i)
            max_delta = max(max_delta, float(abs(new_vi - kernel.v[i])))
            before = local_terms(kernel.v)[i]
            kernel.update(i, new_vi)
            change = change + (local_terms(kernel.v)[i] - before)
            local_sum = start_sum + change
            if i == model.m - 1:
                kernel.refactor()
                local_sum = float(np.sum(local_terms(kernel.v)))
            trajectory.append(record(kernel, t, i, local_sum))
        rounds_used = t
        if max_delta < tol:
            converged = True
            break
    v = kernel.v
    fresh = PosteriorKernel(model, v)
    residual = max(abs(v[i] - response(fresh, i)) for i in range(model.m))
    return v, trajectory, ConvergenceReport(converged, rounds_used, max_delta,
                                            float(residual))


def naive_trajectory_lines(trajectory) -> list[str]:
    """The trajectory CSV's data lines with every cell of every record
    formatted by ``%.17g``: the round, the player from 1 (0 for the
    start), the profile ``v_snapshot`` and the three metrics."""
    return [
        ",".join(["%d" % rec.round, "%d" % (rec.player + 1)]
                 + ["%.17g" % x for x in rec.v_snapshot.tolist()]
                 + ["%.17g" % x for x in (rec.potential, rec.mi_global,
                                          rec.kl_global)]) + "\n"
        for rec in trajectory
    ]


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


def shuffled_samples(rng, n, shift=0.0, nan=True):
    """n LLR-like values in random order: runs of ties at one decimal, a
    tenth each of 0.0 and -0.0 and, with ``nan``, a twentieth of NaN."""
    values = np.round(rng.standard_normal(n) + shift, 1)
    values[: n // 10] = 0.0
    values[n // 10 : n // 5] = -0.0
    if nan:
        values[n // 5 : n // 5 + n // 20] = math.nan
    rng.shuffle(values)
    return values


def llr_local(model, i, v_i, y_i):
    """Scalar log-likelihood ratio for measurement i alone."""
    i = check_index(model, i)
    v_i = check_nonnegative("attack variance", v_i)
    s_i = model.s[i]
    y = np.asarray(y_i, dtype=float)
    out = 0.5 * y * y * (1.0 / s_i - 1.0 / (s_i + v_i)) + 0.5 * (
        math.log(s_i) - math.log(s_i + v_i)
    )
    return float(out) if out.ndim == 0 else out


class BracketError(RuntimeError):
    """The numeric minimizer could not bracket a finite minimum."""


def br_numeric(spec: GameSpec, model: MeasurementModel, i: int, v) -> float:
    """Numerical oracle: minimize the raw cost over the player's action.

    Brackets the minimum by doubling the upper end until the cost slope
    (finite difference) turns positive, shrinks by golden-section to an
    interval of width ~1e-10, then polishes by bisecting the
    finite-difference slope (golden-section alone is limited to about
    sqrt(eps) relative accuracy in the minimizer position).  Touches
    only ``games.cost``; independent of the quadratic and cubic
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
        if hi > _BRACKET_MAX:
            raise BracketError(
                f"no minimum below {_BRACKET_MAX:g} for player {i} "
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
    clean = clean_cov(model)
    ratio = _gauss_logpdf(chol_A, logdet_A, Y) - _gauss_logpdf(
        clean.chol_YY, clean.logdet_YY, Y
    )
    return McEstimate(
        value=float(np.mean(ratio)),
        std_error=float(np.std(ratio, ddof=1) / math.sqrt(n_samples)),
    )


def mp_cost_slope(game: int, ctx, sigma2, lam, literal: bool = False):
    """Twice the derivative of the player's cost in its own variance l,
    as a function at mpmath's working precision.

    Assembled from the metrics' derivatives, not from the package's
    polynomials, each difference of reciprocals taken over a common
    denominator so that no root, however small, cancels:
    d mi_global = -gamma / ((sigma2+l)(sigma2+gamma+l)),
    d kl_global = (gamma-gamma0+l) / ((sigma2+gamma0)(sigma2+gamma+l)),
    d mi_local = -c / ((sigma2+l)(s+l)) and d kl_local = l / (s(s+l)),
    each times 1/2.  ``gamma0`` is capped at ``gamma``, as the solvers
    clamp ``gamma - gamma0`` at 0.  Game 3's shift is
    ``alpha = 1 / (sigma2 + gamma)`` when ``literal``, else ``gamma``.
    """
    mpf = mpmath.mpf
    sigma2, lam = mpf(sigma2), mpf(lam)
    gamma, s, c = mpf(ctx.gamma), mpf(ctx.s), mpf(ctx.c)
    gamma0 = min(mpf(ctx.gamma0), gamma)
    shift = 1 / (sigma2 + gamma) if literal else gamma

    def mi_global(l):
        return -gamma / ((sigma2 + l) * (sigma2 + gamma + l))

    def kl_global(l):
        return (gamma - gamma0 + l) / ((sigma2 + gamma0) * (sigma2 + gamma + l))

    if game == 1:
        return lambda l: mi_global(l) + lam * kl_global(l)
    if game == 2:
        return lambda l: -c / ((sigma2 + l) * (s + l)) + lam * kl_global(l)
    return lambda l: lam * l / (s * (s + l)) - gamma / (
        (sigma2 + l) * (sigma2 + shift + l)
    )


def mp_root(slope):
    """Root of a nondecreasing function on [0, inf), or 0 where it starts
    nonnegative, to mpmath's working precision.

    Brackets the root between consecutive powers of two by a binary
    search over exponents in [-1100, 1100], so roots from 1e-330 to
    1e330 are found, then refines with the Anderson-Bjorck method on
    the bracket and slope scaled to order 1.  That method stalls when
    the root lies within an ulp of the bracket's end, and findroot then
    returns a midpoint; unless the slope changes sign within 2^-100 of
    the result, the bracket is bisected instead.
    """
    zero = mpmath.mpf(0)
    if slope(zero) >= 0:
        return zero
    lo, hi = -1100, 1100
    if not (slope(mpmath.ldexp(1, lo)) < 0 <= slope(mpmath.ldexp(1, hi))):
        raise BracketError("root outside [2^-1100, 2^1100]")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if slope(mpmath.ldexp(1, mid)) < 0:
            lo = mid
        else:
            hi = mid
    # findroot's tolerances are absolute: solve for x = root / 2^lo in
    # [1, 2], with the slope normalized to -1 at x = 1.
    scale = mpmath.ldexp(1, lo)
    norm = -slope(scale)
    x = mpmath.findroot(
        lambda x: slope(scale * x) / norm, (1, 2), solver="anderson", verify=False
    )
    near = mpmath.ldexp(1, -100)
    if 1 <= x <= 2 and slope(scale * (x - near)) < 0 <= slope(scale * (x + near)):
        return scale * x
    below, above = mpmath.mpf(1), mpmath.mpf(2)
    while above - below > near:
        mid = (below + above) / 2
        if slope(scale * mid) < 0:
            below = mid
        else:
            above = mid
    return scale * above


def mp_best_response(game: int, ctx, sigma2, lam) -> float:
    """Best response on the context's scalars at MP_DPS digits, as a float."""
    with mpmath.workdps(MP_DPS):
        return float(mp_root(mp_cost_slope(game, ctx, sigma2, lam)))


def mp_gain(B, sigma2, v, i: int):
    """gamma_i = b_i^T (I + sum_{j != i} b_j b_j^T / (sigma2 + v_j))^{-1} b_i
    from mpmath matrices, at the working precision."""
    m, n = B.rows, B.cols
    M = mpmath.eye(n)
    for j in range(m):
        if j == i:
            continue
        w = 1 / (sigma2 + v[j])
        for a in range(n):
            wb = w * B[j, a]
            for b in range(n):
                M[a, b] += wb * B[j, b]
    b_i = B[i, :].T
    return (b_i.T * mpmath.lu_solve(M, b_i))[0]


def mp_gains(model, v) -> np.ndarray:
    """Every player's gain gamma_i at v, at MP_DPS digits, as floats."""
    with mpmath.workdps(MP_DPS):
        B = mpmath.matrix(model.B.tolist())
        sigma2 = mpmath.mpf(model.sigma2)
        v = [mpmath.mpf(float(x)) for x in v]
        return np.array([float(mp_gain(B, sigma2, v, i)) for i in range(model.m)])


def _mp_kernel_data(model):
    """The kernel's B and sigma2, and every gamma_i(0), as mpmath values."""
    B = mpmath.matrix(model.B.tolist())
    sigma2 = mpmath.mpf(model.sigma2)
    zeros = [mpmath.mpf(0)] * model.m
    return B, sigma2, [mp_gain(B, sigma2, zeros, i) for i in range(model.m)]


def _mp_response(model, spec, data, v, i: int):
    """Player i's best response to the others in v, at the working precision."""
    B, sigma2, gains0 = data
    ctx = SimpleNamespace(
        gamma=mp_gain(B, sigma2, v, i), gamma0=gains0[i], s=model.s[i], c=model.c[i]
    )
    return mp_root(mp_cost_slope(spec.game, ctx, sigma2, spec.lam))


def mp_kernel_brd(model, spec: GameSpec, tol: float):
    """Best-response dynamics from v = 0 in MP_DPS-digit arithmetic.

    Runs on the model's kernel data (B, s, c, sigma2) with run_brd's
    player order and stopping rule (a round in which no player moved by
    ``tol``), solving each best response by :func:`mp_root` on
    :func:`mp_cost_slope`.  Returns the profile as floats and the number
    of rounds.
    """
    with mpmath.workdps(MP_DPS):
        data = _mp_kernel_data(model)
        v = [mpmath.mpf(0)] * model.m
        for rounds in range(1, 101):
            max_delta = 0
            for i in range(model.m):
                new = _mp_response(model, spec, data, v, i)
                max_delta = max(max_delta, abs(new - v[i]))
                v[i] = new
            if max_delta < tol:
                return np.array([float(x) for x in v]), rounds
    raise AssertionError("the 50-digit dynamics did not stop in 100 rounds")


def mp_profile_responses(model, spec: GameSpec, v):
    """Every player's MP_DPS-digit best response to the others in v."""
    with mpmath.workdps(MP_DPS):
        data = _mp_kernel_data(model)
        v = [mpmath.mpf(float(x)) for x in v]
        return np.array(
            [float(_mp_response(model, spec, data, v, i)) for i in range(model.m)]
        )


def mp_clean_cov(model):
    """sigma2 I + B B^T, the clean covariance the kernel is built from, as
    an mpmath matrix at the working precision."""
    B = mpmath.matrix(model.B.tolist())
    return B * B.T + mpmath.mpf(model.sigma2) * mpmath.eye(model.m)


def mp_inv_diag(model) -> np.ndarray:
    """diag((sigma2 I + B B^T)^{-1}) at MP_DPS digits, as floats."""
    with mpmath.workdps(MP_DPS):
        inv = mpmath.inverse(mp_clean_cov(model))
        return np.array([float(inv[i, i]) for i in range(model.m)])


def mp_kl_global(model, v) -> float:
    """(1/2)(log det S - log det(S + V) + tr(S^{-1} V)) at MP_DPS digits,
    with S = :func:`mp_clean_cov` and V = diag(v)."""
    with mpmath.workdps(MP_DPS):
        S = mp_clean_cov(model)
        V = mpmath.diag([mpmath.mpf(float(x)) for x in v])
        inv = mpmath.inverse(S)
        trace = sum(inv[i, i] * V[i, i] for i in range(model.m))
        return float((mpmath.log(mpmath.det(S) / mpmath.det(S + V)) + trace) / 2)
