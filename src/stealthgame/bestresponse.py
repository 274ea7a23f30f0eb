"""Per-player best responses for the three games.

Game 1 has a closed-form best response: the larger root of the
quadratic obtained from the stationarity condition of the player's
cost, clamped to the action set [0, inf).  Games 2 and 3 reduce to a
monotone scalar root problem (the cost is convex in the player's own
variance, so its derivative crosses zero at most once) solved by
bisection.  An independent golden-section minimizer over the raw cost
serves as the numerical oracle for all three.

For game 3 the stationarity condition uses the scalar ``gamma_i`` in
both the numerator and the shifted denominator factor; set
``literal=True`` to evaluate the variant that pairs ``gamma_i`` with
``alpha_i`` in the denominator instead (kept for comparison, see
README).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .games import GameSpec, cost
from .model import MeasurementModel, as_profile, posterior_matrix

V_MAX = 1e12  # upper end of the action search range
_BISECT_TOL = 1e-12
_GOLDEN_WIDTH = 1e-10

__all__ = [
    "BRContext",
    "BracketError",
    "V_MAX",
    "br_context",
    "gain_context",
    "br_g1",
    "br_g2",
    "br_g3",
    "best_response",
    "respond",
    "br_numeric",
]


class BracketError(RuntimeError):
    """The numeric minimizer could not bracket a finite minimum."""


@dataclass(frozen=True)
class BRContext:
    """Scalars a best response depends on, for one player.

    alpha: e_i^T (Sigma_YY + sum_{j != i} v_j e_j e_j^T)^{-1} e_i
           = 1 / (sigma2 + gamma)
    beta:  e_i^T Sigma_YY^{-1} e_i
    gamma: e_i^T A^{-1} G e_i with G = H Sigma_XX H^T and
           A = G sum_{j != i} (sigma2 + v_j)^{-1} e_j e_j^T + I,
           equal to b_i^T M^{-1} b_i for the kernel matrix M with w_i = 0
    s:     e_i^T Sigma_YY e_i
    c:     e_i^T G e_i  (= s - sigma2)
    """

    alpha: float
    beta: float
    gamma: float
    s: float
    c: float


def gain_context(model: MeasurementModel, i: int, gamma: float) -> BRContext:
    """The context of player i whose gain from the other players is gamma."""
    if not (gamma >= 0.0 and math.isfinite(gamma)):
        raise np.linalg.LinAlgError(f"invalid gain for player {i}: gamma={gamma}")
    return BRContext(
        alpha=1.0 / (model.sigma2 + gamma),
        beta=float(model.inv_diag_YY[i]),
        gamma=gamma,
        s=float(model.s[i]),
        c=float(model.c[i]),
    )


def br_context(model: MeasurementModel, i: int, v) -> BRContext:
    """Assemble the best-response scalars for player i at profile v.

    Only the complementary entries v_j, j != i, enter; v_i is ignored.
    Factors the kernel matrix with player i's weight set to 0, so gamma
    is a sum of squares without cancellation.
    """
    v = as_profile(model, v)
    i = int(i)
    if not 0 <= i < model.m:
        raise IndexError(f"measurement index {i} outside [0, {model.m})")
    w = 1.0 / (model.sigma2 + v)
    w[i] = 0.0
    chol = np.linalg.cholesky(posterior_matrix(model.B, w))
    z = scipy.linalg.solve_triangular(chol, model.B[i], lower=True)
    return gain_context(model, i, float(z @ z))


def br_g1(ctx: BRContext, sigma2: float, lam: float) -> float:
    """Closed-form best response in game 1 (lam >= 1).

    Positive root of l^2 + B l + C = 0 with
    B = (beta + alpha sigma2 beta - alpha) / (beta alpha) and
    C = (beta sigma2 - alpha sigma2 + (alpha sigma2 - 1)/lam) / (beta alpha),
    clamped to 0.  A negative discriminant means the cost derivative
    never vanishes on [0, inf); the cost is then increasing there and
    the boundary 0 is optimal.
    """
    if lam < 1.0:
        raise ValueError(f"game 1 requires lam >= 1, got {lam}")
    a, b = ctx.alpha, ctx.beta
    B = (b + a * sigma2 * b - a) / (b * a)
    C = (b * sigma2 - a * sigma2 + (a * sigma2 - 1.0) / lam) / (b * a)
    disc = B * B - 4.0 * C
    if disc < 0.0:
        return 0.0
    root = -0.5 * B + 0.5 * math.sqrt(disc)
    return max(root, 0.0)


def _bisect_nonneg(deriv, hi_start: float = 1.0) -> float:
    """Root of a non-decreasing derivative on [0, inf).

    Assumes deriv(0) < 0 has already been established by the caller.
    """
    lo = 0.0
    hi = hi_start
    while deriv(hi) < 0.0:
        hi *= 2.0
        if hi > V_MAX:
            return V_MAX
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = deriv(mid)
        if abs(g) <= _BISECT_TOL or (hi - lo) <= _BISECT_TOL:
            return mid
        if g < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _warn_degenerate(game: int) -> float:
    warnings.warn(
        f"game {game} with lam = 0 has no finite best response "
        f"(cost strictly decreasing); returning V_MAX",
        RuntimeWarning,
        stacklevel=3,
    )
    return V_MAX


def br_g2(ctx: BRContext, sigma2: float, lam: float) -> float:
    """Best response in game 2: root of the cost derivative.

    Solves -c / ((sigma2 + l)(s + l)) - lam alpha / (1 + l alpha)
    + lam beta = 0 for l >= 0; returns 0 when the derivative at 0 is
    already nonnegative.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if lam == 0.0:
        return _warn_degenerate(2)

    def deriv(l: float) -> float:
        return (
            -ctx.c / ((sigma2 + l) * (ctx.s + l))
            - lam * ctx.alpha / (1.0 + l * ctx.alpha)
            + lam * ctx.beta
        )

    if deriv(0.0) >= 0.0:
        return 0.0
    return _bisect_nonneg(deriv)


def br_g3(
    ctx: BRContext, sigma2: float, lam: float, literal: bool = False
) -> float:
    """Best response in game 3: root of the cost derivative.

    Solves lam l / ((s + l) s) - gamma / ((sigma2 + l)(sigma2 + l + g))
    = 0 for l >= 0, where g = gamma by default and g = alpha when
    ``literal`` is set.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if lam == 0.0:
        return _warn_degenerate(3)
    shift = ctx.alpha if literal else ctx.gamma
    if ctx.gamma <= 0.0:
        # A zero sensing row contributes nothing: the disruption term is
        # flat and the detection term pins the optimum at 0.
        return 0.0

    def deriv(l: float) -> float:
        return lam * l / ((ctx.s + l) * ctx.s) - ctx.gamma / (
            (sigma2 + l) * (sigma2 + l + shift)
        )

    if deriv(0.0) >= 0.0:
        return 0.0
    return _bisect_nonneg(deriv)


def best_response(
    spec: GameSpec,
    model: MeasurementModel,
    i: int,
    v,
    *,
    br3_literal: bool = False,
) -> float:
    """Best response of player i to the complementary profile in v."""
    return respond(
        spec, br_context(model, i, v), model.sigma2, br3_literal=br3_literal
    )


def respond(
    spec: GameSpec, ctx: BRContext, sigma2: float, *, br3_literal: bool = False
) -> float:
    """Best response of the player described by ``ctx`` in game ``spec``."""
    if spec.game == 1:
        return br_g1(ctx, sigma2, spec.lam)
    if spec.game == 2:
        return br_g2(ctx, sigma2, spec.lam)
    return br_g3(ctx, sigma2, spec.lam, literal=br3_literal)


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
