"""Per-player best responses for the three games.

Game 1 has a closed-form best response: the larger root of the
quadratic obtained from the stationarity condition of the player's
cost, clamped to the action set [0, inf).  Games 2 and 3 reduce to a
monotone scalar root problem (the cost is convex in the player's own
variance, so its derivative crosses zero at most once) solved by
bisection.

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

from .games import GameSpec
from .model import MeasurementModel, as_profile, check_index, posterior_matrix

V_MAX = 1e12  # upper end of the action search range
_BISECT_TOL = 1e-12

__all__ = [
    "BRContext",
    "V_MAX",
    "br_context",
    "gain_context",
    "br_g1",
    "br_g2",
    "br_g3",
    "best_response",
    "respond",
]


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
    i = check_index(model, i)
    w = 1.0 / (model.sigma2 + v)
    w[i] = 0.0
    chol = np.linalg.cholesky(posterior_matrix(model.B, w))
    z = np.linalg.solve(chol, model.B[i])
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
