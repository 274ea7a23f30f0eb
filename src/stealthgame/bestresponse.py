"""Per-player best responses for the three games.

A player's cost is convex in its own variance l, so its best response
is the root of the cost derivative on [0, inf), or 0 when the
derivative at 0 is already nonnegative.  The derivative depends on l
only through the scalars of the player's :class:`BRContext`, and on the
other players only through the gain difference
``d = gamma - gamma0 >= 0`` (the others' attacks can only make their
measurements less informative about ``(H x)_i``; clamped at 0 against
rounding).  :func:`br_context` reads the gain from a ``PosteriorKernel``
by the rule :func:`~stealthgame.dynamics.run_brd` reads it by.

Game 1: the stationarity condition is the quadratic l^2 + B l + C = 0
with B = sigma2 + d and C = sigma2 d - gamma (sigma2 + gamma0) / lam,
solved in the cancellation-free form l = -2C / (B + sqrt(B^2 - 4C)).

Games 2 and 3: multiplying the derivative by its positive denominators
gives a cubic,

    game 2: lam (sigma2 + l)(s + l)(d + l) - c (sigma2 + gamma0)(sigma2 + gamma + l)
    game 3: lam l (sigma2 + l)(sigma2 + gamma + l) - gamma s (s + l)

The weight is positive (at lam = 0 the cost of games 2 and 3 strictly
decreases in l, so there is no best response and no equilibrium, and
:func:`~stealthgame.games.check_weight` rejects it).  So the l^3 and l^2
coefficients are positive, and a root is needed only when the constant
is negative; Descartes' rule of signs then leaves exactly one positive
root, and the cubic is convex on [0, inf).  Newton iteration finds that
root, started from the player's current variance (``BRContext.v``) when
that lies near the root; by convexity every step after the first stays
at or right of the root, so no bracket is needed.

One scale rule keeps each solve in double range: a root is homogeneous
of degree 1 in its scalars, so at the scalars divided by 2^r it is the
root divided by 2^r, bit for bit while no product the solve forms (each
game lists them, the root and those divided by lam included) leaves the
normal range.  r is 0 when every product lies within [2^-1018, 2^1019],
else the middle of the r that keep them all there, else the least r
that keeps them below overflow.  Where every nonzero scalar and lam lie
within 2^+-200, the rule gives r = 0 and the solve skips it.

:func:`br_g1`, :func:`br_g2` and :func:`br_g3` are each game's only
best response: they check the weight and the noise variance, then run
their game's arithmetic.  :func:`respond` picks one of them by
``GameSpec.game`` at each call, so every move of
:func:`~stealthgame.dynamics.run_brd`, every player of
:func:`~stealthgame.dynamics.verify_ne` and :func:`best_response` run
the checked function of their game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .games import GameSpec, check_weight
from .model import CANCELLED, MeasurementModel, PosteriorKernel
from .model import as_profile, check_index, check_positive

_NEWTON_RTOL = 2.0**-50  # relative size of the step that ends the iteration
_NEWTON_MAX_ITER = 100
_LO, _HI = 2.0**-200, 2.0**200  # the box in which the scale rule gives r = 0

__all__ = [
    "BRContext",
    "br_context",
    "player_contexts",
    "br_g1",
    "br_g2",
    "br_g3",
    "best_response",
    "respond",
]


@dataclass(frozen=True)
class BRContext:
    """Scalars a best response depends on, for one player.

    gamma:  e_i^T A^{-1} G e_i with G = H Sigma_XX H^T and
            A = G sum_{j != i} (sigma2 + v_j)^{-1} e_j e_j^T + I,
            equal to b_i^T M^{-1} b_i for the kernel matrix M with w_i = 0;
            1 / (sigma2 + gamma) is alpha_i =
            e_i^T (Sigma_YY + sum_{j != i} v_j e_j e_j^T)^{-1} e_i
    gamma0: gamma with every other v_j = 0
    s:      e_i^T Sigma_YY e_i
    c:      e_i^T G e_i  (= s - sigma2)
    v:      the player's current variance, where root-finding starts;
            it does not change the best response and is not compared
    """

    gamma: float
    gamma0: float
    s: float
    c: float
    v: float = field(default=0.0, compare=False)


def player_contexts(model: MeasurementModel):
    """``context(i, gamma, v_i)``: the context of player i of one model, at
    variance v_i, whose gain from the other players is gamma.

    gamma0, s and c are read into Python floats once, so a context costs
    no numpy scalar reads; ``v_i`` is taken as a float.  Raises
    LinAlgError for a gain that is negative or not finite.
    """
    gain0, s, c = model.gain0.tolist(), model.s.tolist(), model.c.tolist()

    def context(i: int, gamma: float, v_i: float) -> BRContext:
        if not 0.0 <= gamma < math.inf:
            raise np.linalg.LinAlgError(f"invalid gain for player {i}: gamma={gamma}")
        return BRContext(float(gamma), gain0[i], s[i], c[i], v_i)

    return context


def br_context(model: MeasurementModel, i: int, v) -> BRContext:
    """Assemble the best-response scalars for player i at profile v.

    Only the complementary entries v_j, j != i, enter the scalars; v_i
    is only the root-finder's starting point.  gamma is the gain of a
    :class:`~stealthgame.model.PosteriorKernel` at v with v_i set to 0.
    """
    v = as_profile(model, v)
    i = check_index(model, i)
    others = v.copy()
    others[i] = 0.0
    gamma = PosteriorKernel(model, others).gain(i)
    return player_contexts(model)(i, gamma, float(v[i]))


def br_g1(ctx: BRContext, sigma2: float, lam: float) -> float:
    """Closed-form best response in game 1 (lam >= 1).

    Positive root of l^2 + B l + C = 0 with B = sigma2 + d and
    C = sigma2 d - gamma (sigma2 + gamma0) / lam, d = gamma - gamma0;
    0 when C >= 0, since B > 0 then leaves no positive root and the cost
    is nondecreasing on [0, inf).
    """
    check_weight(1, lam)
    sigma2 = check_positive("sigma2", sigma2)
    gamma, gamma0 = ctx.gamma, min(ctx.gamma0, ctx.gamma)
    if _LO < lam < _HI and _LO < sigma2 < _HI and _LO < gamma0 and gamma < _HI:
        return _g1_root(lam, sigma2, gamma, gamma0)
    e2, eg, e0, ed, ea = _log2(sigma2, gamma, gamma0, gamma - gamma0, max(sigma2, gamma0))
    eC = eg + ea - math.log2(lam)  # -C, unless it cancels
    root = min(eC - max(e2, ed), eC / 2.0)  # -C / max(B, (-C)^(1/2))
    return _rescaled(_g1_root, lam, (sigma2, gamma, gamma0),
                     (e2, eg, e0, root), (e2 + ed, eg + ea, eC))


def _g1_root(lam: float, sigma2: float, gamma: float, gamma0: float) -> float:
    d = gamma - gamma0
    B = sigma2 + d
    gain_term = sigma2 * d
    C = gain_term - gamma * (sigma2 + gamma0) / lam
    if abs(C) < CANCELLED * gain_term:  # recompute exactly, rounded once
        s2, g, g0 = Fraction(sigma2), Fraction(gamma), Fraction(gamma0)
        C = float(s2 * (g - g0) - g * (s2 + g0) / Fraction(lam))
    if C >= 0.0:
        return 0.0
    # sqrt(B^2 - 4C) = hypot(B, 2 sqrt(-C)); the sum has no cancellation.
    return -2.0 * C / (B + math.hypot(B, 2.0 * math.sqrt(-C)))


def _newton_cubic(b2: float, b1: float, b0: float, t: float) -> float:
    """Positive root of p(t) = t^3 + b2 t^2 + b1 t + b0, b2 >= 0 > b0 or b0 = 0 > b1.

    p is convex on [0, inf) with p(0) < 0, so the root is unique.  Newton
    steps start at ``t`` when that lies in the window [s + u/3, s + u]
    that the bounds below give for the root, and at s + u otherwise.
    There p' > 0 and a tangent of the convex p lies below it, so the
    first step lands at or right of the root and the later ones stay
    there, moving left: no bracket is needed.  A step is taken as
    t - p/p' = (2t^3 + b2 t^2 - b0) / p', whose numerator cannot cancel
    however far t lies right of the root.  It stops once it moves t by
    at most 2^-50 of t.
    """
    # With s >= 0 the positive root of t^2 + b2 t + b1 (s = 0 if b1 >= 0),
    # p(s + u) = u^3 + c2 u^2 + c1 u + b0 with c2, c1 >= 0: each single
    # term's root bounds the root in u from above, and the least of them,
    # u, is within a factor 3 of it.
    if b1 >= 0.0:
        shift, c1 = 0.0, b1
    else:
        disc = math.sqrt(b2 * b2 - 4.0 * b1)
        if disc == math.inf:  # b2^2 overflowed
            disc = math.hypot(b2, 2.0 * math.sqrt(-b1))
        shift = -2.0 * b1 / (b2 + disc)
        c1 = shift * (2.0 * shift + b2)
    c2 = 3.0 * shift + b2
    u = math.cbrt(-b0)
    if c2 > 0.0:  # when -b0 / c2 underflows to 0, from the square roots
        u = min(u, math.sqrt(-b0 / c2) or math.sqrt(-b0) / math.sqrt(c2))
    if c1 > 0.0:
        u = min(u, -b0 / c1)
    if not shift + u / 3.0 <= t <= shift + u:
        t = shift + u
    for _ in range(_NEWTON_MAX_ITER):
        if ((t + b2) * t + b1) * t + b0 == 0.0:
            return t
        nxt = ((2.0 * t + b2) * t * t - b0) / ((3.0 * t + 2.0 * b2) * t + b1)
        if abs(nxt - t) <= _NEWTON_RTOL * nxt:
            return nxt
        t = nxt
    return t


def br_g2(ctx: BRContext, sigma2: float, lam: float) -> float:
    """Best response in game 2 (lam > 0): root of the cost derivative.

    Solves -c / ((sigma2 + l)(s + l)) - lam / (sigma2 + gamma + l)
    + lam / (sigma2 + gamma0) = 0 for l >= 0, as the cubic
    (sigma2 + l)(s + l)(d + l) - k (sigma2 + gamma + l) = 0,
    k = c (sigma2 + gamma0) / lam; returns 0 when the derivative at 0 is
    already nonnegative.
    """
    check_weight(2, lam)
    sigma2 = check_positive("sigma2", sigma2)
    s, c, gamma, gamma0 = ctx.s, ctx.c, ctx.gamma, min(ctx.gamma0, ctx.gamma)
    if c <= 0.0:
        # A zero sensing row has no local information to destroy, and
        # the detection term pins the optimum at 0.
        return 0.0
    scalars = (sigma2, s, c, gamma, gamma0)
    if (_LO < lam < _HI and _LO < sigma2 < _HI and _LO < s < _HI
            and _LO < c < _HI and _LO < gamma0 and gamma < _HI):
        return _g2_root(lam, *scalars, ctx.v)
    return _rescaled(_g2_root, lam, (*scalars, ctx.v), *_cubic_sizes(
        lam, scalars, sigma2, s, gamma - gamma0, (c, max(sigma2, gamma0)), max(sigma2, gamma)))


def _g2_root(lam: float, sigma2: float, s: float, c: float, gamma: float, gamma0: float,
             v: float) -> float:
    rho, b2, b1, b0, xyz = _scaled_cubic(
        sigma2, s, gamma - gamma0, c * (sigma2 + gamma0), lam, sigma2 + gamma)
    if abs(b0) < CANCELLED * xyz:  # recompute exactly, rounded once
        s2, g, g0 = Fraction(sigma2), Fraction(gamma), Fraction(gamma0)
        exact = s2 * Fraction(s) * (g - g0) - Fraction(c) * (s2 + g0) * (s2 + g) / Fraction(lam)
        b0 = float(exact / Fraction(rho) ** 3)
    if not (b0 < 0.0 or b0 == 0.0 > b1):  # b1 < 0 only if the exact b0 < 0
        return 0.0
    return rho * _newton_cubic(b2, b1, b0, v / rho)


def br_g3(ctx: BRContext, sigma2: float, lam: float) -> float:
    """Best response in game 3 (lam > 0): root of the cost derivative.

    Solves lam l / ((s + l) s) - gamma / ((sigma2 + l)(sigma2 + l + gamma)) = 0
    for l >= 0, as the cubic l (sigma2 + l)(sigma2 + gamma + l) - k (s + l) = 0,
    k = gamma s / lam.
    """
    check_weight(3, lam)
    sigma2 = check_positive("sigma2", sigma2)
    gamma, s = ctx.gamma, ctx.s
    if gamma <= 0.0:
        # A zero sensing row contributes nothing: the disruption term is
        # flat and the detection term pins the optimum at 0.
        return 0.0
    z = sigma2 + gamma
    if _LO < lam < _HI and _LO < sigma2 < _HI and _LO < gamma < _HI and _LO < s < _HI:
        return _g3_root(lam, sigma2, z, gamma, s, ctx.v)
    return _rescaled(_g3_root, lam, (sigma2, z, gamma, s, ctx.v), *_cubic_sizes(
        lam, (sigma2, z, gamma, s), 0.0, sigma2, z, (gamma, s), s))


def _g3_root(lam: float, sigma2: float, z: float, gamma: float, s: float, v: float) -> float:
    """The game-3 root for these scalars (z = sigma2 + gamma), from v."""
    rho, b2, b1, b0, _ = _scaled_cubic(0.0, sigma2, z, gamma * s, lam, s)
    if not (b0 < 0.0 or b0 == 0.0 > b1):  # b0 = 0 only if k s underflows
        return 0.0
    return rho * _newton_cubic(b2, b1, b0, v / rho)


def _scaled_cubic(
    x: float, y: float, z: float, numerator: float, lam: float, offset: float
) -> tuple[float, float, float, float, float]:
    """(x + l)(y + l)(z + l) - k (offset + l), k = numerator / lam, in l = rho t.

    Its products are in double range by the scale rule.  Returns rho, the
    coefficients b2, b1, b0 of the monic cubic in t and the b0 part
    xyz / rho^3.  rho, a power of two >= 2 max(k^(1/2), (k offset)^(1/3),
    1/2), makes k / rho^2 = numerator / ((lam rho) rho) <= 1/4.
    """
    k_root = max(math.sqrt(numerator) / math.sqrt(lam),
                 math.cbrt(numerator * offset) / math.cbrt(lam))
    rho = math.ldexp(1.0, math.frexp(max(2.0 * k_root, 1.0))[1])
    kappa = numerator / ((lam * rho) * rho)
    x, y, z = x / rho, y / rho, z / rho
    xyz = x * y * z
    return rho, x + y + z, x * y + z * (x + y) - kappa, xyz - kappa * (offset / rho), xyz


def _cubic_sizes(lam, scalars, x, y, z, numerator, offset):
    """log2 sizes, by degree, of the scale rule's products: the ``scalars``,
    and the coefficients of a cubic of :func:`_scaled_cubic` and the least
    bound on its root that starts :func:`_newton_cubic` (a sum stands as
    its larger term, the ``numerator`` as its two factors)."""
    ex, ey, ez, eo, ef, eg = _log2(x, y, z, offset, *numerator)
    en = ef + eg
    ek = en - math.log2(lam)
    e2, e1, e0 = max(ex, ey, ez), max(ex + ey, ez + max(ex, ey)), ek + eo  # b2, b1 + k, -b0
    root = min(e0 / 3.0, (e0 - e2) / 2.0, e0 - e1)
    twos = (ex + ey, ez + max(ex, ey), en, ek)
    return (*_log2(*scalars), root), twos, (ex + ey + ez, en + eo, e0)


def _log2(*xs: float) -> list[float]:
    return [math.log2(x) if x > 0.0 else -math.inf for x in xs]


def _scale_exponent(*sizes: tuple[float, ...]) -> int:
    """The scale rule's r for products of k scalars of log2 sizes ``sizes[k - 1]``; a 0
    (size -inf) is exact at every scale, and an inf (an overflowed sum) is left out."""
    ranges = [((e - 1019.0) / k, (e + 1018.0) / k)
              for k, degree in enumerate(sizes, 1) for e in degree if abs(e) < math.inf]
    lo, hi = math.ceil(max(a for a, _ in ranges)), math.floor(min(b for _, b in ranges))
    return 0 if lo <= 0 <= hi else (lo + hi) // 2 if lo <= hi else lo


def _rescaled(root, lam: float, scalars: tuple, *sizes: tuple[float, ...]) -> float:
    """2^r ``root(lam, *scalars / 2^r)``, r by :func:`_scale_exponent`, 2^r applied as
    two powers of two in double range; a start v or root beyond it is inf."""
    r = _scale_exponent(*sizes)
    a, b = 2.0 ** (r // 2), 2.0 ** (r - r // 2)
    return root(lam, *(x / a / b for x in scalars)) * a * b


def best_response(spec: GameSpec, model: MeasurementModel, i: int, v) -> float:
    """Best response of player i to the complementary profile in v."""
    return respond(spec, br_context(model, i, v), model.sigma2)


def respond(spec: GameSpec, ctx: BRContext, sigma2: float) -> float:
    """Best response of the player described by ``ctx`` in game ``spec``:
    :func:`br_g1`, :func:`br_g2` or :func:`br_g3`, looked up when called."""
    return (br_g1, br_g2, br_g3)[spec.game - 1](ctx, sigma2, spec.lam)
