"""Property tests over random small models (hypothesis).

Examples are derandomized, so every run draws the same ones and writes
no example database.
"""

import copy

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import stealthgame.bestresponse as bestresponse
from stealthgame.bestresponse import BRContext, br_g1, br_g2, br_g3
from stealthgame.cli import _fmt
from stealthgame.dynamics import run_brd, verify_ne
from stealthgame.games import GameSpec, cost, potential
from stealthgame.model import (
    PosteriorKernel,
    StatePriorSpec,
    build_model,
    calibrate_noise,
    toeplitz_cov,
)

from _helpers import (
    MP_DPS,
    kernel_gains,
    mp_root,
    random_desk_model,
    random_profile,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

unit = st.floats(0.0, 1.0)


@st.composite
def small_models(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 7))
    H = draw(arrays(np.float64, (m, n), elements=st.floats(-3.0, 3.0, width=32)))
    Sigma_XX = toeplitz_cov(StatePriorSpec(n, draw(st.floats(0.0, 0.95))))
    assume(np.trace(H @ Sigma_XX @ H.T) > 1e-3)
    return build_model(H, Sigma_XX, calibrate_noise(H, Sigma_XX, draw(st.floats(0.0, 40.0))))


@st.composite
def specs(draw):
    game = draw(st.sampled_from([1, 2, 3]))
    lam = draw(st.floats(1.0, 50.0) if game == 1 else st.floats(0.01, 50.0))
    return GameSpec(game, lam)


def decades(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


def profile(model, fractions):
    return np.array(fractions[: model.m]) * 3.0 * float(np.mean(model.s))


@PROPERTY
@given(small_models(), specs(), st.lists(unit, min_size=7, max_size=7),
       st.integers(0, 6), unit)
def test_unilateral_cost_change_equals_potential_change(model, spec, fractions, i, x):
    i %= model.m
    v = profile(model, fractions)
    deviated = v.copy()
    deviated[i] = 3.0 * float(np.mean(model.s)) * x
    d_cost = cost(spec, model, i, deviated) - cost(spec, model, i, v)
    d_pot = potential(spec, model, deviated) - potential(spec, model, v)
    scale = 1.0 + abs(cost(spec, model, i, v)) + abs(potential(spec, model, v))
    assert abs(d_cost - d_pot) <= 1e-11 * scale


@PROPERTY
@given(
    st.floats(1e-3, 1e3),  # sigma2
    st.floats(1e-3, 1e3),  # c
    st.lists(unit, min_size=3, max_size=3).map(sorted),
    st.floats(1.0, 1e3),  # lam
    st.sampled_from([1, 2, 3]),
)
def test_best_response_is_monotone_in_gain(sigma2, c, fractions, lam, game):
    # gamma0 <= gamma <= c: the others' attacks can only raise the gain.
    # Raising it lowers the best response of games 1 and 2 (their cost
    # slopes grow with gamma) and raises game 3's.
    gamma0, low, high = (c * f for f in fractions)

    def respond(gamma):
        ctx = BRContext(gamma=gamma, gamma0=gamma0, s=sigma2 + c, c=c)
        if game == 1:
            return br_g1(ctx, sigma2, lam)
        if game == 2:
            return br_g2(ctx, sigma2, lam)
        return br_g3(ctx, sigma2, lam)

    at_low, at_high = respond(low), respond(high)
    slack = 1e-14 * max(at_low, at_high)
    if game == 3:
        assert at_high >= at_low - slack
    else:
        assert at_high <= at_low + slack


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.just(0.0) | decades(-100.0, 100.0),  # b2
    st.just(0.0) | decades(-100.0, 100.0) | decades(-100.0, 100.0).map(lambda x: -x),
    decades(-100.0, 100.0).map(lambda x: -x),  # b0
    st.just(0.0) | decades(-300.0, 300.0),  # a start anywhere
    st.floats(0.25, 1.5),  # a start near the root, as a share of it
)
def test_newton_cubic_needs_no_bracket(b2, b1, b0, start, share):
    # By convexity every Newton step after the first stays at or right of
    # the root, so the loop needs neither a bracket nor its cap: capped at
    # 16 steps, it returns the same root.  These examples take at most 10
    # steps (a cap of 9 fails here), the most from starts near a third of
    # the root; so did 800,000 random draws.
    with mpmath.workdps(MP_DPS):
        c2, c1, c0 = (mpmath.mpf(b) for b in (b2, b1, b0))
        ref = float(mp_root(lambda t: ((t + c2) * t + c1) * t + c0))
    for t in (start, share * ref):
        got = bestresponse._newton_cubic(b2, b1, b0, t)
        assert abs(got - ref) <= 1e-14 * ref, (b2, b1, b0, t, got, ref)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bestresponse, "_NEWTON_MAX_ITER", 16)
            assert bestresponse._newton_cubic(b2, b1, b0, t) == got


def in_box(limit=199.0):
    """Powers of two strictly inside the box 2^+-200 in which a best response
    skips the scale rule."""
    return st.floats(-limit, limit).map(lambda e: 2.0**e)


SOLVERS = st.sampled_from([1, 2, 3])
EDGES = [2.0**-199, 2.0**199]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(SOLVERS, in_box(), in_box(198.0), in_box(), in_box(), in_box(), in_box() | st.just(0.0))
@example(2, EDGES[0], EDGES[1] / 2, EDGES[1], EDGES[0], EDGES[1], 0.0)
@example(2, EDGES[0], EDGES[0], EDGES[1], EDGES[0], EDGES[1], EDGES[1])
@example(3, EDGES[1], EDGES[1] / 2, EDGES[0], EDGES[0], EDGES[1], EDGES[0])
@example(1, EDGES[1], EDGES[0], EDGES[1], EDGES[0], EDGES[1], 0.0)
def test_scale_rule_takes_r_zero_inside_the_box(game, sigma2, c, gamma, gamma0, lam, v):
    # Every nonzero scalar and lam inside 2^+-200: the rule itself picks
    # r = 0, so the box only skips it, and the response has the same bits
    # either way.
    if game == 1:
        lam = max(lam, 1.0 / lam)
    spec = GameSpec(game, lam)
    ctx = BRContext(gamma, min(gamma0, gamma), sigma2 + c, c, v)
    fast = bestresponse.respond(spec, ctx, sigma2)
    scale_exponent, rules = bestresponse._scale_exponent, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bestresponse, "_HI", 0.0)  # the box is empty: the rule always runs
        patch.setattr(bestresponse, "_scale_exponent",
                      lambda *sizes: rules.append(scale_exponent(*sizes)) or rules[-1])
        slow = bestresponse.respond(spec, ctx, sigma2)
    assert rules == [0]
    assert slow == fast


@PROPERTY
@given(small_models(), specs())
def test_run_brd_returns_a_fixed_point(model, spec):
    # The residual is of the order of the last round's largest move,
    # which tol bounds: at the default 1e-9 it reaches 1.2e-10.
    v, _, report = run_brd(spec, model, tol=1e-11)
    assert report.converged
    assert verify_ne(spec, model, v) <= 1e-10


@PROPERTY
@given(
    st.integers(0, 2**32 - 1),  # desk model and starting profile
    st.lists(
        # Players 0-3 only, so that moves of one player often follow
        # each other.
        st.tuples(st.sampled_from(["gain", "update", "refactor"]), st.integers(0, 3), unit),
        min_size=1,
        max_size=30,
    ),
)
def test_kernel_row_follows_every_move(seed, steps):
    # Every move reads the row that gain caches, so after any interleaving
    # of gain(j), update(i, .) and refactor() the kernel matches a fresh
    # one.  The refactor steps first write a variance straight into the
    # profile, from which refactor rebuilds.
    rng = np.random.default_rng(seed)
    model = random_desk_model(rng)
    kernel = PosteriorKernel(model, random_profile(rng, model))
    scale = 3.0 * float(np.mean(model.s))
    for kind, i, x in steps:
        i %= model.m
        if kind == "gain":
            kernel.gain(i)
        elif kind == "update":
            kernel.update(i, scale * x)
        else:
            kernel.v[i] = scale * x
            kernel.refactor()
        fresh = PosteriorKernel(model, kernel.v)
        # Each gain is read from a shallow copy, so the check leaves the
        # kernel's cached row as the step left it.
        gains = [copy.copy(kernel).gain(j) for j in range(model.m)]
        np.testing.assert_allclose(gains, kernel_gains(fresh), rtol=1e-10)
        np.testing.assert_allclose(kernel.inv, fresh.inv, rtol=1e-10, atol=1e-13)
        assert kernel.logdet == pytest.approx(fresh.logdet, rel=1e-12)


# The CLI's CSV rows are %-templates; header values and stdout use _fmt.
FORMAT = settings(max_examples=2000, deadline=None, derandomize=True, database=None)


@FORMAT
@given(st.floats())
@example(float("nan"))
@example(float("inf"))
@example(float("-inf"))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
@example(1.0)
@example(-3.0)
@example(2.0**53)
@example(1e16)
@example(1e17)
def test_float_template_prints_fmt_digits(x):
    assert "%.17g" % x == _fmt(x)
    assert "%.17g" % np.float64(x) == _fmt(x)


@FORMAT
@given(st.integers(-(2**64), 2**64))
@example(0)
@example(-1)
def test_int_template_prints_str(k):
    assert "%d" % k == str(k)
