"""Round-robin best-response dynamics, convergence checks, trajectory audit.

Players update sequentially in index order, each replacing its own
variance with a best response to the freshest profile (Gauss-Seidel).
Because every game admits an exact potential and best responses
minimize the player's own cost, the potential is non-increasing across
updates; :func:`potential_audit` surfaces any numerical violation
rather than hiding it.

One :class:`~stealthgame.model.PosteriorKernel` per run supplies every
best-response context and trajectory record: each update is a rank-one
change, O(n^2), and the kernel is refactored once per round, so a round
costs O(m n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# best_response, potential, mi_global and kl_global are not called here
# but stay bound: the benchmark's tracer wraps them in this module.
from .bestresponse import best_response, gain_context, respond  # noqa: F401
from .games import GameSpec, kernel_potential, potential  # noqa: F401
from .metrics import kl_global, mi_global  # noqa: F401
from .model import MeasurementModel, PosteriorKernel

DEFAULT_T_MAX = 100
DEFAULT_TOL = 1e-9
AUDIT_THRESHOLD = 1e-9

__all__ = [
    "TrajectoryRecord",
    "ConvergenceReport",
    "NonFiniteUpdateError",
    "run_brd",
    "verify_ne",
    "potential_audit",
]


class NonFiniteUpdateError(RuntimeError):
    """A best-response update produced a non-finite value.

    Carries the partial trajectory (``.trajectory``) for diagnosis.
    """

    def __init__(self, message: str, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class TrajectoryRecord:
    """Snapshot after one player update (player = -1 for the start).

    ``v_snapshot`` differs from the previous record in at most the
    updated player's coordinate.
    """

    round: int
    player: int
    v_snapshot: np.ndarray
    potential: float
    mi_global: float
    kl_global: float


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    rounds_used: int
    max_delta_last_round: float
    ne_residual: float


def _record(
    spec: GameSpec, kernel: PosteriorKernel, t: int, player: int
) -> TrajectoryRecord:
    return TrajectoryRecord(
        round=t,
        player=player,
        v_snapshot=kernel.v.copy(),
        potential=kernel_potential(spec, kernel),
        mi_global=kernel.mi,
        kl_global=kernel.kl,
    )


def run_brd(
    spec: GameSpec,
    model: MeasurementModel,
    v0=None,
    t_max: int = DEFAULT_T_MAX,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, list[TrajectoryRecord], ConvergenceReport]:
    """Run round-robin best-response dynamics to the Nash equilibrium.

    Starts from ``v0`` (zeros by default), appends one trajectory
    record per player update, and stops early once no coordinate moved
    by ``tol`` or more over a full round.  Returns the final profile,
    the trajectory, and a report whose ``ne_residual`` certifies the
    fixed point.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    kernel = PosteriorKernel(model, np.zeros(model.m) if v0 is None else v0)

    trajectory = [_record(spec, kernel, 0, -1)]
    converged = False
    rounds_used = 0
    max_delta = math.inf
    for t in range(1, t_max + 1):
        max_delta = 0.0
        for i in range(model.m):
            ctx = gain_context(model, i, kernel.gain(i), kernel.v[i])
            new_vi = respond(spec, ctx, model.sigma2)
            if not math.isfinite(new_vi):
                trajectory.append(_record(spec, kernel, t, i))
                raise NonFiniteUpdateError(
                    f"non-finite best response for player {i} in round {t}",
                    trajectory,
                )
            max_delta = max(max_delta, abs(new_vi - kernel.v[i]))
            kernel.update(i, new_vi)
            if i == model.m - 1:
                # Once per round: drops the drift of the rank-one updates,
                # so each round's last record is a fresh evaluation.
                kernel.refactor()
            trajectory.append(_record(spec, kernel, t, i))
        rounds_used = t
        if max_delta < tol:
            converged = True
            break

    v = kernel.v
    report = ConvergenceReport(
        converged=converged,
        rounds_used=rounds_used,
        max_delta_last_round=max_delta,
        ne_residual=verify_ne(spec, model, v),
    )
    return v, trajectory, report


def verify_ne(spec: GameSpec, model: MeasurementModel, v) -> float:
    """Fixed-point residual: max_i |v_i - BR_i(complementary profile)|.

    Evaluates every player's context from one fresh kernel at v.
    """
    kernel = PosteriorKernel(model, v)
    responses = [
        respond(spec, gain_context(model, i, gamma, kernel.v[i]), model.sigma2)
        for i, gamma in enumerate(kernel.gains())
    ]
    return float(np.max(np.abs(kernel.v - responses)))


def potential_audit(
    trajectory: list[TrajectoryRecord], threshold: float = AUDIT_THRESHOLD
) -> list[tuple[int, float]]:
    """Consecutive potential increases exceeding ``threshold``.

    Returns (record index, increase) pairs; expected empty for any
    best-response trajectory since the potential is exact.  Raises
    ValueError for a non-finite or negative ``threshold``: a NaN one
    would flag nothing.
    """
    if not (threshold >= 0 and math.isfinite(threshold)):
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold}")
    violations = []
    for k in range(1, len(trajectory)):
        rise = trajectory[k].potential - trajectory[k - 1].potential
        if rise > threshold:
            violations.append((k, rise))
    return violations
