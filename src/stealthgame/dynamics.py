"""Round-robin best-response dynamics, convergence checks, trajectory audit.

Players update sequentially in index order, each replacing its own
variance with a best response to the freshest profile (Gauss-Seidel).
Because every game admits an exact potential and best responses
minimize the player's own cost, the potential is non-increasing across
updates; :func:`potential_audit` surfaces any numerical violation
rather than hiding it.

One :class:`~stealthgame.model.PosteriorKernel` per run supplies every
best-response context and the O(1) ``mi`` and ``kl`` of every record:
each update is a rank-one change, O(n^2), and the kernel is refactored
once per round.  A round's records are built at its end, its m profiles
as one m-by-m block and their potentials as one row-wise evaluation, so
a round costs O(m n^2) plus O(m^2) numpy work.

A move does only what it needs: the player's row and gain (two BLAS
calls), its context from constants read into Python floats once per run
(:func:`~stealthgame.bestresponse.player_contexts`), :func:`respond` in
Python floats with the weight already checked by ``GameSpec``, and the
kernel's rank-one update (two more BLAS calls).  At m = 149 (n = 59) a
move, with its share of the round's records, takes about 20 us on 2
vCPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# best_response, potential, mi_global and kl_global are not called here
# but stay bound: the benchmark's tracer wraps them in this module.
from .bestresponse import best_response, player_contexts, respond  # noqa: F401
from .games import GameSpec, potential, row_potentials  # noqa: F401
from .metrics import kl_global, mi_global  # noqa: F401
from .model import MeasurementModel, PosteriorKernel, check_nonnegative, check_positive

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


def _records(spec: GameSpec, model: MeasurementModel, t: int, start, v, metrics):
    """Records of round t's first len(metrics) moves; row k of the profile
    block is v up to player k and ``start`` after it.  ``metrics`` holds
    the kernel's (mi, kl) after each move.  Round 0 is the start, player -1."""
    V = np.where(np.tri(len(metrics), model.m, dtype=bool), v, start)
    mi, kl = np.array(metrics).T
    potentials = row_potentials(spec, model, V, mi, kl).tolist()
    players = range(len(V)) if t else [-1]
    rows = zip(players, V, potentials, mi.tolist(), kl.tolist())
    return [TrajectoryRecord(t, *fields) for fields in rows]


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
    fixed point.  Each move keeps only the kernel's ``mi`` and ``kl``;
    a round's records are assembled at its end, or at an abort.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    tol = check_positive("tol", tol)
    kernel = PosteriorKernel(model, np.zeros(model.m) if v0 is None else v0)
    context, sigma2 = player_contexts(model), model.sigma2

    v = kernel.v  # kernel.update writes each move into it in place
    trajectory = _records(spec, model, 0, v, v, [(kernel.mi, kernel.kl)])
    converged = False
    rounds_used = 0
    max_delta = math.inf
    for t in range(1, t_max + 1):
        start, metrics = v.copy(), []
        max_delta = 0.0
        # Players move in index order, so v_i is still the round's start.
        for i, v_i in enumerate(start.tolist()):
            new_vi = respond(spec, context(i, kernel.gain(i), v_i), sigma2)
            if not math.isfinite(new_vi):
                # The diagnostic record: the profile before the failing move.
                metrics.append((kernel.mi, kernel.kl))
                trajectory += _records(spec, model, t, start, v, metrics)
                raise NonFiniteUpdateError(
                    f"non-finite best response for player {i} in round {t}",
                    trajectory,
                )
            max_delta = max(max_delta, abs(new_vi - v_i))
            kernel.update(i, new_vi)
            metrics.append((kernel.mi, kernel.kl))
        # Once per round: drops the drift of the rank-one updates, so
        # each round's last record is a fresh evaluation.
        kernel.refactor()
        metrics[-1] = (kernel.mi, kernel.kl)
        trajectory += _records(spec, model, t, start, v, metrics)
        rounds_used = t
        if max_delta < tol:
            converged = True
            break

    report = ConvergenceReport(
        converged=converged,
        rounds_used=rounds_used,
        max_delta_last_round=float(max_delta),
        ne_residual=verify_ne(spec, model, v),
    )
    return v, trajectory, report


def verify_ne(spec: GameSpec, model: MeasurementModel, v) -> float:
    """Fixed-point residual: max_i |v_i - BR_i(complementary profile)|.

    Evaluates every player's context from one fresh kernel at v.
    """
    kernel, context = PosteriorKernel(model, v), player_contexts(model)
    responses = [
        respond(spec, context(i, kernel.gain(i), v_i), model.sigma2)
        for i, v_i in enumerate(kernel.v.tolist())
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
    threshold = check_nonnegative("threshold", threshold)
    violations = []
    for k in range(1, len(trajectory)):
        rise = trajectory[k].potential - trajectory[k - 1].potential
        if rise > threshold:
            violations.append((k, rise))
    return violations
