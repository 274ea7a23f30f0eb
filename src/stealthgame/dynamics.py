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
once per round.  A round's records are built at its end and share two
read-only length-m profiles, the round's start and its end (which is
the next round's start), so a trajectory keeps O(m) numbers per round
and O(1) per record.  Their potentials come from the metrics and, in
games 2 and 3, from the local terms of those two profiles
(:func:`~stealthgame.games.row_potentials`), O(m) a round.  A round
costs O(m n^2) and forms no m-by-m array.

A move does only what it needs: the player's row and gain (two BLAS
calls), its context from constants read into Python floats once per run
(:func:`~stealthgame.bestresponse.player_contexts`), its game's checked
best response in Python floats, reached through :func:`respond`, and the
kernel's rank-one update (two more BLAS calls).  At m = 149 (n = 59) a
move, with its share of the round's records, takes about 15 us in game
1 and 18 us in games 2 and 3 (2 vCPUs, numpy 2.4).
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
from .model import MeasurementModel, PosteriorKernel, check_integer, check_positive

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


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """One player update of a round (player = -1 for the start, round 0).

    ``start`` and ``end`` are the round's profiles before its first move
    and after its last, shared by all its records.  The profile after
    this update, :attr:`v_snapshot`, is ``end`` up to and including the
    player and ``start`` after it, so it differs from the previous
    record's in at most the updated player's coordinate, whose new value
    is ``end[player]``.
    """

    round: int
    player: int
    start: np.ndarray
    end: np.ndarray
    potential: float
    mi_global: float
    kl_global: float

    @property
    def v_snapshot(self) -> np.ndarray:
        """The profile right after this update, as a new array."""
        k = self.player + 1
        return np.concatenate((self.end[:k], self.start[k:]))


@dataclass(frozen=True)
class ConvergenceReport:
    """How a run of :func:`run_brd` ended.

    ``converged``: the last round moved no coordinate by ``tol`` or more.
    ``rounds_used``: the number of full rounds run.
    ``max_delta_last_round``: the largest absolute change of a coordinate
    in the last round.  ``ne_residual``: :func:`verify_ne` at the final
    profile, the largest absolute gap between a player's variance and its
    best response.  Both are absolute, in the units of the variances.
    """

    converged: bool
    rounds_used: int
    max_delta_last_round: float
    ne_residual: float


def _records(spec: GameSpec, model: MeasurementModel, t: int, start, end, metrics):
    """Records of round t's first len(metrics) moves, sharing the round's
    ``start`` and ``end`` profiles; ``metrics`` holds the kernel's (mi, kl)
    after each move.  Round 0 is the start, player -1."""
    mi, kl = np.array(metrics).T
    potentials = row_potentials(spec, model, start, end, mi, kl).tolist()
    players = range(len(metrics)) if t else [-1]
    rows = zip(players, potentials, mi.tolist(), kl.tolist())
    return [TrajectoryRecord(t, k, start, end, p, a, b) for k, p, a, b in rows]


def _frozen_copy(v: np.ndarray) -> np.ndarray:
    """A read-only copy of the profile v, for records to share."""
    copy = v.copy()
    copy.flags.writeable = False
    return copy


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
    check_integer("t_max", t_max)
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    tol = check_positive("tol", tol)
    kernel = PosteriorKernel(model, np.zeros(model.m) if v0 is None else v0)
    context, sigma2 = player_contexts(model), model.sigma2

    v = kernel.v  # kernel.update writes each move into it in place
    start = _frozen_copy(v)
    trajectory = _records(spec, model, 0, start, start, [(kernel.mi, kernel.kl)])
    converged = False
    rounds_used = 0
    max_delta = math.inf
    for t in range(1, t_max + 1):
        metrics = []
        max_delta = 0.0
        # Players move in index order, so v_i is still the round's start.
        for i, v_i in enumerate(start.tolist()):
            new_vi = respond(spec, context(i, kernel.gain(i), v_i), sigma2)
            if not math.isfinite(new_vi):
                # The diagnostic record: the profile before the failing move.
                metrics.append((kernel.mi, kernel.kl))
                trajectory += _records(spec, model, t, start, _frozen_copy(v), metrics)
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
        # A copy, not v: the caller owns v, returned as v*.
        end = _frozen_copy(v)
        trajectory += _records(spec, model, t, start, end, metrics)
        start = end
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


def potential_audit(trajectory: list[TrajectoryRecord]) -> list[tuple[int, float]]:
    """Consecutive potential increases exceeding ``AUDIT_THRESHOLD``.

    Returns (record index, increase) pairs; expected empty for any
    best-response trajectory since the potential is exact.
    """
    violations = []
    for k in range(1, len(trajectory)):
        rise = trajectory[k].potential - trajectory[k - 1].potential
        if rise > AUDIT_THRESHOLD:
            violations.append((k, rise))
    return violations
