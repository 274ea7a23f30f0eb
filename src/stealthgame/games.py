"""The three attacker games: per-player costs and exact potentials.

Game 1 pairs global disruption with global detectability, game 2 local
disruption with global detectability, game 3 global disruption with
local detectability.  The weight ``lam`` trades disruption against
detectability; game 1 requires ``lam >= 1`` (convexity of its cost),
games 2 and 3 require ``lam > 0``: at ``lam = 0`` a player's cost
strictly decreases in its own variance, so no equilibrium exists.

Each game admits an exact potential: a single function whose change
under any unilateral deviation equals the deviating player's cost
change.  Minimizing the potential therefore finds the Nash equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import kl_global, kl_local, mi_global, mi_local
from .model import MeasurementModel, PosteriorKernel, as_profile, check_integer
from .model import check_real

__all__ = ["GameSpec", "cost", "potential", "row_potentials"]


@dataclass(frozen=True)
class GameSpec:
    """Game index (1, 2 or 3) and trade-off weight lam (checked by
    :func:`check_weight`)."""

    game: int
    lam: float

    def __post_init__(self):
        check_integer("game", self.game)
        if self.game not in (1, 2, 3):
            raise ValueError(f"game must be 1, 2 or 3, got {self.game}")
        check_real("lam", self.lam)
        check_weight(self.game, self.lam)


def check_weight(game: int, lam: float) -> None:
    """Validate the weight of game 1, 2 or 3: finite, and >= 1 in game 1
    (cost convexity) or > 0 in games 2 and 3 (at 0 no equilibrium exists)."""
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if game == 1 and lam < 1.0:
        raise ValueError(f"game 1 requires lam >= 1 (cost convexity), got {lam}")
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")


def cost(spec: GameSpec, model: MeasurementModel, i: int, v) -> float:
    """Cost of player i at profile v in the given game.

    Game 1: mi_global + lam * kl_global (identical for all players).
    Game 2: mi_local(i) + lam * kl_global.
    Game 3: mi_global + lam * kl_local(i).
    """
    v = as_profile(model, v)
    if spec.game == 1:
        return mi_global(model, v) + spec.lam * kl_global(model, v)
    if spec.game == 2:
        return mi_local(model, i, v[i]) + spec.lam * kl_global(model, v)
    return mi_global(model, v) + spec.lam * kl_local(model, i, v[i])


def potential(spec: GameSpec, model: MeasurementModel, v) -> float:
    """Exact potential of the game at profile v.

    Game 1: the common cost itself.  Game 2: sum of local mutual
    informations plus lam * kl_global.  Game 3: mi_global plus lam *
    sum of local KL divergences.
    """
    kernel = PosteriorKernel(model, v)
    mi, kl = np.array([kernel.mi]), np.array([kernel.kl])
    return row_potentials(spec, model, kernel.v, kernel.v, mi, kl).item()


def row_potentials(spec: GameSpec, model: MeasurementModel, start, end, mi, kl) -> np.ndarray:
    """Exact potential after each of a round's first len(mi) moves.

    Move k sets player k's variance from ``start[k]`` to ``end[k]``, so the
    profile after it is ``end`` up to k and ``start`` after; ``mi`` and
    ``kl`` hold the global metrics after each move.  The sums of
    ``mi_local`` and ``kl_local`` in games 2 and 3 are ``start``'s sum plus
    the running sum of the moved players' changes, O(m) in all, except
    after the last move, whose profile is ``end`` and gets ``end``'s own
    sum.  The changes are summed apart from ``start``'s sum, so their
    rounding stays on their own scale.  Game 1 reads neither profile.
    """
    if spec.game == 1:
        return mi + spec.lam * kl
    if spec.game == 2:
        f_start, f_end = (np.log1p(model.c / (model.sigma2 + v)) for v in (start, end))
    else:
        s = model.s
        f_start, f_end = (v / s + np.log(s) - np.log(s + v) for v in (start, end))
    local = 0.5 * (np.sum(f_start) + np.cumsum((f_end - f_start)[: len(mi)]))
    local[-1] = 0.5 * np.sum(f_end)
    return local + spec.lam * kl if spec.game == 2 else mi + spec.lam * local
