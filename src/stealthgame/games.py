"""The three attacker games: per-player costs and exact potentials.

Game 1 pairs global disruption with global detectability, game 2 local
disruption with global detectability, game 3 global disruption with
local detectability.  The weight ``lam`` trades disruption against
detectability; game 1 requires ``lam >= 1`` (convexity of its cost),
games 2 and 3 admit any ``lam >= 0``.

Each game admits an exact potential: a single function whose change
under any unilateral deviation equals the deviating player's cost
change.  Minimizing the potential therefore finds the Nash equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import kl_global, kl_local, mi_global, mi_local
from .model import MeasurementModel, PosteriorKernel, as_profile

__all__ = ["GameSpec", "cost", "potential", "kernel_potential"]


@dataclass(frozen=True)
class GameSpec:
    """Game index (1, 2 or 3) and trade-off weight lam."""

    game: int
    lam: float

    def __post_init__(self):
        if self.game not in (1, 2, 3):
            raise ValueError(f"game must be 1, 2 or 3, got {self.game}")
        if self.game == 1 and self.lam < 1.0:
            raise ValueError(
                f"game 1 requires lam >= 1 (cost convexity), got {self.lam}"
            )
        if self.game in (2, 3) and self.lam < 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")


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
    return kernel_potential(spec, PosteriorKernel(model, v))


def kernel_potential(spec: GameSpec, kernel: PosteriorKernel) -> float:
    """Exact potential at the kernel's profile, from its global metrics.

    The sums of ``mi_local`` and ``kl_local`` over all players are
    evaluated as vectors.
    """
    model, v = kernel.model, kernel.v
    if spec.game == 1:
        return kernel.mi + spec.lam * kernel.kl
    if spec.game == 2:
        local_mi = 0.5 * float(np.sum(np.log1p(model.c / (model.sigma2 + v))))
        return local_mi + spec.lam * kernel.kl
    s = model.s
    local_kl = 0.5 * float(np.sum(v / s + np.log(s) - np.log(s + v)))
    return kernel.mi + spec.lam * local_kl
