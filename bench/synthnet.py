"""Seeded synthetic bus networks for the benchmark.

A network of ``n_bus`` buses is a chain 1-2-...-n_bus plus ``n_bus // 2``
distinct random chords, every susceptance drawn from U(5, 20).  The
measurement count is therefore ``m = (n_bus - 1) + n_bus // 2 + n_bus``:
74 for 30 buses and 149 for 60.  The network reaches the package only as
text written by ``serialize_network``, which the workloads parse back.
"""

from __future__ import annotations

import random

from stealthgame import Branch, BusNetwork, serialize_network

B_LOW, B_HIGH = 5.0, 20.0


def measurement_count(n_bus: int) -> int:
    return (n_bus - 1) + n_bus // 2 + n_bus


def network_text(n_bus: int, seed: int) -> str:
    """Network file text for the chain-plus-chords network of ``seed``."""
    if n_bus < 5:
        raise ValueError(f"need at least 5 buses for distinct chords, got {n_bus}")
    rng = random.Random(f"synthnet:{n_bus}:{seed}")
    edges = [(k, k + 1) for k in range(1, n_bus)]
    used = set(edges)
    while len(edges) < (n_bus - 1) + n_bus // 2:
        a, b = sorted(rng.sample(range(1, n_bus + 1), 2))
        if (a, b) not in used:
            used.add((a, b))
            edges.append((a, b))
    branches = tuple(Branch(a, b, rng.uniform(B_LOW, B_HIGH)) for a, b in edges)
    return serialize_network(BusNetwork(n_bus=n_bus, slack=1, branches=branches))
