"""Benchmark instance generators.

Phases are drawn from rational grids (eighths or quarters of pi) so that
simplification stays exact and the pi-commutation rule is exercised.
All draws are deterministic for a fixed seed.
"""

from __future__ import annotations

import random

from .poly import Phase, PhaseGadget, ZXPolynomial, legs_to_mask


def random_poly(num_qubits: int, n_gadgets: int, max_legs: int, seed: int) -> ZXPolynomial:
    """Random polynomial: uniform basis, leg count uniform in [1, max_legs],
    legs a uniform subset, phase uniform over {k*pi/4 : k = 1..7}."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be at least 1, got {num_qubits}")
    if not 1 <= max_legs <= num_qubits:
        raise ValueError(f"max_legs must be in [1, {num_qubits}], got {max_legs}")
    if n_gadgets < 0:
        raise ValueError("n_gadgets must be non-negative")
    rng = random.Random(seed)
    gadgets = []
    for _ in range(n_gadgets):
        basis = "Z" if rng.random() < 0.5 else "X"
        count = rng.randint(1, max_legs)
        legs = rng.sample(range(num_qubits), count)
        phase = Phase(rng.randint(1, 7), 4)
        gadgets.append(PhaseGadget(basis, legs_to_mask(legs), phase))
    return ZXPolynomial(num_qubits, tuple(gadgets))


def _erdos_renyi_edges(n_vertices: int, p_edge: float, rng: random.Random) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
        if rng.random() < p_edge
    ]


def maxcut_qaoa(n_vertices: int, p_edge: float, layers: int, seed: int) -> ZXPolynomial:
    """MaxCut-style alternating ansatz on a random graph.

    Per layer: one two-leg Z gadget per edge with that layer's cost angle,
    then one single-leg X gadget per vertex with the layer's mixer angle.
    Angles are uniform over {k*pi/8 : k = 1..15}; no leading basis-change
    gates are emitted.
    """
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    if not 0.0 <= p_edge <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    if layers < 1:
        raise ValueError("need at least one layer")
    rng = random.Random(seed)
    edges = _erdos_renyi_edges(n_vertices, p_edge, rng)
    gadgets = []
    for _ in range(layers):
        gamma = Phase(rng.randint(1, 15), 8)
        beta = Phase(rng.randint(1, 15), 8)
        for i, j in edges:
            gadgets.append(PhaseGadget.z((i, j), gamma))
        for v in range(n_vertices):
            gadgets.append(PhaseGadget.x((v,), beta))
    return ZXPolynomial(n_vertices, tuple(gadgets))
