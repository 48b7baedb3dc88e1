"""Golden output: the exact gates emitted for fixed simplified instances.

Each case pins the first 16 hex digits of the SHA-256 of the lowered
circuit's gate text (`cx{c},{t}`, `rz{q}:{phase}`, `rx{q}:{phase}`, joined
by spaces, the perfbench format) and its CNOT count. A change meant to
leave the output bit-for-bit identical must pass unchanged; a change that
sets out to alter the output updates these constants and records the new
ones in CHANGES.md.

The summed `cnot_cost` of fixed seeded random maps pins the greedy's counts
on graphs whose Steiner trees branch, the dead-relay graph's included; a
change to the order of a tree walk's ops must leave those sums as they are.
"""

import hashlib
import random

import pytest

import zxpoly as zx
from conftest import dead_relay_graph, random_connected_graph, random_invertible_map


def gate_text(circuit: zx.Circuit) -> str:
    parts = []
    for gate in circuit.gates:
        if isinstance(gate, zx.Cnot):
            parts.append(f"cx{gate.control},{gate.target}")
        else:
            kind = "rz" if isinstance(gate, zx.Rz) else "rx"
            parts.append(f"{kind}{gate.qubit}:{gate.phase}")
    return " ".join(parts)


def _random(q, n, legs, seed):
    return lambda: zx.random_poly(q, n, legs, seed)


def _qaoa(seed):
    return lambda: zx.maxcut_qaoa(8, 0.5, 2, seed)


# (label, polynomial factory, architecture, mode, digest, CNOT count)
CASES = [
    ("rand4-s1", _random(4, 30, 4, 1), "line:4", "gauss", "f1891c69807219b5", 51),
    ("rand4-s1", _random(4, 30, 4, 1), "circle:4", "gauss", "17c5ba0530c073c3", 30),
    ("rand4-s1", _random(4, 30, 4, 1), "complete:4", "gauss", "3cfe4c442310beb7", 20),
    ("rand4-s2", _random(4, 30, 4, 2), "line:4", "gauss", "a4381a7ea09efc55", 49),
    ("rand4-s2", _random(4, 30, 4, 2), "circle:4", "gauss", "6a6e6ac244245b25", 37),
    ("rand4-s2", _random(4, 30, 4, 2), "complete:4", "gauss", "195ec24dba1b55f3", 29),
    # gauss above four qubits: cnot_cost synthesizes with the Steiner-Gauss greedy
    ("rand6-s4", _random(6, 20, 4, 4), "grid:2x3", "gauss", "6aeeeb4d1a610eef", 56),
    ("rand6-s4", _random(6, 20, 4, 4), "circle:6", "gauss", "4fbef231405fd5cf", 90),
    ("rand5-s6", _random(5, 24, 4, 6), "line:5", "gauss", "d0f13f63575dedd5", 93),
    ("rand5-s6", _random(5, 24, 4, 6), "circle:5", "gauss", "b56bc4e4880459a2", 61),
    ("rand9-s3", _random(9, 12, 4, 3), "grid:3x3", "fast", "16b0734cdfb4c48d", 62),
    ("rand9-s3", _random(9, 12, 4, 3), "line:9", "fast", "0aa5457da59ec49e", 104),
    ("qaoa8-s5", _qaoa(5), "line:8", "gauss", "0b087e88248efc74", 264),
    ("qaoa8-s5", _qaoa(5), "grid:2x4", "gauss", "20d95a88def2c339", 144),
    ("qaoa8-s5", _qaoa(5), "line:8", "fast", "0b087e88248efc74", 264),
    ("qaoa8-s5", _qaoa(5), "grid:2x4", "fast", "20d95a88def2c339", 144),
    # gauss above four qubits with candidates the lower bound leaves to
    # cnot_cost (the q = 8 QAOA sweeps reject every one by the bound)
    ("rand8-s1", _random(8, 60, 4, 1), "line:8", "gauss", "da2a74d2dde66403", 512),
    ("rand12-s3", _random(12, 60, 4, 3), "grid:3x4", "gauss", "701041dbac553724", 403),
    # the paper regime
    ("rand20-s1", _random(20, 200, 4, 1), "grid:4x5", "fast", "418430dc8dcef4d0", 1856),
]


@pytest.mark.parametrize(
    "make, arch_spec, mode, digest, cx",
    [case[1:] for case in CASES],
    ids=[f"{label}-{arch}-{mode}" for label, _, arch, mode, _, _ in CASES],
)
def test_output_is_unchanged(make, arch_spec, mode, digest, cx):
    arch = zx.build_architecture(arch_spec)
    poly = zx.simplify(make())
    circuit = zx.lower_regions(zx.synthesize(poly, arch, mode), arch)
    assert zx.cnot_count(circuit) == cx
    assert hashlib.sha256(gate_text(circuit).encode()).hexdigest()[:16] == digest


# (architecture factory, summed cnot_cost of 200 random maps drawn from seed 44)
COST_SUMS = [
    (lambda: zx.grid(2, 4), 5172),
    (lambda: zx.circle(7), 4156),
    (dead_relay_graph, 18865),
    (lambda: zx.Architecture(8, random_connected_graph(random.Random(2026), 8), "random:8"), 4206),
]


@pytest.mark.parametrize("build, total", COST_SUMS, ids=["grid:2x4", "circle:7", "dead-relay:13",
                                                        "random:8"])
def test_summed_cnot_cost_is_unchanged(build, total):
    arch = build()
    rng = random.Random(44)
    assert sum(zx.cnot_cost(random_invertible_map(rng, arch.num_qubits), arch)
               for _ in range(200)) == total


# Both gadget emitters, gadget by gadget: 120 seeded gadgets per graph, each
# basis, with single legs and with consecutive legs that the naive cascade
# must route. (architecture, naive digest, Steiner digest)
EMITTER_CASES = [
    ("line:6", "6c097d81ebcc430a", "2c78227b329503b5"),
    ("circle:7", "3b78df90b5012aa1", "0fb4136ba8243364"),
    ("grid:3x3", "ac7a5617314a4ba0", "d02eca99ed2823c8"),
    ("complete:5", "f8d60ca070aaa622", "396e89a89ebaf26d"),
    ("grid:2x4", "a9e6c0222c0a1095", "da2654a468400032"),
]


def _emitter_gadgets(arch: zx.Architecture) -> list[zx.PhaseGadget]:
    rng = random.Random(45)
    gadgets = []
    for _ in range(120):
        legs = rng.sample(range(arch.num_qubits), rng.randint(1, arch.num_qubits))
        basis = rng.choice("ZX")
        gadgets.append(zx.PhaseGadget(basis, sum(1 << l for l in legs), zx.Phase(rng.randint(1, 7), 4)))
    return gadgets


@pytest.mark.parametrize("arch_spec, naive, steiner", EMITTER_CASES,
                         ids=[case[0] for case in EMITTER_CASES])
def test_emitted_gadget_gates_are_unchanged(arch_spec, naive, steiner):
    arch = zx.build_architecture(arch_spec)
    gadgets = _emitter_gadgets(arch)
    assert {g.basis for g in gadgets if g.legs & g.legs - 1 == 0} == {"Z", "X"}
    if arch.num_qubits > 5:  # complete:5 has no pair to route
        assert any(not arch.is_edge(a, b) for g in gadgets
                   for a, b in zip(g.leg_list(), g.leg_list()[1:]))

    def digest(emit):
        text = " | ".join(gate_text(emit(g, arch)) for g in gadgets)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    assert (digest(zx.naive_gadget_circuit), digest(zx.steiner_gadget_circuit)) == (naive, steiner)
