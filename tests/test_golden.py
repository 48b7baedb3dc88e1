"""Golden output: the exact gates emitted for fixed simplified instances.

Each case pins the first 16 hex digits of the SHA-256 of the lowered
circuit's gate text (`cx{c},{t}`, `rz{q}:{phase}`, `rx{q}:{phase}`, joined
by spaces, the perfbench format) and its CNOT count. A change meant to
leave the output bit-for-bit identical must pass unchanged; a change that
sets out to alter the output updates these constants and records the new
ones in CHANGES.md.
"""

import hashlib

import pytest

import zxpoly as zx


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
    ("rand6-s4", _random(6, 20, 4, 4), "grid:2x3", "gauss", "ab62df13efcca820", 56),
    ("rand6-s4", _random(6, 20, 4, 4), "circle:6", "gauss", "4fbef231405fd5cf", 90),
    ("rand5-s6", _random(5, 24, 4, 6), "line:5", "gauss", "d0f13f63575dedd5", 93),
    ("rand5-s6", _random(5, 24, 4, 6), "circle:5", "gauss", "6b842b3cd5df3e08", 61),
    ("rand9-s3", _random(9, 12, 4, 3), "grid:3x3", "fast", "3c62bb579eeb1dde", 62),
    ("rand9-s3", _random(9, 12, 4, 3), "line:9", "fast", "0aa5457da59ec49e", 104),
    ("qaoa8-s5", _qaoa(5), "line:8", "gauss", "0b087e88248efc74", 264),
    ("qaoa8-s5", _qaoa(5), "grid:2x4", "gauss", "20d95a88def2c339", 144),
    ("qaoa8-s5", _qaoa(5), "line:8", "fast", "0b087e88248efc74", 264),
    ("qaoa8-s5", _qaoa(5), "grid:2x4", "fast", "20d95a88def2c339", 144),
    # gauss above four qubits with candidates the lower bound leaves to
    # cnot_cost (the q = 8 QAOA sweeps reject every one by the bound)
    ("rand8-s1", _random(8, 60, 4, 1), "line:8", "gauss", "da2a74d2dde66403", 512),
    ("rand12-s3", _random(12, 60, 4, 3), "grid:3x4", "gauss", "fa0f6b38ec5f6fc4", 403),
    # the paper regime
    ("rand20-s1", _random(20, 200, 4, 1), "grid:4x5", "fast", "ca31572de594255d", 1856),
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
