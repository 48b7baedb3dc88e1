"""Gate-level circuit IR, gadget emitters, region lowering, and QASM export.

The gate set is CNOT / RZ / RX. Two gadget emitters are provided:

  * `naive_gadget_circuit` is the definitional ladder (parity cascade over
    ascending legs, one rotation, mirrored cascade) with every non-adjacent
    logical CNOT expanded into a 4(d-1)-CNOT edge-only zig-zag; it is the
    baseline that CNOT-reduction percentages are measured against.
  * `steiner_gadget_circuit` places CNOTs along a Steiner tree over the
    legs, cancelling non-leg relay wires, and is what the synthesis
    pipeline emits. Its ladder is `Architecture.gather`, the tree walk the
    Steiner-Gauss row step uses too, on a memoized rooted terminal tree.

Both produce circuits whose unitary equals the gadget's exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import pi

from .arch import Architecture
from .parity import ParityMap, steiner_gauss
from .poly import Phase, PhaseGadget, ZXPolynomial, json_int, mask_to_legs
from .rules import Cnot


@dataclass(frozen=True)
class Rz:
    phase: Phase
    qubit: int


@dataclass(frozen=True)
class Rx:
    phase: Phase
    qubit: int


Gate = Cnot | Rz | Rx


@dataclass
class Circuit:
    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        for gate in self.gates:
            self._check(gate)

    def _check(self, gate: Gate) -> None:
        if isinstance(gate, Cnot):
            if gate.control >= self.num_qubits or gate.target >= self.num_qubits:
                raise ValueError(f"{gate} out of range for {self.num_qubits} qubits")
        elif not 0 <= gate.qubit < self.num_qubits:
            raise ValueError(f"gate qubit {gate.qubit} out of range")

    def append(self, gate: Gate) -> None:
        self._check(gate)
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for gate in gates:
            self.append(gate)

    def __len__(self) -> int:
        return len(self.gates)


def cnot_count(circuit: Circuit) -> int:
    return sum(1 for gate in circuit.gates if isinstance(gate, Cnot))


def reduction(cx_naive: int, cx_out: int) -> float:
    """CNOT reduction percentage, positive when the output is smaller."""
    if cx_naive <= 0:
        raise ValueError("reduction undefined for a zero-CNOT baseline")
    return 100.0 * (cx_naive - cx_out) / cx_naive


def routed_cnot(arch: Architecture, control: int, target: int) -> list[Cnot]:
    """Edge-only implementation of CNOT(control, target).

    Adjacent pairs emit a single gate; a pair at distance d > 1 expands to
    4(d-1) CNOTs by two zig-zag sweeps along the shortest path.
    """
    path = arch.shortest_path(control, target)
    d = len(path) - 1
    if d == 0:
        raise ValueError("control equals target")
    step = lambda i: Cnot(path[i], path[i + 1])
    gates = [step(i) for i in range(d)]
    gates += [step(i) for i in range(d - 2, -1, -1)]
    gates += [step(i) for i in range(1, d)]
    gates += [step(i) for i in range(d - 2, 0, -1)]
    return gates


def _ladder_cnot(arch: Architecture, upstream: int, downstream: int, basis: str) -> list[Cnot]:
    # Z ladders cascade parity downward (control above), X ladders are the
    # Hadamard-conjugated mirror with control and target exchanged.
    if basis == "Z":
        return routed_cnot(arch, upstream, downstream)
    return routed_cnot(arch, downstream, upstream)


def _rotation(basis: str, phase: Phase, qubit: int) -> Gate:
    return Rz(phase, qubit) if basis == "Z" else Rx(phase, qubit)


def naive_gadget_circuit(gadget: PhaseGadget, arch: Architecture) -> Circuit:
    """Definitional ladder circuit for one gadget, made edge-legal by routing."""
    legs = gadget.leg_list()
    if not legs or legs[-1] >= arch.num_qubits:
        raise ValueError("gadget legs invalid for the architecture")
    circuit = Circuit(arch.num_qubits)
    up: list[Cnot] = []
    for a, b in zip(legs, legs[1:]):
        up.extend(_ladder_cnot(arch, a, b, gadget.basis))
    circuit.extend(up)
    circuit.append(_rotation(gadget.basis, gadget.phase, legs[-1]))
    circuit.extend(reversed(up))
    return circuit


def naive_poly_circuit(poly: ZXPolynomial, arch: Architecture) -> Circuit:
    """Concatenated naive ladders for every gadget; the metric baseline."""
    circuit = Circuit(arch.num_qubits)
    for gadget in poly.gadgets:
        circuit.extend(naive_gadget_circuit(gadget, arch).gates)
    return circuit


def _tree_root(arch: Architecture, legs: int) -> int:
    """Leg vertex with minimal eccentricity in the terminal tree over the
    `legs` mask.

    Ties go to the highest leg index, matching the naive ladder's
    convention of rotating the last leg.
    """
    best = None
    for leg in mask_to_legs(legs):
        parent, order = arch.rooted_terminal_tree(legs, leg)
        ecc, v = 0, order[-1]  # BFS order ends at a deepest vertex
        while v != leg:
            ecc, v = ecc + 1, parent[v]
        if best is None or ecc <= best[0]:
            best = (ecc, leg)
    return best[1]


def steiner_gadget_circuit(gadget: PhaseGadget, arch: Architecture) -> Circuit:
    """Tree-placed circuit for one gadget.

    The parity of the legs is accumulated onto the root by the post-order
    CNOT(child, parent) ops of `arch.gather`; each non-leg relay vertex
    emits one extra cancelling CNOT before its subtree so its own input
    drops out of the parity. The sweep is mirrored after the rotation. X
    gadgets use the same structure with every CNOT direction reversed and
    an RX rotation.
    """
    legs = gadget.leg_list()
    if not legs or legs[-1] >= arch.num_qubits:
        raise ValueError("gadget legs invalid for the architecture")
    circuit = Circuit(arch.num_qubits)
    if len(legs) == 1:
        circuit.append(_rotation(gadget.basis, gadget.phase, legs[0]))
        return circuit
    root = _tree_root(arch, gadget.legs)
    flip = gadget.basis == "X"
    up = [Cnot(parent, child) if flip else Cnot(child, parent)
          for child, parent in arch.gather(gadget.legs, root)]
    circuit.extend(up)
    circuit.append(_rotation(gadget.basis, gadget.phase, root))
    circuit.extend(reversed(up))
    return circuit


def lower_regions(regions: list[ParityMap | ZXPolynomial], arch: Architecture) -> Circuit:
    """Lower an alternating region list: Steiner-Gauss for parity maps,
    tree-placed gadget circuits for gadget runs, concatenated in order."""
    circuit = Circuit(arch.num_qubits)
    for region in regions:
        if isinstance(region, ParityMap):
            circuit.extend(steiner_gauss(region, arch))
        elif isinstance(region, ZXPolynomial):
            if region.num_qubits != arch.num_qubits:
                raise ValueError("gadget region size does not match architecture")
            for gadget in region.gadgets:
                circuit.extend(steiner_gadget_circuit(gadget, arch).gates)
        else:
            raise TypeError(f"unknown region {region!r}")
    return circuit


# --- QASM 2.0 / JSON interchange ---------------------------------------------

_QASM_CX = re.compile(r"^cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]\s*;$")
_QASM_ROT = re.compile(r"^(rz|rx)\(([^()]*)\)\s+q\[(\d+)\]\s*;$")
_QASM_FACTOR = re.compile(r"\s*(pi|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*")
_QASM_QREG = re.compile(r"^qreg\s+q\[(\d+)\]\s*;$")


def to_qasm(circuit: Circuit) -> str:
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    for gate in circuit.gates:
        if isinstance(gate, Cnot):
            lines.append(f"cx q[{gate.control}],q[{gate.target}];")
        else:
            name = "rz" if isinstance(gate, Rz) else "rx"
            theta = gate.phase.radians()
            lines.append(f"{name}({theta:.12g}) q[{gate.qubit}];")
    return "\n".join(lines) + "\n"


def _phase_from_radians(theta: float) -> Phase:
    frac = Fraction(theta / pi).limit_denominator(10**6)
    return Phase(frac.numerator, frac.denominator)


def _qasm_phase(text: str) -> Phase | None:
    """Phase of a QASM angle, or None if it is not one this reader takes.

    Takes an optional sign, then numeric literals and `pi` joined by `*`
    and `/`, whose `pi` factors come to pi^1 or pi^0: `pi/4`, `-pi/2`,
    `3*pi/4`, `pi*0.25`, `0.785398163397`. A multiple of pi is read
    exactly; any other value is radians, rounded as `_phase_from_radians`
    does, and must convert to a finite float.
    """
    text = text.strip()
    coefficient = Fraction(-1 if text.startswith("-") else 1)
    pos = 1 if text.startswith(("-", "+")) else 0
    pis, op = 0, "*"
    while True:
        m = _QASM_FACTOR.match(text, pos)
        if m is None:
            return None
        if m.group(1) == "pi":
            pis += 1 if op == "*" else -1
        else:
            value = Fraction(m.group(1))
            if op == "/" and value == 0:
                return None
            coefficient = coefficient * value if op == "*" else coefficient / value
        pos = m.end()
        if pos == len(text):
            break
        op = text[pos]
        if op not in "*/":
            return None
        pos += 1
    if pis == 1:
        return Phase.from_fraction(coefficient)
    if pis != 0:
        return None
    try:
        return _phase_from_radians(float(coefficient))
    except OverflowError:  # beyond the largest finite float
        return None


def from_qasm(text: str) -> Circuit:
    num_qubits = None
    gates: list[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//") or line.startswith("OPENQASM") or line.startswith("include"):
            continue
        m = _QASM_QREG.match(line)
        if m:
            if num_qubits is not None:
                raise ValueError(f"QASM input declares a second qreg: {line!r}")
            num_qubits = int(m.group(1))
            continue
        m = _QASM_CX.match(line)
        if m:
            gates.append(Cnot(int(m.group(1)), int(m.group(2))))
            continue
        m = _QASM_ROT.match(line)
        phase = _qasm_phase(m.group(2)) if m else None
        if phase is not None:
            qubit = int(m.group(3))
            gates.append(Rz(phase, qubit) if m.group(1) == "rz" else Rx(phase, qubit))
            continue
        raise ValueError(f"unsupported QASM line: {line!r}")
    if num_qubits is None:
        raise ValueError("QASM input has no qreg declaration")
    return Circuit(num_qubits, gates)


def to_json_dict(circuit: Circuit) -> dict:
    gates = []
    for gate in circuit.gates:
        if isinstance(gate, Cnot):
            gates.append({"gate": "cx", "control": gate.control, "target": gate.target})
        else:
            name = "rz" if isinstance(gate, Rz) else "rx"
            gates.append({"gate": name, "phase": str(gate.phase), "qubit": gate.qubit})
    return {"qubits": circuit.num_qubits, "gates": gates}


def from_json_dict(data: dict) -> Circuit:
    gates: list[Gate] = []
    try:
        for entry in data.get("gates", ()):
            kind = entry["gate"]
            if kind == "cx":
                gates.append(Cnot(json_int(entry["control"], "control"),
                                 json_int(entry["target"], "target")))
            elif kind in ("rz", "rx"):
                phase = Phase.parse(str(entry["phase"]))
                cls = Rz if kind == "rz" else Rx
                gates.append(cls(phase, json_int(entry["qubit"], "qubit")))
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
        qubits = json_int(data["qubits"], "qubit count")
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed circuit JSON: {exc}") from exc
    return Circuit(qubits, gates)


def circuit_to_json(circuit: Circuit, indent: int | None = None) -> str:
    return json.dumps(to_json_dict(circuit), indent=indent)


def circuit_from_json(text: str) -> Circuit:
    return from_json_dict(json.loads(text))
