"""Gate-level circuit IR, gadget emitters, region lowering, and QASM export.

The gate set is CNOT / RZ / RX. A rotation is the one-leg phase gadget on its
qubit: `Rz` and `Rx` say which by their class-level `basis`, which the
QASM/JSON writers and `sim` read in place of asking for the class, and one
name table serves both readers. A `Circuit` is a frozen value: its gates
are a tuple, checked against the wire count once, when it is built, so
each emitter and reader first collects its gates and then builds the
circuit in one call. Two gadget emitters are provided:

  * `naive_gadget_circuit` is the definitional ladder (parity cascade over
    ascending legs, one rotation, mirrored cascade) with every non-adjacent
    logical CNOT expanded into a 4(d-1)-CNOT edge-only zig-zag; it is the
    baseline that CNOT-reduction percentages are measured against.
  * `steiner_gadget_circuit` places CNOTs along a Steiner tree over the
    legs, cancelling non-leg relay wires, and is what the synthesis
    pipeline emits. Its ladder is `Architecture.gather`, the tree walk the
    Steiner-Gauss row step uses too, memoized as its op tuple.

Both rotate on the highest leg, so on a line a gadget over consecutive
wires gets the same gates from either; any other leg would give the Steiner
ladder the same CNOT count (why: `steiner_gadget_circuit`). Both produce
circuits whose unitary equals the gadget's exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import pi
from typing import ClassVar

from .arch import Architecture
from .parity import ParityMap, steiner_gauss
from .poly import COEFFICIENT_BITS, Phase, PhaseGadget, ZXPolynomial, decimal_fraction, json_int
from .rules import Cnot


@dataclass(frozen=True)
class Rz:
    """The Z gadget with the one leg `qubit`."""

    phase: Phase
    qubit: int
    basis: ClassVar[str] = "Z"


@dataclass(frozen=True)
class Rx:
    """The X gadget with the one leg `qubit`."""

    phase: Phase
    qubit: int
    basis: ClassVar[str] = "X"


Gate = Cnot | Rz | Rx


@dataclass(frozen=True)
class Circuit:
    """A gate sequence on wires 0..num_qubits-1, applied in order.

    A value like the polynomial it implements: `gates` is a tuple, made
    from whatever sequence is given and checked once, here, so every gate
    of every circuit is in range.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if isinstance(gate, Cnot):
                if gate.control >= self.num_qubits or gate.target >= self.num_qubits:
                    raise ValueError(f"{gate} out of range for {self.num_qubits} qubits")
            elif not 0 <= gate.qubit < self.num_qubits:
                raise ValueError(f"gate qubit {gate.qubit} out of range")


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
    if gadget.legs >> arch.num_qubits:
        raise ValueError("gadget legs invalid for the architecture")
    legs = gadget.leg_list()
    up: list[Cnot] = []
    for a, b in zip(legs, legs[1:]):
        up.extend(_ladder_cnot(arch, a, b, gadget.basis))
    rotation = _rotation(gadget.basis, gadget.phase, legs[-1])
    return Circuit(arch.num_qubits, [*up, rotation, *reversed(up)])


def naive_poly_circuit(poly: ZXPolynomial, arch: Architecture) -> Circuit:
    """Concatenated naive ladders for every gadget; the metric baseline."""
    if poly.num_qubits != arch.num_qubits:
        raise ValueError(f"polynomial and architecture disagree: polynomial has {poly.num_qubits} "
                         f"qubits, architecture {arch.name} has {arch.num_qubits}")
    return Circuit(arch.num_qubits, [
        gate for gadget in poly.gadgets for gate in naive_gadget_circuit(gadget, arch).gates
    ])


def steiner_gadget_circuit(gadget: PhaseGadget, arch: Architecture) -> Circuit:
    """Tree-placed circuit for one gadget.

    The parity of the legs is accumulated onto the root, the highest leg,
    by the post-order CNOT(child, parent) ops of `arch.gather`; each
    non-leg relay vertex emits one extra cancelling CNOT before its subtree
    so its own input drops out of the parity. The sweep is mirrored after
    the rotation. X gadgets use the same structure with every CNOT
    direction reversed and an RX rotation.

    The CNOT count, twice the number of `gather` ops (one per carrying tree
    edge, one more per carrying relay), is the same whichever leg is the
    root: an edge is skipped exactly when its side away from the root holds
    no leg, and since the root is a leg, that side is the same for every
    root; a relay carries exactly when it lies on the tree path between two
    legs, which does not depend on the root either.
    """
    if gadget.legs >> arch.num_qubits:
        raise ValueError("gadget legs invalid for the architecture")
    legs = gadget.leg_list()
    rotation = _rotation(gadget.basis, gadget.phase, legs[-1])
    if len(legs) == 1:
        return Circuit(arch.num_qubits, (rotation,))
    flip = gadget.basis == "X"
    up = [Cnot(parent, child) if flip else Cnot(child, parent)
          for child, parent in arch.gather(gadget.legs, legs[-1])]
    return Circuit(arch.num_qubits, [*up, rotation, *reversed(up)])


def lower_regions(regions: list[ParityMap | ZXPolynomial], arch: Architecture) -> Circuit:
    """Lower an alternating region list: Steiner-Gauss for parity maps,
    tree-placed gadget circuits for gadget runs, concatenated in order."""
    gates: list[Gate] = []
    for region in regions:
        if isinstance(region, ParityMap):
            gates += steiner_gauss(region, arch)
        elif isinstance(region, ZXPolynomial):
            if region.num_qubits != arch.num_qubits:
                raise ValueError("gadget region size does not match architecture")
            for gadget in region.gadgets:
                gates += steiner_gadget_circuit(gadget, arch).gates
        else:
            raise TypeError(f"unknown region {region!r}")
    return Circuit(arch.num_qubits, gates)


# --- QASM 2.0 / JSON interchange ---------------------------------------------

# re.ASCII: \d would otherwise match every Unicode digit, "\u0663" as well as "3"
_QASM_CX = re.compile(r"^cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]\s*;$", re.ASCII)
_QASM_ROT = re.compile(r"^(rz|rx)\(([^()]*)\)\s+q\[(\d+)\]\s*;$", re.ASCII)
_QASM_FACTOR = re.compile(r"\s*(pi|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*", re.ASCII)
_QASM_QREG = re.compile(r"^qreg\s+q\[(\d+)\]\s*;$", re.ASCII)
_ROTATIONS = {"rz": Rz, "rx": Rx}  # the gate name of each rotation, in QASM and JSON


def to_qasm(circuit: Circuit) -> str:
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    for gate in circuit.gates:
        if isinstance(gate, Cnot):
            lines.append(f"cx q[{gate.control}],q[{gate.target}];")
        else:
            lines.append(f"r{gate.basis.lower()}({_qasm_angle(gate.phase)}) q[{gate.qubit}];")
    return "\n".join(lines) + "\n"


def _qasm_angle(phase: Phase) -> str:
    """The phase as an exact multiple of pi, in a form `_qasm_phase` reads
    back: 0, pi, pi/d, n*pi or n*pi/d."""
    n, d = phase.numerator, phase.denominator
    if n == 0:
        return "0"
    angle = "pi" if n == 1 else f"{n}*pi"
    return angle if d == 1 else f"{angle}/{d}"


def _qasm_phase(text: str) -> Phase | None:
    """Phase of a QASM angle, or None if it is not one this reader takes.

    Takes an optional sign, then numeric literals and `pi` joined by `*`
    and `/`, whose `pi` factors come to pi^1 or pi^0: `pi/4`, `-pi/2`,
    `3*pi/4`, `pi*0.25`, `0.785398163397`. A multiple of pi is read
    exactly; any other value is radians, rounded to the nearest multiple
    of pi with a denominator of at most 10^6, and must convert to a finite
    float. A literal is read by `decimal_fraction`, so its exponent has at
    most EXPONENT_DIGITS digits. The running product is kept as an
    unreduced numerator and denominator, neither of which may grow past
    COEFFICIENT_BITS bits, and is reduced once at the end: a gcd at each
    step would make many short literals slow.
    """
    text = text.strip()
    numerator, denominator = -1 if text.startswith("-") else 1, 1
    pos = 1 if text.startswith(("-", "+")) else 0
    pis, op = 0, "*"
    while True:
        m = _QASM_FACTOR.match(text, pos)
        if m is None:
            return None
        if m.group(1) == "pi":
            pis += 1 if op == "*" else -1
        else:
            try:
                value = decimal_fraction(m.group(1))
            except ValueError:  # its exponent is too long to expand
                return None
            if op == "/" and value == 0:
                return None
            if op == "*":
                numerator *= value.numerator
                denominator *= value.denominator
            else:
                numerator *= value.denominator
                denominator *= value.numerator
            if max(numerator.bit_length(), denominator.bit_length()) > COEFFICIENT_BITS:
                return None
        pos = m.end()
        if pos == len(text):
            break
        op = text[pos]
        if op not in "*/":
            return None
        pos += 1
    coefficient = Fraction(numerator, denominator)
    if pis == 1:
        return Phase.from_fraction(coefficient)
    if pis != 0:
        return None
    try:
        return Phase.from_fraction(Fraction(float(coefficient) / pi).limit_denominator(10**6))
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
            gates.append(_ROTATIONS[m.group(1)](phase, int(m.group(3))))
            continue
        raise ValueError(f"unsupported QASM line: {line!r}")
    if num_qubits is None:
        raise ValueError("QASM input has no qreg declaration")
    return Circuit(num_qubits, gates)


def circuit_to_json(circuit: Circuit, indent: int | None = None) -> str:
    gates = [{"gate": "cx", "control": gate.control, "target": gate.target}
             if isinstance(gate, Cnot) else
             {"gate": "r" + gate.basis.lower(), "phase": str(gate.phase), "qubit": gate.qubit}
             for gate in circuit.gates]
    return json.dumps({"qubits": circuit.num_qubits, "gates": gates}, indent=indent)


def circuit_from_json(text: str) -> Circuit:
    data = json.loads(text)
    gates: list[Gate] = []
    try:
        for entry in data.get("gates", ()):
            kind = entry["gate"]
            if kind == "cx":
                gates.append(Cnot(json_int(entry["control"], "control"),
                                 json_int(entry["target"], "target")))
            elif kind in _ROTATIONS:
                gates.append(_ROTATIONS[kind](Phase.parse(str(entry["phase"])),
                                              json_int(entry["qubit"], "qubit")))
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
        qubits = json_int(data["qubits"], "qubit count")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed circuit JSON: {exc}") from exc
    return Circuit(qubits, gates)
