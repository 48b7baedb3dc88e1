"""Output verification: an exact certificate first, a dense-unitary oracle after.

`verify` is the one check that a circuit implements a polynomial. The oracle
builds exact 2^q x 2^q unitaries for gadgets, polynomials, circuits, parity
maps and region lists, so rewrite rules can be checked numerically too. Qubit
j is the j-th least significant bit of the basis-state index. It is capped at
12 qubits: above that, an output without a certificate is unproven.
"""

from __future__ import annotations

from math import cos, sin

import numpy as np

from .arch import Architecture
from .circuit import Circuit, Rx, Rz
from .parity import ParityMap
from .poly import PhaseGadget, ZXPolynomial
from .rules import Cnot
from .simplify import simplify

MAX_QUBITS = 12
_INV_SQRT2 = 2.0 ** -0.5


def _check_size(num_qubits: int) -> None:
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"oracle supports at most {MAX_QUBITS} qubits, got {num_qubits}")
    if num_qubits < 1:
        raise ValueError("need at least one qubit")


def _leg_parities(legs: int, num_qubits: int) -> np.ndarray:
    """Parity of (basis index & legs) for every basis index, as +-1 signs."""
    masked = np.arange(1 << num_qubits, dtype=np.int64) & legs
    parity = np.zeros(1 << num_qubits, dtype=np.int64)
    for b in range(num_qubits):
        parity ^= (masked >> b) & 1
    return 1 - 2 * parity  # parity 0 -> +1, parity 1 -> -1


def _apply_cnot(mat: np.ndarray, cnot: Cnot, num_qubits: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    perm = np.where((idx >> cnot.control) & 1 == 1, idx ^ (1 << cnot.target), idx)
    return mat[perm]


def _apply_rz(mat: np.ndarray, theta: float, qubit: int, num_qubits: int) -> np.ndarray:
    bits = (np.arange(1 << num_qubits) >> qubit) & 1
    factors = np.exp(-0.5j * theta * (1 - 2 * bits))
    return factors[:, None] * mat


def _apply_rx(mat: np.ndarray, theta: float, qubit: int, num_qubits: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    lo = idx[(idx >> qubit) & 1 == 0]
    hi = lo ^ (1 << qubit)
    c, s = cos(theta / 2), sin(theta / 2)
    out = np.empty_like(mat)
    out[lo] = c * mat[lo] - 1j * s * mat[hi]
    out[hi] = -1j * s * mat[lo] + c * mat[hi]
    return out


def _apply_h(mat: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    lo = idx[(idx >> qubit) & 1 == 0]
    hi = lo ^ (1 << qubit)
    out = np.empty_like(mat)
    out[lo] = (mat[lo] + mat[hi]) * _INV_SQRT2
    out[hi] = (mat[lo] - mat[hi]) * _INV_SQRT2
    return out


def _apply_gadget(mat: np.ndarray, gadget: PhaseGadget, num_qubits: int) -> np.ndarray:
    legs = gadget.leg_list()
    if gadget.basis == "X":
        for leg in legs:
            mat = _apply_h(mat, leg, num_qubits)
    signs = _leg_parities(gadget.legs, num_qubits)
    factors = np.exp(-0.5j * gadget.phase.radians() * signs)
    mat = factors[:, None] * mat
    if gadget.basis == "X":
        for leg in legs:
            mat = _apply_h(mat, leg, num_qubits)
    return mat


def identity_unitary(num_qubits: int) -> np.ndarray:
    _check_size(num_qubits)
    return np.eye(1 << num_qubits, dtype=complex)


def gadget_unitary(gadget: PhaseGadget, num_qubits: int) -> np.ndarray:
    """Unitary of one gadget: diagonal parity phases, Hadamard-conjugated on X."""
    _check_size(num_qubits)
    if gadget.legs >> num_qubits:
        raise ValueError("gadget legs out of range")
    return _apply_gadget(identity_unitary(num_qubits), gadget, num_qubits)


def poly_unitary(poly: ZXPolynomial) -> np.ndarray:
    mat = identity_unitary(poly.num_qubits)
    for gadget in poly.gadgets:
        mat = _apply_gadget(mat, gadget, poly.num_qubits)
    return mat


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Unitary of a gate list; temporal order left to right."""
    mat = identity_unitary(circuit.num_qubits)
    for gate in circuit.gates:
        if isinstance(gate, Cnot):
            mat = _apply_cnot(mat, gate, circuit.num_qubits)
        elif isinstance(gate, Rz):
            mat = _apply_rz(mat, gate.phase.radians(), gate.qubit, circuit.num_qubits)
        elif isinstance(gate, Rx):
            mat = _apply_rx(mat, gate.phase.radians(), gate.qubit, circuit.num_qubits)
        else:  # pragma: no cover - exhaustive over the gate union
            raise TypeError(f"unknown gate {gate!r}")
    return mat


def parity_unitary(m: ParityMap) -> np.ndarray:
    """Permutation unitary sending basis state x to M x over GF(2)."""
    _check_size(m.size)
    dim = 1 << m.size
    mat = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        y = 0
        for i, row in enumerate(m.rows):
            y |= ((row & x).bit_count() & 1) << i
        mat[y, x] = 1.0
    return mat


def regions_unitary(regions: list[ParityMap | ZXPolynomial]) -> np.ndarray:
    """Unitary of an alternating parity-map/gadget-run list, temporal order."""
    if not regions:
        raise ValueError("empty region list")
    size = regions[0].size if isinstance(regions[0], ParityMap) else regions[0].num_qubits
    mat = identity_unitary(size)
    for region in regions:
        if isinstance(region, ParityMap):
            mat = parity_unitary(region) @ mat
        elif isinstance(region, ZXPolynomial):
            if region.num_qubits != size:
                raise ValueError(f"gadget run has {region.num_qubits} qubits, the list {size}")
            for gadget in region.gadgets:
                mat = _apply_gadget(mat, gadget, size)
        else:
            raise TypeError(f"unknown region {region!r}")
    return mat


def global_phase_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - e^(i phi) b, with b's global phase aligned to a's
    at a's largest entry; infinite when b vanishes there."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    flat = int(np.argmax(np.abs(a)))
    i, j = divmod(flat, a.shape[1])
    if abs(b[i, j]) == 0.0:
        return float("inf")
    ratio = a[i, j] / b[i, j]
    ratio /= abs(ratio)
    return float(np.linalg.norm(a - ratio * b))


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True when the global-phase residual of the pair is below tol."""
    return global_phase_residual(a, b) < tol


def verify(
    poly: ZXPolynomial, circuit: Circuit, arch: Architecture | None = None, tol: float = 1e-9
) -> tuple[str, bool, object]:
    """Check that the circuit implements the polynomial; returns (method, ok, detail).

    The first rule that applies decides. "edges", not ok: a CNOT, the detail, is
    not a coupling edge of `arch`. "certificate", ok: with P the CNOT map so far,
    an Rz on wire w is the Z gadget on row w of P, an Rx the X gadget on column w
    of P^-1; P ends as I, and `simplify` cancels the polynomial against those
    gadgets' inverse (Amy, arXiv:1805.06908). "oracle" up to MAX_QUBITS: ok iff
    the residual, the detail, is below tol. Else "unproven", never ok.
    """
    q = poly.num_qubits
    if circuit.num_qubits != q:
        raise ValueError(f"polynomial has {q} qubits, circuit has {circuit.num_qubits}")
    if arch is not None and arch.num_qubits != q:
        raise ValueError(f"polynomial has {q} qubits, architecture {arch.name} "
                         f"has {arch.num_qubits}")
    identity = [1 << i for i in range(q)]
    rows, cols, undo = list(identity), list(identity), []  # P by rows, P^-1 by columns
    for gate in circuit.gates:
        if isinstance(gate, Cnot):
            if arch is not None and not arch.is_edge(gate.control, gate.target):
                return "edges", False, gate
            rows[gate.target] ^= rows[gate.control]
            cols[gate.control] ^= cols[gate.target]
        elif isinstance(gate, Rz):
            undo.append(PhaseGadget("Z", rows[gate.qubit], -gate.phase))
        else:
            undo.append(PhaseGadget("X", cols[gate.qubit], -gate.phase))
    undone = ZXPolynomial(q, poly.gadgets + tuple(reversed(undo)))
    if rows == identity and not simplify(undone).gadgets:
        return "certificate", True, None
    if q > MAX_QUBITS:
        return "unproven", False, None
    residual = global_phase_residual(poly_unitary(poly), circuit_unitary(circuit))
    return "oracle", residual < tol, residual
