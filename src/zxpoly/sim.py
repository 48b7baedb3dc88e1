"""Output verification: an exact certificate first, a dense-unitary oracle after.

`verify` is the one check that a circuit implements a polynomial. The oracle
builds exact 2^q x 2^q unitaries for polynomials and circuits, so rewrite
rules can be checked numerically too. It applies every gadget, and every
rotation as the one-leg gadget it is, by one rule: a gadget is the Pauli
exponential exp(-i*theta/2*P), P being Z or X on each of its legs. Qubit j
is the j-th least significant bit of the basis-state index. The oracle is
capped at 12 qubits: above that, an output without a certificate is
unproven. Neither checks the polynomial:
`ZXPolynomial` admits no leg-less gadget and no out-of-range leg.
"""

from __future__ import annotations

from math import cos, sin

import numpy as np

from .arch import Architecture
from .circuit import Circuit
from .poly import PhaseGadget, ZXPolynomial
from .rules import Cnot
from .simplify import simplify

MAX_QUBITS = 12


def _check_size(num_qubits: int) -> None:
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"oracle supports at most {MAX_QUBITS} qubits, got {num_qubits}")
    if num_qubits < 1:
        raise ValueError("need at least one qubit")


def _apply_cnot(mat: np.ndarray, cnot: Cnot, num_qubits: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    perm = np.where((idx >> cnot.control) & 1 == 1, idx ^ (1 << cnot.target), idx)
    return mat[perm]


def _apply_exp_pauli(mat: np.ndarray, gadget: PhaseGadget, num_qubits: int) -> np.ndarray:
    """exp(-i*theta/2*P) @ mat = cos(theta/2)*mat - i*sin(theta/2)*P @ mat, as P^2 = I.

    P @ mat flips the sign of each row whose index has odd parity on the legs
    for Z, and takes row `idx ^ legs` into row `idx` for X.
    """
    idx = np.arange(1 << num_qubits)
    if gadget.basis == "Z":
        parity = np.zeros_like(idx)
        for leg in gadget.leg_list():
            parity ^= (idx >> leg) & 1
        flipped = (1 - 2 * parity)[:, None] * mat
    else:
        flipped = mat[idx ^ gadget.legs]
    theta = gadget.phase.radians()
    flipped *= -1j * sin(theta / 2)  # in place: fewer 2^q x 2^q matrices alive at once
    flipped += cos(theta / 2) * mat
    return flipped


def identity_unitary(num_qubits: int) -> np.ndarray:
    _check_size(num_qubits)
    return np.eye(1 << num_qubits, dtype=complex)


def poly_unitary(poly: ZXPolynomial) -> np.ndarray:
    """Unitary of a polynomial; temporal order left to right."""
    mat = identity_unitary(poly.num_qubits)
    for gadget in poly.gadgets:
        mat = _apply_exp_pauli(mat, gadget, poly.num_qubits)
    return mat


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Unitary of a gate list; temporal order left to right."""
    mat = identity_unitary(circuit.num_qubits)
    for gate in circuit.gates:
        if isinstance(gate, Cnot):
            mat = _apply_cnot(mat, gate, circuit.num_qubits)
        else:
            rotation = PhaseGadget(gate.basis, 1 << gate.qubit, gate.phase)
            mat = _apply_exp_pauli(mat, rotation, circuit.num_qubits)
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
        else:
            legs = (rows if gate.basis == "Z" else cols)[gate.qubit]
            undo.append(PhaseGadget(gate.basis, legs, -gate.phase))
    undone = ZXPolynomial(q, poly.gadgets + tuple(reversed(undo)))
    if rows == identity and not simplify(undone).gadgets:
        return "certificate", True, None
    if q > MAX_QUBITS:
        return "unproven", False, None
    residual = global_phase_residual(poly_unitary(poly), circuit_unitary(circuit))
    return "oracle", residual < tol, residual
