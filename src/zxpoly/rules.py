"""Rewrite rules on phase gadgets.

All rules are exact and unitary-preserving:
  * conjugating a gadget by a CNOT pair toggles one leg,
  * two gadgets commute iff they share a basis or overlap on an even
    number of wires,
  * `exchange` swaps adjacent gadgets: a commuting pair as it is, a
    non-commuting pair with one pi phase by negating the other phase,
  * gadgets with identical basis and legs merge by adding phases.

The exchange is one rule in two parts: `exchange_rule` decides, from the
bases, legs and `is_pi` alone, which phase (if any) a swap negates, and
`exchange` applies that decision. A walk that only needs to know whether
a gadget can pass (`simplify`) reads the decision and builds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import PhaseGadget, ZXPolynomial


@dataclass(frozen=True)
class Cnot:
    """A CNOT gate with the given control and target wires."""

    control: int
    target: int

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise ValueError("CNOT control and target must differ")
        if self.control < 0 or self.target < 0:
            raise ValueError("CNOT wires must be non-negative")

    def __str__(self) -> str:
        return f"CNOT({self.control},{self.target})"


def tested_toggled(basis: str, control: int, target: int) -> tuple[int, int]:
    """(tested wire, toggled wire) of a CNOT(control, target) conjugating a
    gadget of this basis: a Z gadget's control leg toggles iff its target
    wire carries a leg, an X gadget's target leg iff its control wire does.

    The map swaps (Z) or keeps (X) the pair, so it is its own inverse:
    `tested_toggled(basis, tested, toggled)` is `(control, target)`.
    """
    return (target, control) if basis == "Z" else (control, target)


def propagated_legs(gadget: PhaseGadget, cnot: Cnot) -> int:
    """Leg mask of CNOT * gadget * CNOT: the toggled wire's leg flips iff
    the tested wire carries a leg (see `tested_toggled`). The mask can
    never become empty (the tested wire keeps its leg).
    """
    tested, toggled = tested_toggled(gadget.basis, cnot.control, cnot.target)
    if gadget.legs >> tested & 1:
        return gadget.legs ^ (1 << toggled)
    return gadget.legs


def propagate_cnot_gadget(gadget: PhaseGadget, cnot: Cnot) -> PhaseGadget:
    """Conjugate a gadget by a CNOT: returns CNOT * gadget * CNOT.

    Basis and phase are unchanged; the legs become `propagated_legs`.
    """
    legs = propagated_legs(gadget, cnot)
    return gadget if legs == gadget.legs else gadget.with_legs(legs)


def propagate_cnot_poly(poly: ZXPolynomial, cnot: Cnot) -> ZXPolynomial:
    """Conjugate every gadget in the polynomial by the CNOT.

    The caller is responsible for absorbing the emitted CNOT pair into the
    flanking parity maps; the conjugated polynomial alone satisfies
    U(CNOT) * U(poly') * U(CNOT) = U(poly).
    """
    if not (cnot.control < poly.num_qubits and cnot.target < poly.num_qubits):
        raise ValueError(f"{cnot} out of range for {poly.num_qubits} qubits")
    return ZXPolynomial(
        poly.num_qubits,
        tuple(propagate_cnot_gadget(g, cnot) for g in poly.gadgets),
    )


def commutes(a: PhaseGadget, b: PhaseGadget) -> bool:
    """True iff the gadgets share a basis or overlap on an even wire count."""
    if a.basis == b.basis:
        return True
    return (a.legs & b.legs).bit_count() % 2 == 0


# The phases an exchange negates, as a mask over the pair (a, b).
NEGATE_FIRST = 1
NEGATE_SECOND = 2


def exchange_rule(a: PhaseGadget, b: PhaseGadget) -> int | None:
    """Which phase swapping the adjacent pair `(a, b)` negates, or None
    when no rule lets them swap.

    `(a, b)` is in temporal order (a applied first). The result is a mask
    over the pair: 0 when the pair commutes (neither phase changes);
    otherwise, when one gadget has phase pi, the pi gadget passes through
    unchanged and the other's phase is negated: NEGATE_SECOND when a has
    phase pi, NEGATE_FIRST when only b has. When both phases are pi the
    left gadget is treated as the pi carrier (negating pi is a no-op).
    Reads only bases, legs and `is_pi`, so it builds no gadget or phase.
    """
    if commutes(a, b):
        return 0
    if a.phase.is_pi():
        return NEGATE_SECOND
    if b.phase.is_pi():
        return NEGATE_FIRST
    return None


def exchange(
    a: PhaseGadget, b: PhaseGadget
) -> tuple[PhaseGadget, PhaseGadget] | None:
    """Swap an adjacent pair of gadgets when a rule allows it.

    `(a, b)` is in temporal order (a applied first). Returns the swapped
    pair `(b', a')`, again in temporal order, with U(b)*U(a) = U(a')*U(b'):
    the pair with the phases `exchange_rule` names negated. Returns None
    when no rule applies.
    """
    rule = exchange_rule(a, b)
    if rule is None:
        return None
    if rule & NEGATE_FIRST:
        a = a.with_phase(-a.phase)
    if rule & NEGATE_SECOND:
        b = b.with_phase(-b.phase)
    return b, a


def try_merge(a: PhaseGadget, b: PhaseGadget) -> PhaseGadget | None:
    """Merge two gadgets with identical basis and legs by adding phases.

    Returns None when basis or legs differ. A merged gadget may have zero
    phase; removing it is the caller's decision.
    """
    if a.basis == b.basis and a.legs == b.legs:
        return a.with_phase(a.phase + b.phase)
    return None
