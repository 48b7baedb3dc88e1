"""Peephole simplification of ZX polynomials.

Each gadget tries to walk left toward the nearest gadget with the same
basis and leg set, stepping only over neighbors `exchange_rule` lets it
pass (freely, or via the pi rule, which flips one phase per step). The
walk decides before it builds: the mover keeps its basis and legs, and
-pi is pi, so a flag for the mover's sign and a mask of the neighbours
whose phase flips are all it tracks. If a merge partner is reached the
two gadgets fuse by phase addition, a zero-phase result is dropped and
the flipped neighbours are built; if the walk is blocked first, nothing
is built or changed. Zero phase gadgets are removed once, up front: a
merge drops its own zero result and a negation never makes a phase zero,
so no later pass meets one. The pass repeats until a full pass leaves the
polynomial unchanged.

The gadget count never increases and the unitary is preserved up to a
global phase.
"""

from __future__ import annotations

from .poly import PhaseGadget, ZXPolynomial
from .rules import NEGATE_FIRST, NEGATE_SECOND, exchange_rule, try_merge


def _attempt_merge_left(gadgets: list[PhaseGadget], start: int) -> bool:
    """Walk gadgets[start] leftward to its nearest merge partner.

    On success the list is rewritten in place (partner merged, or dropped at
    phase zero; passed neighbours in their `exchange`d forms) and True is
    returned. On failure the list is untouched and no gadget is built.
    """
    mover = gadgets[start]
    basis, legs = mover.basis, mover.legs
    flipped = False  # the mover's phase is negated
    negated = 0  # bit j: gadgets[j] was passed with its phase negated
    for j in range(start - 1, -1, -1):
        left = gadgets[j]
        if left.basis == basis and left.legs == legs:
            merged = try_merge(left, mover.with_phase(-mover.phase) if flipped else mover)
            passed = [g.with_phase(-g.phase) if negated >> k & 1 else g
                      for k, g in enumerate(gadgets[j + 1:start], j + 1)]
            gadgets[j:start + 1] = ([] if merged.phase.is_zero() else [merged]) + passed
            return True
        rule = exchange_rule(left, mover)
        if rule is None:
            return False
        if rule & NEGATE_SECOND:
            flipped = not flipped
        if rule & NEGATE_FIRST:
            negated |= 1 << j
    return False


def simplify(poly: ZXPolynomial) -> ZXPolynomial:
    """Merge, remove, and commute gadgets until no pass changes anything."""
    gadgets = [g for g in poly.gadgets if not g.phase.is_zero()]
    changed = True
    while changed:
        changed = False
        i = 1
        while i < len(gadgets):
            if _attempt_merge_left(gadgets, i):
                changed = True
                i = max(i - 1, 1)
            else:
                i += 1
    return ZXPolynomial(poly.num_qubits, tuple(gadgets))
