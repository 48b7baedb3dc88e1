"""Peephole simplification of ZX polynomials.

Each gadget tries to walk left toward the nearest gadget with the same
basis and leg set, stepping only over neighbors `exchange` lets it pass
(freely, or via the pi rule, which flips one phase per step). If a merge
partner is reached the two gadgets fuse by phase addition and a zero-phase
result is dropped; if the walk is blocked first, nothing is changed. Zero
phase gadgets are removed and the whole pass repeats until a full pass
leaves the polynomial unchanged.

The gadget count never increases and the unitary is preserved up to a
global phase.
"""

from __future__ import annotations

from .poly import PhaseGadget, ZXPolynomial
from .rules import exchange, try_merge


def _attempt_merge_left(gadgets: list[PhaseGadget], start: int) -> bool:
    """Walk gadgets[start] leftward to its nearest merge partner.

    On success the list is rewritten in place (partner merged, or dropped at
    phase zero; passed neighbours in their `exchange`d forms) and True is
    returned. On failure the list is untouched.
    """
    mover = gadgets[start]
    passed: list[PhaseGadget] = []
    for j in range(start - 1, -1, -1):
        left = gadgets[j]
        merged = try_merge(left, mover)
        if merged is not None:
            replacement = [] if merged.phase.is_zero() else [merged]
            gadgets[j:start + 1] = replacement + passed[::-1]
            return True
        swapped = exchange(left, mover)
        if swapped is None:
            return False
        mover, left = swapped
        passed.append(left)
    return False


def simplify(poly: ZXPolynomial) -> ZXPolynomial:
    """Merge, remove, and commute gadgets until no pass changes anything."""
    gadgets = list(poly.gadgets)
    changed = True
    while changed:
        changed = False
        kept = [g for g in gadgets if not g.phase.is_zero()]
        if len(kept) != len(gadgets):
            gadgets = kept
            changed = True
        i = 1
        while i < len(gadgets):
            if _attempt_merge_left(gadgets, i):
                changed = True
                i = max(i - 1, 1)
            else:
                i += 1
    return ZXPolynomial(poly.num_qubits, tuple(gadgets))
