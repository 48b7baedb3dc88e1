"""Architecture-aware synthesis: cost model, CNOT extraction, regrouping,
and the recursive divide-and-conquer driver.

A polynomial is optimized inside an alternating region list
[P_0, G_1, P_1, ..., G_k, P_k] of parity maps (`ParityMap`) and gadget runs
(`ZXPolynomial`). Extracting a CNOT conjugates every gadget of one run and
absorbs the gate pair into the two flanking parity regions, preserving the
total unitary while (ideally) shrinking the gadgets' leg trees.

Cost conventions: a gadget is priced at twice its tree weight, and
`effect_zx` is the change (after minus before) in that gadget-tree CNOT
estimate, so negative is an improvement. The ceiling is what the two
flanking parity regions cost now (`cnot_cost`), `absorbed` what they cost
with the CNOT pair absorbed; `optimize_gauss` accepts a candidate when
effect_zx + absorbed - ceiling < 0, which is exactly "the total
emitted-CNOT estimate strictly decreases".

Both sweeps read every candidate's effect_zx from one q x q table,
`_zx_table`, built in one pass over the run and rebuilt only after an
accept (accepts are rare next to the q(q-1) candidates of a sweep);
`effect_zx` stays the one-candidate definition the table must equal. The
table sums one row of nonzero effects per gadget, and a row depends only
on the gadget's legs and basis, so it is computed once per Architecture
(its "zx" memo) and reused at every recursion level, in every QAOA layer
and after every accept.

`optimize_gauss` prices a candidate's parity regions by `cnot_cost`.
Up to 4 qubits that is the optimum, and `exact_pricer` reads it for both
absorbed regions from the Architecture's exact table, one move on each
flank's packed index, with no map built: that costs less than a bound, so
every candidate that passes zx < ceiling is priced, and only an accepted
one builds its `Cnot` and its two maps. Above, it is the Steiner-Gauss
greedy's length, and a candidate is priced only when `cnot_lower_bound`
leaves room for a strict decrease. That bound, max(r, c, 2D - min(r, c))
over the non-unit rows r, the non-unit columns c and the farthest hop D
from a wire to an input its parity holds, is one no coupling-edge CNOT
sequence for the map can beat; a skipped candidate has net >= 0 and would
have been rejected, so the skip never changes the output.
"""

from __future__ import annotations

from typing import Iterable

from .arch import Architecture, memo_put
from .parity import (
    EXACT_QUBITS, ParityMap, append_cnot, cnot_cost, cnot_lower_bound, exact_pricer, identity_map,
    prepend_cnot, steiner_gauss,
)
from .poly import PhaseGadget, ZXPolynomial, mask_to_legs
from .rules import (
    Cnot, commutes, pi_commute_swap, propagate_cnot_poly, propagated_legs, tested_toggled,
)


def effect_zx(poly: ZXPolynomial, cnot: Cnot, arch: Architecture) -> int:
    """Change in the summed gadget cost if the CNOT pair were propagated
    through the whole run; negative means the gadgets get cheaper."""
    delta = 0
    for gadget in poly.gadgets:
        new_legs = propagated_legs(gadget, cnot)
        if new_legs != gadget.legs:
            delta += 2 * (arch.tree_weight(new_legs) - arch.tree_weight(gadget.legs))
    return delta


def _zx_table(poly: ZXPolynomial, arch: Architecture) -> list[list[int]]:
    """`effect_zx` of every ordered pair at once: table[c][t] is
    effect_zx(poly, Cnot(c, t), arch), and the diagonal is 0.

    The sum over the run of each gadget's `_gadget_effects`, which depend
    only on its legs, its basis and the architecture and so are looked up
    in the architecture's "zx" table.
    """
    q = arch.num_qubits
    table = [[0] * q for _ in range(q)]
    rows = arch.memos["zx"]
    for gadget in poly.gadgets:
        key = gadget.legs << 1 | (gadget.basis == "X")
        effects = rows.get(key)
        if effects is None:
            effects = memo_put(rows, key, _gadget_effects(gadget, arch))
        it = iter(effects)
        for control, target, delta in zip(it, it, it):
            table[control][target] += delta
    return table


def _gadget_effects(gadget: PhaseGadget, arch: Architecture) -> tuple[int, ...]:
    """One gadget's nonzero `effect_zx` entries as flat (control, target,
    delta) triples.

    The gadget's cost changes by the same delta for every CNOT that toggles
    wire v, and such a CNOT acts only when its tested wire is another leg
    of the gadget. So the gadget reads its own tree weight once and the
    weight with wire v toggled once per wire, never an empty mask, and
    gives the delta to each (tested, toggled) pair turned into (control,
    target) by `tested_toggled`.
    """
    legs = gadget.legs
    wires = mask_to_legs(legs)
    base = arch.tree_weight(legs)
    effects: list[int] = []
    for v in range(arch.num_qubits):
        toggled_legs = legs ^ 1 << v
        if not toggled_legs:
            continue
        delta = 2 * (arch.tree_weight(toggled_legs) - base)
        if delta:
            for t in wires:
                if t != v:
                    effects.extend(tested_toggled(gadget.basis, t, v))
                    effects.append(delta)
    return tuple(effects)


def optimize_gauss(
    pl: ParityMap, poly: ZXPolynomial, pr: ParityMap, arch: Architecture
) -> tuple[ParityMap, ZXPolynomial, ParityMap]:
    """Single greedy sweep over all ordered (control, target) pairs,
    propagating whenever the exact total emitted-CNOT estimate drops.

    Every candidate's effect_zx is read from one `_zx_table`, rebuilt only
    after an accept. A candidate's net is effect_zx plus what the two
    absorbed regions cost minus what the current ones cost (the ceiling).
    Above EXACT_QUBITS qubits, `cnot_lower_bound`, which counts the
    non-unit rows and columns and the relays a parity needs to cross the
    coupling graph, is at most what any synthesis of a map on `arch` costs,
    so a candidate whose effect_zx plus the bounds of its absorbed regions
    reaches the ceiling has net >= 0 and is skipped before it is priced by
    `cnot_cost`. Up to EXACT_QUBITS, `exact_pricer` reads both absorbed
    regions' cost from the flanks' packed indices, cheaper than the two
    bounds, so there is no bound skip; a rejected candidate builds no map,
    and an accepted one builds its two and packs them for the next pricer.
    The bound skip cannot change the output only because acceptance is
    strict (net < 0); a rule that accepted net == 0 would need the strict
    skip (>) instead."""
    q = arch.num_qubits
    exact = q <= EXACT_QUBITS
    if exact:
        ceiling, price = exact_pricer(pl, pr, arch)
    else:
        ceiling = cnot_cost(pl, arch) + cnot_cost(pr, arch)
    table = _zx_table(poly, arch)
    for control in range(q):
        for target in range(q):
            if control == target:
                continue
            zx = table[control][target]
            if zx >= ceiling or (exact and zx + price(control, target) >= ceiling):
                continue
            cnot = Cnot(control, target)
            left, right = append_cnot(pl, cnot), prepend_cnot(pr, cnot)
            if exact:
                ceiling, price = exact_pricer(left, right, arch)
            else:
                if zx + cnot_lower_bound(left, arch) + cnot_lower_bound(right, arch) >= ceiling:
                    continue
                absorbed = cnot_cost(left, arch) + cnot_cost(right, arch)
                if zx + absorbed >= ceiling:
                    continue
                ceiling = absorbed
            pl, poly, pr = left, propagate_cnot_poly(poly, cnot), right
            table = _zx_table(poly, arch)
    return pl, poly, pr


def optimize_fast(
    pl: ParityMap, poly: ZXPolynomial, pr: ParityMap, arch: Architecture
) -> tuple[ParityMap, ZXPolynomial, ParityMap]:
    """Single heuristic sweep: instead of re-running Steiner-Gauss per
    candidate, estimate both parity penalties by the hop distance and demand
    effect_zx < -2*d(c, t). The 2*d is a heuristic estimate, not a bound on
    what the parity regions may cost. Candidates come from the CNOTs of each
    parity region's own synthesis (computed once), then from all ordered
    pairs. Every effect_zx is read from one `_zx_table`, rebuilt only after
    an accept."""
    table = _zx_table(poly, arch)

    def sweep(candidates: Iterable[tuple[int, int]]) -> None:
        nonlocal pl, poly, pr, table
        for control, target in candidates:
            if table[control][target] < -2 * arch.dist[control][target]:
                cnot = Cnot(control, target)
                pl, pr = append_cnot(pl, cnot), prepend_cnot(pr, cnot)
                poly = propagate_cnot_poly(poly, cnot)
                table = _zx_table(poly, arch)

    sweep((cnot.control, cnot.target) for cnot in steiner_gauss(pl, arch))
    sweep((cnot.control, cnot.target) for cnot in steiner_gauss(pr, arch))
    q = arch.num_qubits
    sweep((c, t) for c in range(q) for t in range(q) if c != t)
    return pl, poly, pr


def score(a: PhaseGadget, b: PhaseGadget, num_qubits: int) -> int:
    """Leg-affinity score between two gadgets, basis ignored.

    Per wire: +1 when both gadgets have a leg, -1 when exactly one does,
    -1 when neither does; summed, that is 2 * both - num_qubits. Bounded by
    num_qubits in absolute value.
    """
    return 2 * (a.legs & b.legs).bit_count() - num_qubits


def regroup(poly: ZXPolynomial) -> ZXPolynomial:
    """Insertion-sort-like regrouping pass.

    A gadget bubbles right while the gadget after it scores higher against
    its predecessor than it does itself; each transposition is performed
    only when legal (commuting, or pi-commutation with the mandated phase
    flip), so the unitary is preserved up to global phase.
    """
    gadgets = list(poly.gadgets)
    n = len(gadgets)
    q = poly.num_qubits
    col = 1
    while col < n - 1:
        prev, cur, nxt = col - 1, col, col + 1
        while nxt < n and score(gadgets[prev], gadgets[cur], q) < score(
            gadgets[prev], gadgets[nxt], q
        ):
            first, second = gadgets[cur], gadgets[nxt]
            swapped = (second, first) if commutes(first, second) else pi_commute_swap(first, second)
            if swapped is None:
                break
            gadgets[cur], gadgets[nxt] = swapped
            prev, cur, nxt = cur, nxt, nxt + 1
        col += 1
    return ZXPolynomial(poly.num_qubits, tuple(gadgets))


def split(poly: ZXPolynomial) -> tuple[ZXPolynomial, ZXPolynomial]:
    """Split into a ceil(n/2) head and the remaining tail."""
    if len(poly.gadgets) == 0:
        raise ValueError("cannot split an empty polynomial")
    half = (len(poly.gadgets) + 1) // 2
    return (
        ZXPolynomial(poly.num_qubits, poly.gadgets[:half]),
        ZXPolynomial(poly.num_qubits, poly.gadgets[half:]),
    )


_OPTIMIZERS = {"fast": optimize_fast, "gauss": optimize_gauss}


def synthesize(
    poly: ZXPolynomial, arch: Architecture, mode: str = "fast"
) -> list[ParityMap | ZXPolynomial]:
    """Divide-and-conquer synthesis into an alternating region list.

    Starts from [I, poly, I]; every recursion step regroups its gadget run,
    runs one optimizer sweep against the run's two flanking parity maps,
    and splits runs longer than two gadgets around an identity map.
    A step returns its flanking maps as its sweeps left them: the head's
    final right map is the map the tail starts from, and a map joins the
    list once its last sweep is done. Returns a list alternating parity maps
    and gadget runs that begins and ends with a map and whose total unitary
    equals the polynomial's. Here the polynomial is checked only against
    the architecture's qubit count; it was checked itself when it was built.
    """
    if mode not in _OPTIMIZERS:
        raise ValueError(f"mode must be one of {sorted(_OPTIMIZERS)}, got {mode!r}")
    if poly.num_qubits != arch.num_qubits:
        raise ValueError(f"polynomial and architecture disagree: polynomial has {poly.num_qubits} "
                         f"qubits, architecture {arch.name} has {arch.num_qubits}")
    identity = identity_map(arch.num_qubits)
    if len(poly.gadgets) == 0:
        return [identity]
    optimize = _OPTIMIZERS[mode]

    def descend(
        pl: ParityMap, run: ZXPolynomial, pr: ParityMap
    ) -> tuple[ParityMap, list[ParityMap | ZXPolynomial], ParityMap]:
        pl, run, pr = optimize(pl, regroup(run), pr, arch)
        if len(run.gadgets) <= 2:
            return pl, [run], pr
        head, tail = split(run)
        pl, left_part, middle = descend(pl, head, identity)
        middle, right_part, pr = descend(middle, tail, pr)
        return pl, left_part + [middle] + right_part, pr

    pl, inner, pr = descend(identity, poly, identity)
    return [pl] + inner + [pr]
