"""Architecture-aware synthesis: cost model, CNOT extraction, regrouping,
and the recursive divide-and-conquer driver.

A polynomial is optimized inside an alternating region list
[P_0, G_1, P_1, ..., G_k, P_k] of parity maps (`ParityMap`) and gadget runs
(`ZXPolynomial`). Extracting a CNOT conjugates every gadget of one run and
absorbs the gate pair into the two flanking parity regions, preserving the
total unitary while (ideally) shrinking the gadgets' leg trees.

Cost conventions: a gadget is priced at twice its tree weight, and
`effect_zx` is the change (after minus before) in that gadget-tree CNOT
estimate, so negative is an improvement. Both optimizers are one greedy
sweep, `_sweep`, over one candidate order, every ordered (control, target)
pair, control-major, with different flank pricers. A pricer gives the
ceiling, what the two flanking parity regions are charged now, and one
yes/no question, fits(c, t, budget): is the candidate's absorbed flank
cost, with the CNOT pair absorbed, below the budget? The sweep asks it with
budget = ceiling - effect_zx, so it accepts a candidate when
effect_zx + absorbed - ceiling < 0. `optimize_gauss` costs by `cnot_cost`
through `parity.flank_pricer`, which owns every size-dependent choice (one
move on each flank's packed exact-table index up to 4 qubits, above, the
Steiner-Gauss length behind a lower-bound skip), so it accepts exactly
when the total emitted-CNOT estimate strictly decreases. `optimize_fast`
charges 2*d(c, t) against a ceiling of 0 and neither costs nor synthesizes
a map.

The sweep reads every candidate's effect_zx from one q x q table,
`_zx_table`, built in one pass over the run and rebuilt only after an
accept (accepts are rare next to the q(q-1) candidates of a sweep);
`effect_zx` stays the one-candidate definition the table must equal. The
table sums one row of nonzero effects per gadget, and a row depends only
on the gadget's legs and basis, so it is computed once per Architecture
(its "zx" memo) and reused at every recursion level, in every QAOA layer
and after every accept. The sweep builds a `Cnot` for accepts only.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable

from .arch import Architecture, check_qubit_count, memo_put
from .parity import (  # cnot_cost, steiner_gauss: not called here, but perfbench's tracer wraps both
    ParityMap, append_cnot, cnot_cost, flank_pricer, identity_map, prepend_cnot, steiner_gauss,
)
from .poly import PhaseGadget, ZXPolynomial, mask_to_legs
from .rules import (
    Cnot, exchange, propagate_cnot_poly, propagated_legs, tested_toggled,
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


def _sweep(
    pl: ParityMap, poly: ZXPolynomial, pr: ParityMap, arch: Architecture,
    pricer: Callable[..., tuple[int, Callable[[int, int, int], bool]]],
) -> tuple[ParityMap, ZXPolynomial, ParityMap]:
    """The one greedy sweep: walk every ordered (control, target) pair of
    distinct wires once, control-major, and propagate a candidate whose net,
    effect_zx + absorbed - ceiling, is negative; `pricer` is asked again and
    the zx table rebuilt after each accept. `pricer` gives the ceiling and
    fits(c, t, budget), True exactly when the candidate's absorbed flank
    cost is below budget; the sweep asks it with budget = ceiling -
    effect_zx (a rule that accepted net == 0 would ask with budget + 1)."""
    ceiling, fits = pricer(pl, pr, arch)
    table = _zx_table(poly, arch)
    for control, target in permutations(range(arch.num_qubits), 2):
        zx = table[control][target]
        if zx >= ceiling or not fits(control, target, ceiling - zx):
            continue
        cnot = Cnot(control, target)
        pl, pr = append_cnot(pl, cnot), prepend_cnot(pr, cnot)
        poly = propagate_cnot_poly(poly, cnot)
        ceiling, fits = pricer(pl, pr, arch)
        table = _zx_table(poly, arch)
    return pl, poly, pr


def optimize_gauss(
    pl: ParityMap, poly: ZXPolynomial, pr: ParityMap, arch: Architecture
) -> tuple[ParityMap, ZXPolynomial, ParityMap]:
    """`_sweep` pricing the flanks exactly through `flank_pricer`: a CNOT is
    propagated whenever the total emitted-CNOT estimate strictly drops."""
    return _sweep(pl, poly, pr, arch, flank_pricer)


def optimize_fast(
    pl: ParityMap, poly: ZXPolynomial, pr: ParityMap, arch: Architecture
) -> tuple[ParityMap, ZXPolynomial, ParityMap]:
    """`_sweep` with the hop pricer: against a ceiling of 0 a candidate is
    charged 2*d(c, t), a heuristic estimate, not a bound on what the flanks
    may cost, so fits(c, t, budget) is 2*d(c, t) < budget and a candidate is
    accepted when effect_zx < -2*d(c, t). It walks the same candidates as
    `optimize_gauss` and neither costs nor synthesizes a map."""
    hop = lambda c, t, budget: 2 * arch.dist[c][t] < budget
    return _sweep(pl, poly, pr, arch, lambda pl, pr, arch: (0, hop))


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
    its predecessor than it does itself; each transposition is the pair
    `exchange` returns and the bubble stops where it refuses, so the unitary
    is preserved up to global phase.
    """
    gadgets = list(poly.gadgets)
    n = len(gadgets)
    q = poly.num_qubits
    for col in range(1, n - 1):
        prev, cur, nxt = col - 1, col, col + 1
        while nxt < n and score(gadgets[prev], gadgets[cur], q) < score(
            gadgets[prev], gadgets[nxt], q
        ):
            swapped = exchange(gadgets[cur], gadgets[nxt])
            if swapped is None:
                break
            gadgets[cur], gadgets[nxt] = swapped
            prev, cur, nxt = cur, nxt, nxt + 1
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
    check_qubit_count(poly.num_qubits, arch.name, arch.num_qubits)
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
